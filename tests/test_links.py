"""Tests for Step-1 link building and tower-disjoint paths."""

import numpy as np
import pytest

from repro.core.pipeline import HopPipeline
from repro.datasets.sites import Site
from repro.geo import flat_terrain
from repro.links import CandidateLink, build_link_catalog, tower_disjoint_paths
from repro.towers import LosChecker, Tower, TowerRegistry


def chain_world(n_chains: int = 1, spacing_deg: float = 0.5):
    """Sites at both ends of n parallel west-east tower chains."""
    site_a = Site("A", 40.0, -100.0, 1_000_000)
    site_b = Site("B", 40.0, -96.0, 1_000_000)
    towers = []
    tid = 0
    for c in range(n_chains):
        lat = 40.0 + 0.15 * c
        lon = -100.0
        while lon <= -96.0:
            towers.append(Tower(tid, lat, lon, 250.0))
            tid += 1
            lon += spacing_deg
    reg = TowerRegistry(towers)
    hg = HopPipeline(LosChecker(flat_terrain(0.0))).enumerate_hops(reg)
    return site_a, site_b, reg, hg


class TestCandidateLink:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CandidateLink(site_a=2, site_b=1, mw_km=10.0, n_towers=3, tower_path=())

    def test_positive_length(self):
        with pytest.raises(ValueError):
            CandidateLink(site_a=0, site_b=1, mw_km=0.0, n_towers=0, tower_path=())


class TestBuildCatalog:
    def test_simple_chain(self):
        a, b, reg, hg = chain_world()
        cat = build_link_catalog([a, b], reg, hg)
        link = cat.link(0, 1)
        assert link is not None
        geod = a.distance_km(b)
        assert geod <= link.mw_km < geod * 1.2
        assert link.n_towers >= 5

    def test_symmetry_of_matrices(self):
        a, b, reg, hg = chain_world()
        cat = build_link_catalog([a, b], reg, hg)
        assert cat.mw_km[0, 1] == cat.mw_km[1, 0]
        assert cat.cost_towers[0, 1] == cat.cost_towers[1, 0]

    def test_unreachable_pair_infinite(self):
        a = Site("A", 40.0, -100.0, 1)
        b = Site("B", 40.0, -80.0, 1)  # no towers anywhere near B
        towers = [Tower(0, 40.0, -100.1, 200.0)]
        reg = TowerRegistry(towers)
        hg = HopPipeline(LosChecker(flat_terrain(0.0))).enumerate_hops(reg)
        cat = build_link_catalog([a, b], reg, hg)
        assert np.isinf(cat.mw_km[0, 1])
        assert cat.link(0, 1) is None

    def test_tower_path_is_connected_hops(self):
        a, b, reg, hg = chain_world()
        cat = build_link_catalog([a, b], reg, hg)
        path = cat.link(0, 1).tower_path
        for u, v in zip(path[:-1], path[1:]):
            d = reg[u].point.distance_km(reg[v].point)
            assert d <= 100.0

    def test_diagonal_zero(self):
        a, b, reg, hg = chain_world()
        cat = build_link_catalog([a, b], reg, hg)
        assert cat.mw_km[0, 0] == 0.0
        assert cat.cost_towers[1, 1] == 0.0


class TestDisjointPaths:
    def test_single_chain_gives_one_path(self):
        a, b, reg, hg = chain_world(n_chains=1)
        paths = tower_disjoint_paths(a, b, reg, hg, max_iterations=5)
        assert len(paths) == 1
        assert paths[0].stretch >= 1.0

    def test_parallel_chains_give_multiple_paths(self):
        a, b, reg, hg = chain_world(n_chains=4)
        paths = tower_disjoint_paths(a, b, reg, hg, max_iterations=10)
        assert 2 <= len(paths) <= 4
        # Stretch is non-decreasing across iterations.
        stretches = [p.stretch for p in paths]
        assert stretches == sorted(stretches)

    def test_paths_are_tower_disjoint(self):
        a, b, reg, hg = chain_world(n_chains=3)
        paths = tower_disjoint_paths(a, b, reg, hg, max_iterations=10)
        seen: set[int] = set()
        for p in paths:
            assert not (seen & set(p.tower_path))
            seen |= set(p.tower_path)

    def test_identical_sites_raise(self):
        a, _, reg, hg = chain_world()
        with pytest.raises(ValueError):
            tower_disjoint_paths(a, a, reg, hg)
