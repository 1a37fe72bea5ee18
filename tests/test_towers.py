"""Tests for tower synthesis, registry culling, LOS, and hop graph."""

import numpy as np
import pytest

from repro.core.pipeline import HopPipeline
from repro.datasets.sites import Site
from repro.geo import GeoPoint, RadioProfile, flat_terrain, us_terrain
from repro.towers import (
    CullingPolicy,
    LosChecker,
    LosConfig,
    Tower,
    TowerRegistry,
    cull_towers,
    synthesize_towers,
)
from repro.towers.synthesis import SynthesisConfig, _gabriel_pairs

from conftest import los_verdicts

SITES = [
    Site("A", 40.0, -100.0, 1_000_000),
    Site("B", 40.0, -97.0, 500_000),
    Site("C", 42.0, -99.0, 250_000),
]


class TestTower:
    def test_bad_height_raises(self):
        with pytest.raises(ValueError):
            Tower(0, 40.0, -100.0, 0.0)

    def test_bad_source_raises(self):
        with pytest.raises(ValueError):
            Tower(0, 40.0, -100.0, 100.0, source="mystery")


class TestSynthesis:
    def test_deterministic(self):
        a = synthesize_towers(SITES, config=SynthesisConfig(seed=1))
        b = synthesize_towers(SITES, config=SynthesisConfig(seed=1))
        assert [(t.lat, t.lon, t.height_m) for t in a] == [
            (t.lat, t.lon, t.height_m) for t in b
        ]

    def test_seed_changes_field(self):
        a = synthesize_towers(SITES, config=SynthesisConfig(seed=1))
        b = synthesize_towers(SITES, config=SynthesisConfig(seed=2))
        assert [(t.lat, t.lon) for t in a] != [(t.lat, t.lon) for t in b]

    def test_contiguous_ids(self):
        towers = synthesize_towers(SITES)
        assert [t.tower_id for t in towers] == list(range(len(towers)))

    def test_urban_towers_near_each_site(self):
        towers = synthesize_towers(SITES)
        reg = TowerRegistry(towers)
        for s in SITES:
            assert reg.count_near(s.point, 40.0) >= 3

    def test_bigger_city_gets_more_towers(self):
        cfg = SynthesisConfig(seed=3, rural_density_per_100km2=0.0)
        towers = synthesize_towers(
            [Site("big", 40.0, -100.0, 8_000_000), Site("small", 40.0, -90.0, 100_000)],
            config=cfg,
        )
        reg = TowerRegistry(towers)
        big = reg.count_near(GeoPoint(40.0, -100.0), 40.0)
        small = reg.count_near(GeoPoint(40.0, -90.0), 40.0)
        assert big > small

    def test_corridor_towers_between_cities(self):
        towers = synthesize_towers(SITES, config=SynthesisConfig(seed=5))
        reg = TowerRegistry(towers)
        # Midpoint of the A-B corridor (~255 km apart) should have towers.
        assert reg.count_near(GeoPoint(40.0, -98.5), 40.0) > 0

    def test_empty_sites(self):
        assert synthesize_towers([]) == []

    def test_mountain_thinning(self):
        terrain = us_terrain()
        rockies_sites = [
            Site("W", 39.5, -110.0, 500_000),
            Site("E", 39.5, -101.0, 500_000),
        ]
        cfg = SynthesisConfig(seed=9, rural_density_per_100km2=0.3)
        towers = synthesize_towers(rockies_sites, terrain, cfg)
        reg = TowerRegistry(towers)
        rockies = reg.count_near(GeoPoint(39.5, -106.0), 80.0)
        plains = reg.count_near(GeoPoint(39.5, -102.0), 80.0)
        assert plains > rockies


class TestGabrielPairs:
    def test_two_sites_single_edge(self):
        pairs = _gabriel_pairs(SITES[:2])
        assert pairs == [(0, 1)]

    def test_blocked_edge_removed(self):
        # C exactly between A and B blocks the A-B edge.
        sites = [
            Site("A", 40.0, -100.0),
            Site("B", 40.0, -96.0),
            Site("C", 40.0, -98.0),
        ]
        pairs = _gabriel_pairs(sites)
        assert (0, 1) not in pairs
        assert (0, 2) in pairs and (1, 2) in pairs

    def test_empty(self):
        assert _gabriel_pairs([]) == []


class TestCulling:
    def test_short_fcc_towers_dropped(self):
        towers = [
            Tower(0, 40.0, -100.0, 50.0, source="fcc"),
            Tower(1, 40.0, -100.1, 150.0, source="fcc"),
            Tower(2, 40.0, -100.2, 50.0, source="rental"),
        ]
        kept = cull_towers(towers)
        assert len(kept) == 2
        assert {t.height_m for t in kept} == {150.0, 50.0}

    def test_density_cap(self):
        rng = np.random.default_rng(0)
        towers = [
            Tower(i, 40.0 + float(rng.uniform(0, 0.4)), -100.0 + float(rng.uniform(0, 0.4)), 120.0)
            for i in range(200)
        ]
        kept = cull_towers(towers, CullingPolicy(density_cap=50))
        assert len(kept) == 50

    def test_ids_reassigned(self):
        towers = [Tower(i + 7, 40.0, -100.0 + i, 120.0) for i in range(3)]
        kept = cull_towers(towers)
        assert [t.tower_id for t in kept] == [0, 1, 2]

    def test_culling_deterministic(self):
        towers = [
            Tower(i, 40.0 + (i % 10) * 0.01, -100.0 + (i // 10) * 0.01, 120.0)
            for i in range(300)
        ]
        a = cull_towers(towers, CullingPolicy(seed=5))
        b = cull_towers(towers, CullingPolicy(seed=5))
        assert [(t.lat, t.lon) for t in a] == [(t.lat, t.lon) for t in b]


class TestRegistry:
    def test_near_and_count(self):
        towers = [Tower(i, 40.0, -100.0 + i * 0.5, 100.0) for i in range(10)]
        reg = TowerRegistry(towers)
        found = reg.near(GeoPoint(40.0, -100.0), 100.0)
        assert len(found) >= 2
        assert reg.count_near(GeoPoint(0.0, 0.0), 50.0) == 0

    def test_negative_radius_raises(self):
        reg = TowerRegistry([])
        with pytest.raises(ValueError):
            reg.near(GeoPoint(0, 0), -1.0)

    def test_getitem_matches_id(self):
        towers = [Tower(i, 40.0, -100.0 + i, 100.0) for i in range(5)]
        reg = TowerRegistry(towers)
        assert reg[3].lon == -97.0


class TestLos:
    def test_flat_terrain_in_range_feasible(self):
        checker = LosChecker(flat_terrain(100.0))
        a = Tower(0, 40.0, -100.0, 250.0)
        b = Tower(1, 40.0, -99.0, 250.0)  # ~85 km
        assert los_verdicts(checker, [a], [b])[0]

    def test_out_of_range_infeasible(self):
        checker = LosChecker(flat_terrain(0.0))
        a = Tower(0, 40.0, -100.0, 300.0)
        b = Tower(1, 40.0, -98.5, 300.0)  # ~128 km > 100 km
        assert not los_verdicts(checker, [a], [b])[0]

    def test_short_towers_blocked_by_bulge(self):
        # At ~85 km the midpoint clearance is ~123 m; 40 m towers with
        # 12 m clutter cannot clear it over flat ground.
        checker = LosChecker(flat_terrain(0.0))
        a = Tower(0, 40.0, -100.0, 40.0)
        b = Tower(1, 40.0, -99.0, 40.0)
        assert not los_verdicts(checker, [a], [b])[0]

    def test_mountain_blocks_hop(self):
        from repro.geo import MountainRidge, TerrainModel

        wall = TerrainModel(
            seed=0,
            base_m=0.0,
            relief_m=0.0,
            ridges=(
                MountainRidge("wall", ((39.0, -99.5), (41.0, -99.5)), 2500.0, 30.0),
            ),
        )
        checker = LosChecker(wall)
        a = Tower(0, 40.0, -100.0, 200.0)
        b = Tower(1, 40.0, -99.0, 200.0)
        assert not los_verdicts(checker, [a], [b])[0]

    def test_usable_height_fraction_reduces_feasibility(self):
        full = LosChecker(flat_terrain(0.0), LosConfig(usable_height_fraction=1.0))
        low = LosChecker(flat_terrain(0.0), LosConfig(usable_height_fraction=0.45))
        a = Tower(0, 40.0, -100.0, 160.0)
        b = Tower(1, 40.0, -99.05, 160.0)
        assert los_verdicts(full, [a], [b])[0]
        assert not los_verdicts(low, [a], [b])[0]

    def test_batch_matches_singles(self):
        terrain = us_terrain()
        rng = np.random.default_rng(3)
        towers = [
            Tower(i, float(rng.uniform(38, 42)), float(rng.uniform(-104, -95)), 150.0)
            for i in range(20)
        ]
        checker = LosChecker(terrain)
        pairs = [(towers[i], towers[j]) for i in range(10) for j in range(10, 20)]
        batch = los_verdicts(checker, [p[0] for p in pairs], [p[1] for p in pairs])
        singles = [los_verdicts(checker, [a], [b])[0] for a, b in pairs]
        # Sample counts are per pair, so batching never changes a verdict.
        assert batch.tolist() == singles

    def test_misaligned_lists_raise(self):
        towers = [Tower(0, 40.0, -100.0, 100.0), Tower(1, 40.0, -99.5, 100.0)]
        pipeline = HopPipeline(LosChecker(flat_terrain()))
        with pytest.raises(ValueError, match="aligned"):
            pipeline.feasible_mask(TowerRegistry(towers), np.array([0]), np.array([], dtype=int))

    @pytest.mark.parametrize(
        "ends, got",
        [
            # Used to return an empty mask without error.
            (
                ([40.0], [-100.0], [100.0], [], [], []),
                "lat_a=1, lon_a=1, h_a=1, lat_b=0, lon_b=0, h_b=0",
            ),
            # Used to raise IndexError from inside the chunk loop.
            (
                ([40.0], [-100.0], [100.0], [40.0] * 3, [-99.5, -99.4, -99.3], [100.0] * 3),
                "lat_a=1, lon_a=1, h_a=1, lat_b=3, lon_b=3, h_b=3",
            ),
            (
                ([40.0] * 3, [-100.0] * 3, [100.0], [40.0] * 3, [-99.5, -99.4, -99.3], [100.0] * 3),
                "lat_a=3, lon_a=3, h_a=1, lat_b=3, lon_b=3, h_b=3",
            ),
            # Used to raise TypeError from inside the chunk loop.
            (
                (40.0, -100.0, 100.0, 40.0, -99.5, 100.0),
                "lat_a=shape (), lon_a=shape (), h_a=shape (), "
                "lat_b=shape (), lon_b=shape (), h_b=shape ()",
            ),
        ],
        ids=["no-b-ends", "three-b-ends", "short-h_a", "scalars"],
    )
    def test_feasible_arrays_names_misaligned_ends(self, ends, got):
        checker = LosChecker(flat_terrain())
        ends = [np.array(v) if isinstance(v, list) else v for v in ends]
        with pytest.raises(ValueError) as info:
            checker.feasible_arrays(*ends)
        assert str(info.value) == f"endpoint arrays must be 1-D and of one length, got {got}"

    def test_empty_batch(self):
        checker = LosChecker(flat_terrain())
        assert los_verdicts(checker, [], []).shape == (0,)


class TestHopGraph:
    def test_candidate_pairs_within_range(self):
        towers = [Tower(i, 40.0, -100.0 + i * 0.4, 150.0) for i in range(6)]
        reg = TowerRegistry(towers)
        a, b = reg.pairs_within(100.0)
        for i, j in zip(a, b):
            assert i < j
            assert (
                towers[int(i)].point.distance_km(towers[int(j)].point) <= 100.0
            )

    def test_candidate_pairs_complete_on_cluster(self):
        # 5 towers all within range of each other -> all 10 pairs found.
        towers = [Tower(i, 40.0 + 0.05 * i, -100.0, 150.0) for i in range(5)]
        reg = TowerRegistry(towers)
        a, _ = reg.pairs_within(100.0)
        assert len(a) == 10

    def test_build_hop_graph_flat(self):
        towers = [Tower(i, 40.0, -100.0 + i * 0.6, 250.0) for i in range(5)]
        reg = TowerRegistry(towers)
        hg = HopPipeline(LosChecker(flat_terrain(0.0))).enumerate_hops(reg)
        assert hg.n_towers == 5
        assert hg.n_edges >= 4  # at least the consecutive chain
        assert np.all(hg.lengths_km <= 100.0)

    def test_empty_registry(self):
        hg = HopPipeline(LosChecker(flat_terrain())).enumerate_hops(TowerRegistry([]))
        assert hg.n_edges == 0
