"""Bit-exactness of the greedy's batched gains and of blocked terrain.

``greedy_sequence`` re-evaluates stale heap entries in speculative
batches and computes each gain only on the site pairs a link can
shorten; ``TerrainModel`` skips a ridge's roughness noise where the
ridge cannot change the elevation's bits and reads value-noise lattice
corners from per-block hash tables.  This module keeps the plain forms
of both as references and checks the fast paths against them bit for
bit:

* ``reference_stretch_gain`` / ``reference_greedy_sequence``: one
  stale entry at a time, each gain over all n x n pairs;
* ``reference_elevation``: the per-point formula, hashing four lattice
  corners per point and every ridge's roughness at every point.

Run as a script for the flagship-scale check (the 120-city US design
and a 0.05 degree US grid plus 10^5 random points)::

    PYTHONPATH=src python tests/test_design_exactness.py --seed 7
"""

from __future__ import annotations

import argparse
import heapq
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core import heuristic
from repro.core.heuristic import GreedyStep, greedy_sequence
from repro.core.ilp import prune_useless_links
from repro.core.topology import DesignInput, mean_stretch_from_distances
from repro.geo import terrain as terrain_mod
from repro.geo.terrain import (
    _BLOCK_POINTS,
    _mix_hash,
    _smoothstep,
    europe_terrain,
    flat_terrain,
    us_terrain,
)
from repro.graph import edge_delta_distances

from conftest import make_toy_design

# ---------------------------------------------------------------------------
# References


def reference_stretch_gain(
    dist: np.ndarray, weights: np.ndarray, a: int, b: int, mw_len: float
) -> tuple[float, np.ndarray]:
    """Stretch reduction from adding link (a, b), over all pairs."""
    new_dist = edge_delta_distances(dist, a, b, mw_len)
    gain = float((weights * (dist - new_dist)).sum())
    return gain, new_dist


def reference_greedy_sequence(
    design: DesignInput,
    budget_towers: float,
    candidates: list[tuple[int, int]] | None = None,
    selection: str = "gain",
    skipped: list | None = None,
) -> list[GreedyStep]:
    """The lazy-heap greedy, one stale entry re-verified at a time.

    ``skipped`` collects the links passed over as unaffordable.
    """
    if candidates is None:
        candidates = prune_useless_links(design)
    weights = design.pair_weights()
    dist = design.fiber_km.copy()
    np.fill_diagonal(dist, 0.0)
    cost = design.cost_towers
    mw = design.mw_km

    def score(gain: float, link_cost: float) -> float:
        if selection == "gain":
            return gain
        return gain / max(link_cost, 1.0)

    heap: list[tuple[float, int, tuple[int, int]]] = []
    stamp = 0
    for a, b in candidates:
        gain, _ = reference_stretch_gain(dist, weights, a, b, mw[a, b])
        heapq.heappush(heap, (-score(gain, cost[a, b]), stamp, (a, b)))
        stamp += 1

    steps: list[GreedyStep] = []
    spent = 0.0
    chosen: set[tuple[int, int]] = set()
    fresh: dict[tuple[int, int], int] = {}
    epoch = 0
    while heap:
        _, _, link = heapq.heappop(heap)
        if link in chosen:
            continue
        a, b = link
        if spent + cost[a, b] > budget_towers:
            if skipped is not None:
                skipped.append(link)
            continue
        gain, new_dist = reference_stretch_gain(dist, weights, a, b, mw[a, b])
        current = score(gain, cost[a, b])
        if fresh.get(link, -1) != epoch:
            next_best = -heap[0][0] if heap else -np.inf
            if current < next_best - 1e-15:
                fresh[link] = epoch
                heapq.heappush(heap, (-current, stamp, link))
                stamp += 1
                continue
        if gain <= 1e-12:
            break
        dist = new_dist
        chosen.add(link)
        spent += cost[a, b]
        epoch += 1
        steps.append(
            GreedyStep(
                link=link,
                cost_towers=float(cost[a, b]),
                cumulative_cost=spent,
                mean_stretch=mean_stretch_from_distances(design, dist),
            )
        )
    return steps


def reference_value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Value noise hashing all four lattice corners of every point."""
    x0 = np.floor(x)
    y0 = np.floor(y)
    tx = _smoothstep(x - x0)
    ty = _smoothstep(y - y0)
    ix0 = x0.astype(np.int64)
    iy0 = y0.astype(np.int64)
    v00 = _mix_hash(ix0, iy0, seed)
    v10 = _mix_hash(ix0 + 1, iy0, seed)
    v01 = _mix_hash(ix0, iy0 + 1, seed)
    v11 = _mix_hash(ix0 + 1, iy0 + 1, seed)
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * ty


def reference_fractal_noise(x, y, octaves: int, seed: int) -> np.ndarray:
    total = np.zeros_like(np.asarray(x, dtype=float))
    amplitude = 1.0
    frequency = 1.0
    norm = 0.0
    for octave in range(octaves):
        total += amplitude * reference_value_noise(x * frequency, y * frequency, seed + octave)
        norm += amplitude
        amplitude *= 0.5
        frequency *= 2.0
    return total / norm


def reference_elevation(terrain, lats, lons) -> np.ndarray:
    """The per-point elevation formula (every ridge at every point)."""
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    x = lons / terrain.noise_scale_deg
    y = lats / terrain.noise_scale_deg
    elevation = terrain.base_m + terrain.relief_m * reference_fractal_noise(
        x, y, octaves=5, seed=terrain.seed
    )
    for i, ridge in enumerate(terrain.ridges):
        dist = ridge.distance_km(lats, lons)
        envelope = np.exp(-((dist / ridge.width_km) ** 2))
        rough = 0.55 + 0.45 * reference_fractal_noise(
            x * 3.0, y * 3.0, octaves=3, seed=terrain.seed + 101 + i
        )
        elevation = elevation + ridge.height_m * envelope * rough
    return np.maximum(elevation, 0.0)


def steps_equal_reference(design, budget, **kwargs) -> list[GreedyStep]:
    want = reference_greedy_sequence(design, budget, **kwargs)
    got = greedy_sequence(design, budget, **kwargs)
    assert got == want
    return want


# ---------------------------------------------------------------------------
# Greedy


@pytest.fixture(params=["batched", "per-candidate"])
def gain_path(request, monkeypatch):
    """Run the greedy on its batched or its per-candidate path at any size."""
    threshold = 0 if request.param == "batched" else 10**9
    monkeypatch.setattr(heuristic, "_BATCH_MIN_SITES", threshold)
    return request.param


@pytest.fixture(scope="module")
def tower_constrained_design():
    """A 40-city US design at 60 km hops and 0.65 usable tower height."""
    from repro.scenarios import get_scenario

    scenario = get_scenario("us", sites=40, max_range_km=60.0, usable_height_fraction=0.65)
    return scenario.design_input()


def design_state(design: DesignInput, links) -> np.ndarray:
    dist = design.fiber_km.copy()
    np.fill_diagonal(dist, 0.0)
    for a, b in links:
        dist = edge_delta_distances(dist, a, b, design.mw_km[a, b])
    return dist


class TestGreedyMatchesReference:
    @pytest.mark.parametrize("selection", ["gain", "gain_per_cost"])
    @pytest.mark.parametrize("n, seed, budget", [(8, 8, 10_000.0), (10, 10, 400.0), (14, 3, 150.0)])
    def test_toy_designs(self, gain_path, selection, n, seed, budget):
        steps_equal_reference(make_toy_design(n, seed=seed), budget, selection=selection)

    @pytest.mark.parametrize("selection", ["gain", "gain_per_cost"])
    @pytest.mark.parametrize("budget", [120.0, 1600.0])
    def test_us_20_sites(self, gain_path, small_us_scenario, selection, budget):
        steps_equal_reference(small_us_scenario.design_input(), budget, selection=selection)

    @pytest.mark.parametrize("selection", ["gain", "gain_per_cost"])
    def test_us_40_sites_tower_constrained(self, gain_path, tower_constrained_design, selection):
        steps_equal_reference(tower_constrained_design, 2800.0, selection=selection)

    def test_unaffordable_skips(self, gain_path, small_us_scenario):
        design = small_us_scenario.design_input()
        skipped: list = []
        want = reference_greedy_sequence(design, 120.0, skipped=skipped)
        assert want and skipped
        assert greedy_sequence(design, 120.0) == want

    def test_explicit_candidate_subset(self, gain_path, small_us_scenario):
        design = small_us_scenario.design_input()
        subset = prune_useless_links(design)[::3]
        steps = steps_equal_reference(design, 1600.0, candidates=subset)
        assert {s.link for s in steps} <= set(subset)

    def test_uncertified_input_takes_full_path(self, monkeypatch):
        """A fiber matrix that breaks the triangle inequality voids the
        pair restriction; the greedy then evaluates all pairs."""
        design = make_toy_design(10, seed=10)
        fiber = design.geodesic_km * 2.0
        # A shortcut the other distances ignore: no longer a metric closure.
        fiber[0, 9] = fiber[9, 0] = 1.0
        design = replace(design, fiber_km=fiber)
        dist = design_state(design, [])
        lengths = np.array([design.mw_km[a, b] for a, b in prune_useless_links(design)])
        assert not heuristic._restriction_is_exact(
            dist, design.pair_weights(), lengths, 1e-9 * dist.max()
        )
        monkeypatch.setattr(heuristic, "_BATCH_MIN_SITES", 0)
        steps_equal_reference(design, 400.0)


class TestBatchedGains:
    """``_restricted_gains`` equals the all-pairs gain at several states."""

    @staticmethod
    def check_states(design: DesignInput, n_states: int = 3) -> None:
        weights = design.pair_weights()
        mw = design.mw_km
        links = prune_useless_links(design)
        picks = [s.link for s in reference_greedy_sequence(design, 10**9)]
        buf = np.zeros(heuristic._BATCH * design.n_sites**2)
        states = np.linspace(0, len(picks), n_states).round().astype(int)
        for n_picks in states:
            dist = design_state(design, picks[:n_picks])
            tau = 1e-9 * dist.max()
            lengths = np.array([mw[a, b] for a, b in links])
            assert heuristic._restriction_is_exact(dist, weights, lengths, tau)
            want = [reference_stretch_gain(dist, weights, a, b, mw[a, b])[0] for a, b in links]
            got = []
            for start in range(0, len(links), heuristic._BATCH):
                chunk = links[start : start + heuristic._BATCH]
                got += heuristic._restricted_gains(dist, weights, mw, chunk, tau, buf)
            assert got == want
            assert not buf.any()

    def test_us_20_sites(self, small_us_scenario):
        self.check_states(small_us_scenario.design_input(), n_states=4)

    def test_us_40_sites_tower_constrained(self, tower_constrained_design):
        self.check_states(tower_constrained_design)

    def test_toy_design(self):
        self.check_states(make_toy_design(14, seed=3))


# ---------------------------------------------------------------------------
# Terrain


TERRAINS = {
    "us": (us_terrain, (24.0, 50.0), (-126.0, -66.0)),
    "europe": (europe_terrain, (35.0, 71.0), (-11.0, 31.0)),
    "flat": (lambda: flat_terrain(120.0), (24.0, 50.0), (-126.0, -66.0)),
}


def terrain_points(name: str, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random points, ridge crests, lattice corners and crest crossings."""
    factory, (lat0, lat1), (lon0, lon1) = TERRAINS[name]
    terrain = factory()
    rng = np.random.default_rng(seed)
    lats = [rng.uniform(lat0, lat1, n)]
    lons = [rng.uniform(lon0, lon1, n)]
    t = np.linspace(0.0, 1.0, 257)
    for ridge in terrain.ridges:
        crest = np.array(ridge.waypoints)
        (lat_a, lon_a), (lat_b, lon_b) = crest[0], crest[-1]
        # The crest waypoints, the chord between the end waypoints, and
        # an east-west crossing through the chord's middle.
        lats += [crest[:, 0], lat_a + (lat_b - lat_a) * t, np.full(t.size, (lat_a + lat_b) / 2)]
        lons += [crest[:, 1], lon_a + (lon_b - lon_a) * t, (lon_a + lon_b) / 2 + 16.0 * t - 8.0]
    scale = terrain.noise_scale_deg
    iy, ix = np.meshgrid(
        np.arange(np.ceil(lat0 / scale), np.floor(lat1 / scale) + 1),
        np.arange(np.ceil(lon0 / scale), np.floor(lon1 / scale) + 1),
        indexing="ij",
    )
    lats.append((iy * scale).ravel())
    lons.append((ix * scale).ravel())
    return np.concatenate(lats), np.concatenate(lons)


class TestTerrainMatchesReference:
    @pytest.mark.parametrize("name", sorted(TERRAINS))
    def test_elevation_bitwise(self, name):
        terrain = TERRAINS[name][0]()
        lats, lons = terrain_points(name, 3 * _BLOCK_POINTS + 17)
        assert np.array_equal(terrain.elevation_m(lats, lons), reference_elevation(terrain, lats, lons))

    @pytest.mark.parametrize("cells_per_point", [0.0, np.inf])
    @pytest.mark.parametrize("name", sorted(TERRAINS))
    def test_both_lattice_paths_bitwise(self, monkeypatch, name, cells_per_point):
        monkeypatch.setattr(terrain_mod, "_TABLE_CELLS_PER_POINT", cells_per_point)
        terrain = TERRAINS[name][0]()
        lats, lons = terrain_points(name, 5_000, seed=1)
        assert np.array_equal(terrain.elevation_m(lats, lons), reference_elevation(terrain, lats, lons))

    def test_ridges_are_culled_somewhere_and_kept_on_crests(self):
        """The sample exercises both sides of the culling rule."""
        terrain = us_terrain()
        lats, lons = terrain_points("us", 20_000)
        base = terrain.base_m + terrain.relief_m * reference_fractal_noise(
            lons / terrain.noise_scale_deg, lats / terrain.noise_scale_deg, 5, terrain.seed
        )
        for ridge in terrain.ridges:
            crest = ridge.height_m * np.exp(-((ridge.distance_km(lats, lons) / ridge.width_km) ** 2))
            culled = crest < 0.5 * np.spacing(base)
            assert culled.any() and (~culled).any(), ridge.name

    def test_nan_coordinates(self):
        terrain = us_terrain()
        lats = np.array([np.nan, 39.5, 40.0, np.nan, 35.0])
        lons = np.array([-106.0, np.nan, -100.0, np.nan, -80.0])
        got = terrain.elevation_m(lats, lons)
        want = reference_elevation(terrain, lats, lons)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[[0, 1, 3]]).all() and np.isfinite(got[[2, 4]]).all()

    def test_value_noise_table_and_per_point_fallback(self, monkeypatch):
        calls: list[int] = []

        def counting_hash(ix, iy, seed):
            calls.append(ix.size)
            return _mix_hash(ix, iy, seed)

        monkeypatch.setattr(terrain_mod, "_mix_hash", counting_hash)
        rng = np.random.default_rng(5)
        # A dense block: a 20 x 20 lattice box under 8,192 points.
        x = rng.uniform(-10.0, 10.0, _BLOCK_POINTS)
        y = rng.uniform(30.0, 50.0, _BLOCK_POINTS)
        assert np.array_equal(terrain_mod._value_noise(x, y, 3), reference_value_noise(x, y, 3))
        assert calls == [21 * 21]
        # Integer lattice coordinates, including the box's last row and
        # column, plus cell midpoints: 800 points in a 21 x 21 box.
        calls.clear()
        gx, gy = np.meshgrid(np.arange(-4.0, 16.0), np.arange(7.0, 27.0))
        gx = np.concatenate([gx.ravel(), gx.ravel() + 0.5])
        gy = np.concatenate([gy.ravel(), gy.ravel() + 0.5])
        assert np.array_equal(terrain_mod._value_noise(gx, gy, 9), reference_value_noise(gx, gy, 9))
        assert calls == [21 * 21]
        # A sparse block: three points far apart hash per point.
        calls.clear()
        sx = np.array([-3000.5, 12.25, 4000.0])
        sy = np.array([17.5, -900.0, 2.0])
        assert np.array_equal(terrain_mod._value_noise(sx, sy, 1), reference_value_noise(sx, sy, 1))
        assert calls == [3, 3, 3, 3]


# ---------------------------------------------------------------------------
# Flagship-scale check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check greedy picks and terrain elevations against the references "
        "on the 120-city US design."
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (default 7)")
    args = parser.parse_args(argv)

    from repro.scenarios import get_scenario

    design = get_scenario("us", seed=args.seed).design_input()
    # The flagship design's greedy budget: 3,000 towers at 2x inflation.
    budget = 6000.0
    for selection in ("gain", "gain_per_cost"):
        steps = steps_equal_reference(design, budget, selection=selection)
        print(f"greedy {selection}: {len(steps)} picks equal the reference")

    terrain = us_terrain()
    grid_lat, grid_lon = np.meshgrid(
        24.0 + 0.05 * np.arange(521), -125.0 + 0.05 * np.arange(1181), indexing="ij"
    )
    rng = np.random.default_rng(args.seed)
    lats = np.concatenate([grid_lat.ravel(), rng.uniform(24.0, 50.0, 100_000)])
    lons = np.concatenate([grid_lon.ravel(), rng.uniform(-125.0, -66.0, 100_000)])
    got = terrain.elevation_m(lats, lons)
    for start in range(0, lats.size, _BLOCK_POINTS):
        stop = start + _BLOCK_POINTS
        want = reference_elevation(terrain, lats[start:stop], lons[start:stop])
        assert np.array_equal(got[start:stop], want), f"terrain differs in points {start}:{stop}"
    print(f"terrain: {lats.size} points equal the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
