"""The candidate-hop pipeline: spatial index, cached LoS, solver registry."""

import copy
import pickle
from collections import OrderedDict

import numpy as np
import pytest

from repro.core import (
    SolveOutcome,
    Solver,
    get_solver,
    solve,
    solve_heuristic,
    solve_exhaustive,
    solve_ilp,
    solve_lp_rounding,
    solver_names,
)
from repro.core.heuristic import greedy_sequence
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import QUANT_DEG, CachingLosChecker, HopPipeline, shared_pipeline
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.fresnel import RadioProfile
from repro.geo.spatial import GridIndex, brute_force_pairs_within
from repro.geo.terrain import flat_terrain, us_terrain
from repro.towers import los as los_module
from repro.towers.los import LosChecker, LosConfig
from repro.towers.registry import Tower, TowerRegistry

from conftest import los_verdicts, make_toy_design


def random_towers(n: int, seed: int = 0, spread: float = 1.0) -> list[Tower]:
    rng = np.random.default_rng(seed)
    return [
        Tower(
            tower_id=i,
            lat=float(rng.uniform(33.0, 33.0 + 12.0 * spread)),
            lon=float(rng.uniform(-110.0, -110.0 + 30.0 * spread)),
            height_m=float(rng.uniform(60.0, 180.0)),
        )
        for i in range(n)
    ]


def pair_set(a, b) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in zip(a, b)}


class TestGridIndex:
    def test_pairs_match_brute_force_200_towers(self):
        towers = random_towers(200, seed=11)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        for max_range in (40.0, 100.0, 250.0):
            index = GridIndex(lats, lons, max_range)
            got = pair_set(*index.pairs_within(max_range))
            want = pair_set(*brute_force_pairs_within(lats, lons, max_range))
            assert got == want, f"range {max_range}: {len(got)} vs {len(want)}"

    def test_pairs_dense_cluster(self):
        # Every pair of a tight cluster is in range: C(25, 2) pairs.
        towers = random_towers(25, seed=3, spread=0.02)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        a, b = GridIndex(lats, lons, 500.0).pairs_within(500.0)
        assert len(a) == 25 * 24 // 2
        assert np.all(a < b)

    def test_query_radius_matches_linear_scan(self):
        towers = random_towers(150, seed=5)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        index = GridIndex(lats, lons, 120.0)
        center = (39.0, -95.0)
        got = set(index.query_radius(*center, 120.0).tolist())
        dist = haversine_km(center[0], center[1], lats, lons)
        want = set(np.where(dist <= 120.0)[0].tolist())
        assert got == want

    def test_query_radius_beyond_build_radius(self):
        towers = random_towers(100, seed=9)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        index = GridIndex(lats, lons, 50.0)
        dist = haversine_km(40.0, -100.0, lats, lons)
        want = set(np.where(dist <= 400.0)[0].tolist())
        assert set(index.query_radius(40.0, -100.0, 400.0).tolist()) == want

    def test_empty_and_validation(self):
        index = GridIndex([], [], 100.0)
        a, b = index.pairs_within(100.0)
        assert len(a) == 0 and len(b) == 0
        with pytest.raises(ValueError):
            GridIndex([1.0], [1.0], 0.0)

    def test_registry_near_uses_index(self):
        towers = random_towers(120, seed=21)
        reg = TowerRegistry(towers)
        center = GeoPoint(38.0, -100.0)
        got = {t.tower_id for t in reg.near(center, 150.0)}
        want = {
            t.tower_id
            for t in towers
            if haversine_km(center.lat, center.lon, t.lat, t.lon) <= 150.0
        }
        assert got == want


class TestPipelineLos:
    def test_pipeline_matches_scalar_checks(self, monkeypatch):
        """Batch verdicts through the pipeline == per-pair scalar checks."""
        monkeypatch.setattr(los_module, "CHUNK_SIZE", 17)
        towers = random_towers(60, seed=2, spread=0.25)
        reg = TowerRegistry(towers)
        checker = LosChecker(us_terrain(), LosConfig())
        pipeline = HopPipeline(checker)
        cand_a, cand_b = pipeline.candidate_pairs(reg)
        assert len(cand_a) > 17
        mask = pipeline.feasible_mask(reg, cand_a, cand_b)
        for i, j, got in zip(cand_a, cand_b, mask):
            assert bool(got) == los_verdicts(checker, [towers[i]], [towers[j]])[0]

    def test_caching_checker_same_verdicts_and_hits(self):
        towers = random_towers(70, seed=6, spread=0.3)
        reg = TowerRegistry(towers)
        plain = HopPipeline(LosChecker(us_terrain(), LosConfig()))
        cached = HopPipeline(CachingLosChecker(us_terrain(), LosConfig()))
        want = plain.enumerate_hops(reg)
        got_cold = cached.enumerate_hops(reg)
        stats_cold = cached.checker.cache_stats()
        got_warm = cached.enumerate_hops(reg)
        stats_warm = cached.checker.cache_stats()
        assert pair_set(got_cold.edges_a, got_cold.edges_b) == pair_set(
            want.edges_a, want.edges_b
        )
        assert pair_set(got_warm.edges_a, got_warm.edges_b) == pair_set(
            want.edges_a, want.edges_b
        )
        assert stats_cold["profile_hits"] == 0
        # The warm run re-reads every profile from the cache.
        assert stats_warm["profile_hits"] >= stats_cold["profile_misses"]
        assert stats_warm["profile_misses"] == stats_cold["profile_misses"]

    def test_cache_is_reversal_invariant(self):
        terrain = us_terrain()
        checker = CachingLosChecker(terrain, LosConfig())
        plain = LosChecker(terrain, LosConfig())
        t1 = Tower(tower_id=0, lat=39.0, lon=-100.0, height_m=120.0)
        t2 = Tower(tower_id=1, lat=39.3, lon=-99.5, height_m=120.0)
        assert los_verdicts(checker, [t1], [t2])[0] == los_verdicts(plain, [t1], [t2])[0]
        # Reverse direction: same profile, flipped — and a cache hit.
        assert los_verdicts(checker, [t2], [t1])[0] == los_verdicts(plain, [t2], [t1])[0]
        stats = checker.cache_stats()
        assert stats["profile_hits"] >= 1

    def test_enumerate_hops_flat_terrain_full_clique(self):
        # A tight cluster (hops <= ~30 km) on flat terrain: every
        # in-range pair clears bulge + Fresnel + clutter, so the hop
        # graph equals the candidate set.
        towers = random_towers(30, seed=8, spread=0.01)
        reg = TowerRegistry(towers)
        graph = HopPipeline(LosChecker(flat_terrain(0.0))).enumerate_hops(reg)
        a, b = reg.pairs_within(LosConfig().radio.max_range_km)
        assert graph.n_edges == len(a)

    def test_shared_pipeline_shares_terrain_cache(self):
        towers = random_towers(40, seed=10, spread=0.2)
        reg = TowerRegistry(towers)
        p1 = shared_pipeline(us_terrain(), LosConfig())
        p1.enumerate_hops(reg)
        # Same terrain value, different config: profiles are reused.
        p2 = shared_pipeline(us_terrain(), LosConfig(usable_height_fraction=0.85))
        p2.enumerate_hops(reg)
        assert p2.checker.cache_stats()["profile_hits"] > 0


class _RowLru:
    """Per-key LRU with hit/miss counters: the cache the oracle drives."""

    def __init__(self, capacity):
        self.capacity, self.data, self.hits, self.misses = capacity, OrderedDict(), 0, 0

    def get(self, key):
        value = self.data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.data.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key, value):
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.capacity:
            self.data.popitem(last=False)


class _PerRowReference(LosChecker):
    """Oracle: the caching checker's keying done one endpoint at a time."""

    def __init__(self, terrain, profiles, grounds):
        super().__init__(terrain, LosConfig())
        self.profiles, self.grounds = profiles, grounds

    def _qpt(self, lat, lon):
        return (int(round(lat / QUANT_DEG)), int(round(lon / QUANT_DEG)))

    def profile_terrain_m(self, lat_a, lon_a, lat_b, lon_b, m):
        lat_a, lon_a, lat_b, lon_b = map(np.atleast_1d, (lat_a, lon_a, lat_b, lon_b))
        rows, flipped, keys, miss = [None] * len(lat_a), [], [], []
        for k in range(len(lat_a)):
            qa, qb = self._qpt(lat_a[k], lon_a[k]), self._qpt(lat_b[k], lon_b[k])
            flipped.append(qb < qa)
            keys.append((min(qa, qb), max(qa, qb), m))
            cached = self.profiles.get(keys[k])
            if cached is None:
                miss.append(k)
            else:
                rows[k] = cached[::-1] if flipped[k] else cached
        if miss:
            fresh = super().profile_terrain_m(
                lat_a[miss], lon_a[miss], lat_b[miss], lon_b[miss], m
            )
            for row, k in zip(fresh, miss):
                self.profiles.put(keys[k], row[::-1] if flipped[k] else row)
                rows[k] = row
        return np.stack(rows) if rows else np.zeros((0, m))

    def ground_elevation_m(self, lats, lons):
        lats, lons = np.atleast_1d(lats), np.atleast_1d(lons)
        out, keys, miss = np.empty(len(lats)), [], []
        for k in range(len(lats)):
            keys.append(self._qpt(lats[k], lons[k]))
            cached = self.grounds.get(keys[k])
            if cached is None:
                miss.append(k)
            else:
                out[k] = cached
        if miss:
            fresh = super().ground_elevation_m(lats[miss], lons[miss])
            for value, k in zip(fresh, miss):
                self.grounds.put(keys[k], float(value))
                out[k] = value
        return out


def _reference_for(checker: CachingLosChecker) -> _PerRowReference:
    capacity = checker._profiles._budget
    return _PerRowReference(checker.terrain, _RowLru(capacity), _RowLru(4 * capacity))


def _assert_same_cache(checker: CachingLosChecker, ref: _PerRowReference):
    for new, old in ((checker._profiles, ref.profiles), (checker._grounds, ref.grounds)):
        assert (new.hits, new.misses) == (old.hits, old.misses)
        # Same entries in the same recency order, with bitwise-equal values.
        assert list(new._data) == list(old.data)
        for key, value in old.data.items():
            assert np.asarray(new._data[key]).tobytes() == np.asarray(value).tobytes()


def _run_both(checker, ref, lat_a, lon_a, lat_b, lon_b, m=7):
    for method, args in (
        ("profile_terrain_m", (lat_a, lon_a, lat_b, lon_b, m)),
        ("ground_elevation_m", (lat_a, lon_a)),
        ("ground_elevation_m", (lat_b, lon_b)),
    ):
        got = getattr(checker, method)(*args)
        want = getattr(ref, method)(*args)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), method
        _assert_same_cache(checker, ref)


def _keying_batches(seed: int):
    """Batches that exercise every keying corner, in one call sequence."""
    rng = np.random.default_rng(seed)
    q = QUANT_DEG
    lat_a, lon_a = rng.uniform(33.0, 45.0, 40), rng.uniform(-110.0, -80.0, 40)
    lat_b, lon_b = lat_a + rng.uniform(-0.4, 0.4, 40), lon_a + rng.uniform(-0.4, 0.4, 40)
    yield lat_a, lon_a, lat_b, lon_b  # random, all misses
    yield lat_b, lon_b, lat_a, lon_a  # reversed pairs: hits, flipped
    idx = rng.integers(0, 40, 60)
    fresh_a = lat_a + 0.01
    # Duplicate keys within one batch (both missed), mixed with hits.
    yield (np.r_[fresh_a[:5], fresh_a[:5], lat_a[idx]], np.r_[lon_a[:5], lon_a[:5], lon_a[idx]],
           np.r_[lat_b[:5], lat_b[:5], lat_b[idx]], np.r_[lon_b[:5], lon_b[:5], lon_b[idx]])
    # Endpoints within quant of each other: equal codes, or one equal axis.
    near = rng.uniform(-0.6, 0.6, (2, 30)) * q
    yield lat_a[:30] + 0.02, lon_a[:30], lat_a[:30] + 0.02 + near[0], lon_a[:30] + near[1]
    yield lat_a[:30] + 0.03, lon_a[:30], lat_a[:30] + 0.03, lon_a[:30] - rng.uniform(0, 1, 30)
    # Exact .5 ties of lat / quant (round-half-even decides the code).
    k = np.arange(350_000, 450_000, 1_001)
    ties = (k + 0.5) * q
    ties = ties[ties / q == k + 0.5]
    assert len(ties) >= 20
    n = len(ties)
    yield ties, lon_a[:1].repeat(n), ties[::-1] + 0.1, lon_a[1:2].repeat(n)
    yield lat_a, lon_a, lat_b, lon_b  # the first batch again, now partly evicted


class TestCachingKeyingOracle:
    """The array keying against a per-row oracle of the same cache."""

    @pytest.mark.parametrize("capacity", [200_000, 5])
    def test_matches_per_row_reference(self, capacity, monkeypatch):
        monkeypatch.setattr(pipeline_module, "PROFILE_CAPACITY", capacity)
        checker = CachingLosChecker(us_terrain(), LosConfig())
        ref = _reference_for(checker)
        for batch in _keying_batches(seed=capacity):
            _run_both(checker, ref, *batch)
        if capacity == 5:
            assert len(checker._profiles) == 5

    def test_shared_pipeline_pair_matches_shared_reference(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_SHARED_TERRAIN_CACHES", {})
        monkeypatch.setattr(pipeline_module, "PROFILE_CAPACITY", 50)
        first = shared_pipeline(us_terrain(), LosConfig()).checker
        second = shared_pipeline(us_terrain(), LosConfig(usable_height_fraction=0.85)).checker
        assert second._profiles is first._profiles
        assert first._profiles._budget == 50
        ref_first = _reference_for(first)
        ref_second = _PerRowReference(us_terrain(), ref_first.profiles, ref_first.grounds)
        batches = list(_keying_batches(seed=3))
        for i, batch in enumerate(batches):
            checker, ref = (first, ref_first) if i % 2 == 0 else (second, ref_second)
            _run_both(checker, ref, *batch)

    @pytest.mark.parametrize("checker_type", [LosChecker, CachingLosChecker])
    def test_empty_batch(self, checker_type):
        checker = checker_type(us_terrain())
        e = np.zeros(0)
        assert checker.profile_terrain_m(e, e, e, e, 9).shape == (0, 9)
        assert checker.ground_elevation_m(e, e).shape == (0,)

    @pytest.mark.parametrize("checker_type", [LosChecker, CachingLosChecker])
    def test_misaligned_coordinates_fail_by_name(self, checker_type):
        # Three latitudes, one longitude: the plain checker broadcast them
        # to shapes (3,) and (3, 9), the caching one raised IndexError.
        checker = checker_type(us_terrain())
        lats, lon = np.array([40.0, 40.1, 40.2]), np.array([-100.0])
        with pytest.raises(ValueError) as info:
            checker.ground_elevation_m(lats, lon)
        assert str(info.value) == (
            "coordinate arrays must be 1-D and of one length, got lats=3, lons=1"
        )
        with pytest.raises(ValueError) as info:
            checker.profile_terrain_m(lats, lon, lats + 0.5, lats - 100.5, 9)
        assert str(info.value) == (
            "endpoint arrays must be 1-D and of one length, "
            "got lat_a=3, lon_a=1, lat_b=3, lon_b=3"
        )
        with pytest.raises(ValueError) as info:
            checker.ground_elevation_m(40.0, -100.0)
        assert str(info.value) == (
            "coordinate arrays must be 1-D and of one length, "
            "got lats=shape (), lons=shape ()"
        )


class TestPairMemo:
    """Candidate pairs are memoized per range on the registry."""

    def test_memoized_read_only_and_exact(self):
        reg = TowerRegistry(random_towers(150, seed=21, spread=0.3))
        a, b = reg.pairs_within(80.0)
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
        # The same arrays serve every later ask at that range, the
        # pipeline's included.
        again = reg.pairs_within(80)
        assert again[0] is a and again[1] is b
        config = LosConfig(radio=RadioProfile(max_range_km=80.0))
        pipeline = HopPipeline(LosChecker(us_terrain(), config))
        assert pipeline.candidate_pairs(reg)[0] is a
        lats, lons = reg.coordinates()
        for max_range in (80.0, 40.0):
            got = reg.pairs_within(max_range)
            assert pair_set(*got) == pair_set(*brute_force_pairs_within(lats, lons, max_range))
        assert sorted(reg._pairs) == [40.0, 80.0]

    def test_pickles_and_copies_carry_no_memo(self):
        towers = random_towers(60, seed=22, spread=0.2)
        reg = TowerRegistry(towers)
        fresh = pickle.dumps(TowerRegistry(towers))
        a, b = reg.pairs_within(100.0)
        assert pickle.dumps(reg) == fresh
        for clone in (pickle.loads(fresh), copy.deepcopy(reg)):
            assert clone._pairs == {}
            ca, cb = clone.pairs_within(100.0)
            assert ca.tobytes() == a.tobytes() and cb.tobytes() == b.tobytes()

    def test_empty_registry(self):
        a, b = TowerRegistry([]).pairs_within(100.0)
        assert len(a) == len(b) == 0


class _RecordingChecker(CachingLosChecker):
    """Records each ground_elevation_m call as its list of cache keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ground_calls: list[list[tuple[int, int]]] = []

    def ground_elevation_m(self, lats, lons):
        ys, xs = self.ground_keys(np.atleast_1d(lats), np.atleast_1d(lons))
        self.ground_calls.append(list(zip(ys.tolist(), xs.tolist())))
        return super().ground_elevation_m(lats, lons)


class _ChunkLoopReference(_RecordingChecker):
    """Oracle: the group/chunk loop probing the ground cache per pair,
    one endpoint at a time (a chunk's a-ends, then its b-ends)."""

    def feasible_arrays(self, lat_a, lon_a, h_a, lat_b, lon_b, h_b):
        dist = np.atleast_1d(haversine_km(lat_a, lon_a, lat_b, lon_b))
        in_range = (dist <= self.config.radio.max_range_km) & (dist > 1e-6)
        result = np.zeros(len(dist), dtype=bool)
        samples = self.sample_count(dist)
        step = los_module.CHUNK_SIZE
        for m in np.unique(samples[in_range]):
            idx = np.flatnonzero(in_range & (samples == m))
            for start in range(0, len(idx), step):
                sl = idx[start : start + step]
                ends = [slice(i, i + 1) for i in sl]  # one endpoint per call
                ground_a = [self.ground_elevation_m(lat_a[e], lon_a[e])[0] for e in ends]
                ground_b = [self.ground_elevation_m(lat_b[e], lon_b[e])[0] for e in ends]
                result[sl] = self._feasible_at_samples(
                    lat_a[sl], lon_a[sl], h_a[sl], np.array(ground_a),
                    lat_b[sl], lon_b[sl], h_b[sl], np.array(ground_b),
                    dist[sl], int(m),
                )
        return result


class TestGroundLookups:
    """feasible_arrays looks each tower base up once per call."""

    def test_twin_towers_in_one_cell_match_per_endpoint_reference(self, monkeypatch):
        q = QUANT_DEG
        towers = random_towers(40, seed=31, spread=0.1)
        first = towers[0]
        # A second tower about 3 m away, inside the first one's
        # quantization cell: the two share one ground-cache key.
        twin = Tower(tower_id=40, lat=first.lat + 0.3 * q, lon=first.lon - 0.2 * q, height_m=150.0)
        codes = np.rint(np.array([[first.lat, first.lon], [twin.lat, twin.lon]]) / q)
        assert (codes[0] == codes[1]).all()
        terrain = us_terrain()
        exact = terrain.elevation_m(np.array([first.lat, twin.lat]), np.array([first.lon, twin.lon]))
        assert exact[0] != exact[1]
        reg = TowerRegistry(towers + [twin])
        cand_a, cand_b = reg.pairs_within(100.0)
        lats, lons = reg.coordinates()
        heights = np.array([t.height_m for t in reg])
        args = (
            lats[cand_a], lons[cand_a], heights[cand_a],
            lats[cand_b], lons[cand_b], heights[cand_b],
        )
        checker = _RecordingChecker(terrain, LosConfig())
        ref = _ChunkLoopReference(terrain, LosConfig())
        # One base cached before the first call: a hit at call start.
        for c in (checker, ref):
            c.ground_elevation_m(lats[5:6], lons[5:6])
        # Chunks of 7, one chunk per sample-count group, chunks of 3.
        for chunk_size in (7, len(cand_a), 3):
            monkeypatch.setattr(los_module, "CHUNK_SIZE", chunk_size)
            checker.ground_calls.clear()
            ref.ground_calls.clear()
            got = checker.feasible_arrays(*args)
            want = ref.feasible_arrays(*args)
            assert got.tobytes() == want.tobytes()
            for new, old in ((checker._grounds, ref._grounds), (checker._profiles, ref._profiles)):
                assert new._data.keys() == old._data.keys()
                for key, value in old._data.items():
                    assert np.asarray(new._data[key]).tobytes() == np.asarray(value).tobytes()
            # One lookup per call: each key once, in the loop's first-ask order.
            asked = [key for call in ref.ground_calls for key in call]
            assert checker.ground_calls == [list(dict.fromkeys(asked))]
        # 41 towers, 40 cache keys.
        assert len(checker._grounds) == len(reg) - 1

    def test_plain_checker_looks_each_base_up_once(self, monkeypatch):
        monkeypatch.setattr(los_module, "CHUNK_SIZE", 11)
        towers = random_towers(50, seed=32, spread=0.15)
        reg = TowerRegistry(towers)
        calls = []

        class Counting(LosChecker):
            def ground_elevation_m(self, lats, lons):
                calls.append(len(lats))
                return super().ground_elevation_m(lats, lons)

        checker = Counting(us_terrain(), LosConfig())
        pipeline = HopPipeline(checker)
        cand_a, cand_b = pipeline.candidate_pairs(reg)
        assert len(cand_a) > 11
        mask = pipeline.feasible_mask(reg, cand_a, cand_b)
        assert len(calls) == 1 and calls[0] == len(np.union1d(cand_a, cand_b))
        for i, j, verdict in zip(cand_a, cand_b, mask):
            assert bool(verdict) == los_verdicts(checker, [towers[i]], [towers[j]])[0]


class TestSolverRegistry:
    def test_all_five_backends_registered(self):
        assert solver_names() == [
            "evolution",
            "exhaustive",
            "heuristic",
            "ilp",
            "lp_rounding",
        ]
        for name in solver_names():
            assert isinstance(get_solver(name), Solver)

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="registered"):
            get_solver("simulated_annealing")

    def test_heuristic_matches_direct_call(self):
        design = make_toy_design(8, seed=8)
        direct = solve_heuristic(design, 60.0)
        via = solve(design, 60.0, backend="heuristic")
        assert isinstance(via, SolveOutcome)
        assert via.backend == "heuristic"
        assert via.topology.mw_links == direct.topology.mw_links
        assert via.objective == pytest.approx(direct.objective)

    def test_ilp_matches_direct_call(self):
        design = make_toy_design(7, seed=3)
        direct = solve_ilp(design, 50.0)
        via = solve(design, 50.0, backend="ilp")
        assert via.topology.mw_links == direct.topology.mw_links
        assert via.objective == pytest.approx(direct.objective)
        assert via.details.n_variables == direct.n_variables

    def test_lp_rounding_matches_direct_call(self):
        design = make_toy_design(7, seed=5)
        direct = solve_lp_rounding(design, 50.0)
        via = solve(design, 50.0, backend="lp_rounding")
        assert via.topology.mw_links == direct.topology.mw_links
        assert via.objective == pytest.approx(direct.objective)

    def test_exhaustive_matches_direct_call(self):
        design = make_toy_design(5, seed=1)
        direct = solve_exhaustive(design, 40.0)
        via = solve(design, 40.0, backend="exhaustive")
        assert via.topology.mw_links == direct.mw_links
        assert via.objective == pytest.approx(direct.mean_stretch())

    def test_evolution_matches_greedy_prefix(self):
        design = make_toy_design(8, seed=8)
        budget = 70.0
        via = solve(design, budget, backend="evolution")
        steps = greedy_sequence(design, budget)
        links, spent = set(), 0.0
        for step in steps:
            if spent + step.cost_towers <= budget:
                links.add(step.link)
                spent += step.cost_towers
        assert via.topology.mw_links == frozenset(links)
        assert via.details == tuple(steps)

    def test_runtime_recorded(self):
        design = make_toy_design(6, seed=2)
        for name in ("heuristic", "lp_rounding", "evolution"):
            outcome = solve(design, 40.0, backend=name)
            assert outcome.runtime_s >= 0.0
