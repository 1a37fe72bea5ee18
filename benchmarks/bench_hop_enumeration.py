"""Hop-enumeration gate: what the candidate-hop pipeline claims, checked.

The pipeline claims two things.  Spatial pruning hands the LoS check
only the pairs within radio range, never the n(n-1)/2 pairs of the
field.  Its caching checker samples each terrain profile and tower base
once, so a re-enumeration over the same field does no terrain work.

On a 500-tower continental field this gate checks that the pipeline,
cold and warm, finds exactly the hop set of the brute-force path (every
pair through one ``LosChecker.feasible_arrays`` call), that at most
1 % of all pairs reach the pipeline's LoS check, and that the warm run
reads every profile from the cache and adds no profile or tower-base
miss.  Timings are printed but not gated: ``feasible_arrays`` discards
out-of-range pairs before any terrain sampling, so at this size the
brute force costs about what the cold pipeline does.
"""

import time

import numpy as np

from repro.core.pipeline import CachingLosChecker, HopPipeline
from repro.geo.terrain import us_terrain
from repro.towers.los import LosChecker, LosConfig
from repro.towers.registry import Tower, TowerRegistry

from _support import report

N_TOWERS = 500

#: Most pairs of the field that may reach the LoS check (acceptance bar).
MAX_CHECKED_FRACTION = 0.01


def _continental_registry(n: int = N_TOWERS, seed: int = 1234) -> TowerRegistry:
    """A random US-scale tower field (paper-like densities)."""
    rng = np.random.default_rng(seed)
    towers = [
        Tower(
            tower_id=i,
            lat=float(rng.uniform(30.0, 48.0)),
            lon=float(rng.uniform(-120.0, -75.0)),
            height_m=float(rng.uniform(60.0, 180.0)),
            source="fcc",
        )
        for i in range(n)
    ]
    return TowerRegistry(towers)


class _CountingChecker(CachingLosChecker):
    """A caching checker that counts the pairs the pipeline hands it."""

    pairs_checked = 0

    def feasible_arrays(self, lat_a, *rest):
        self.pairs_checked += len(lat_a)
        return super().feasible_arrays(lat_a, *rest)


def _brute_force_hops(registry: TowerRegistry, checker: LosChecker) -> set[tuple[int, int]]:
    """Every O(n^2) pair through one batch check — no spatial pruning."""
    a, b = np.triu_indices(len(registry), k=1)
    lats, lons = registry.coordinates()
    heights = np.array([t.height_m for t in registry])
    ok = checker.feasible_arrays(lats[a], lons[a], heights[a], lats[b], lons[b], heights[b])
    return {(int(i), int(j)) for i, j in zip(a[ok], b[ok])}


def _hop_set(graph) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in zip(graph.edges_a, graph.edges_b)}


def run_comparison(n_towers: int = N_TOWERS) -> dict:
    registry = _continental_registry(n_towers)
    terrain = us_terrain()
    config = LosConfig()

    t0 = time.perf_counter()
    brute_hops = _brute_force_hops(registry, LosChecker(terrain, config))
    brute_s = time.perf_counter() - t0

    checker = _CountingChecker(terrain, config)
    pipeline = HopPipeline(checker)
    t0 = time.perf_counter()
    cold_hops = _hop_set(pipeline.enumerate_hops(registry))
    cold_s = time.perf_counter() - t0
    pairs_checked = checker.pairs_checked
    cold = checker.cache_stats()

    t0 = time.perf_counter()
    warm_hops = _hop_set(pipeline.enumerate_hops(registry))
    warm_s = time.perf_counter() - t0
    warm = checker.cache_stats()

    assert cold_hops == brute_hops, (
        f"hop sets differ: pipeline {len(cold_hops)} vs brute force {len(brute_hops)}"
    )
    assert warm_hops == cold_hops, "warm re-enumeration changed the hop set"
    return {
        "n_towers": n_towers,
        "all_pairs": n_towers * (n_towers - 1) // 2,
        "pairs_checked": pairs_checked,
        "feasible_hops": len(cold_hops),
        "brute_s": brute_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold": cold,
        "warm": warm,
    }


def bench_hop_enumeration():
    r = run_comparison()
    cold, warm = r["cold"], r["warm"]
    profiles = cold["profile_hits"] + cold["profile_misses"]
    rows = [
        "path                 pairs_checked  feasible  runtime_s",
        f"brute force          {r['all_pairs']:13d}  {r['feasible_hops']:8d}  {r['brute_s']:9.3f}",
        f"pipeline (cold)      {r['pairs_checked']:13d}  {r['feasible_hops']:8d}  {r['cold_s']:9.3f}",
        f"pipeline (warm)      {r['pairs_checked']:13d}  {r['feasible_hops']:8d}  {r['warm_s']:9.3f}",
        f"hop sets identical across all three paths "
        f"({r['feasible_hops']} hops over {r['n_towers']} towers)",
        f"pairs reaching the pipeline's LoS check: {r['pairs_checked']} of "
        f"{r['all_pairs']} ({r['pairs_checked'] / r['all_pairs']:.2%})",
        f"terrain cache after cold: {cold['profile_misses']} profile / "
        f"{cold['ground_misses']} tower-base misses; after warm: "
        f"{warm['profile_misses']} / {warm['ground_misses']} misses, "
        f"{warm['profile_hits'] - cold['profile_hits']} profile hits",
    ]
    report("hop_enumeration", rows)
    assert r["pairs_checked"] <= MAX_CHECKED_FRACTION * r["all_pairs"], (
        f"{r['pairs_checked']} of {r['all_pairs']} pairs reached the LoS check, "
        f"above the {MAX_CHECKED_FRACTION:.0%} bar"
    )
    assert profiles > 0, "the cold run sampled no terrain profile"
    assert (warm["profile_misses"], warm["ground_misses"]) == (
        cold["profile_misses"], cold["ground_misses"]
    ), "the warm re-enumeration missed the terrain cache"
    assert warm["profile_hits"] - cold["profile_hits"] == profiles, (
        "the warm re-enumeration did not read every profile from the cache"
    )


if __name__ == "__main__":
    bench_hop_enumeration()
