"""Storm-track gate: delta-reuse failure-set solver >= 10x, <= 1e-9.

PR 5's ``YearlyWeatherEvaluator`` memoizes whole failure *sets*: every
distinct failed-link frozenset still pays one full dense all-pairs
solve.  A storm track breaks that memo in the worst way — the failed
set changes by one or two links *every day*, so a daily-resolution
year produces hundreds of distinct sets that are all near-identical.
The ``FailureSetSolver`` behind ``delta_k > 0`` answers those from
cached neighbors instead: supersets restore down by exact O(n^2)
insertion rules, gated removal restarts fall back to one padded
*union* solve per newly seen link, and everything else is a memo hit.

Workload: a synthetic 320-site continental backbone (the ``Topology``
is constructed directly — no design solve — with fiber at a flat
1.5x geodesic stretch and a 3-nearest-neighbor MW mesh, the same
shape the Europe scenario uses) and a year of storm-track failure
sets: a rain band sits over a longitude-sorted corridor of 12 MW
links, flips one or two links per day inside its 10-link window, and
drifts slowly eastward.  Consecutive sets differ by <= 2 links —
the regime the delta route is built for — yet the year still holds
~300 *distinct* sets, so the memo-only evaluator pays ~300 full
solves where the delta evaluator pays roughly one per corridor link.

Both evaluators run the *same* query stream interleaved day by day,
each timed separately.  On a shared single-vCPU runner the host's
clock speed drifts minute to minute; interleaving keeps both sides
inside the same drift so the *ratio* stays honest (back-to-back runs
were seen swinging ~2x on wall-clock while the interleaved ratio held
steady).  Gates:

1. the ``delta_k=2`` evaluator must be >= 10x faster than the
   ``delta_k=0`` (PR 5 memo-only) evaluator over the 365-day stream;
2. every daily stretch row must match the memo-only row to <= 1e-9
   relative — the delta route's accuracy contract;
3. the delta route must actually carry the year: full solves stay
   within a handful of the corridor's link count (one padded union
   solve per newly seen link, not one per distinct set).

Each run appends to the ``BENCH_weather.json`` perf trajectory.
"""

import gc
import time

import numpy as np

from repro.core.topology import DesignInput, Topology
from repro.datasets.sites import Site
from repro.geo.coords import pairwise_distance_matrix
from repro.graph import whatif
from repro.links.builder import CandidateLink, LinkCatalog
from repro.towers.registry import Tower, TowerRegistry
from repro.traffic.matrices import population_product_matrix
from repro.weather import YearlyWeatherEvaluator

from _support import report, write_bench_json

#: Acceptance threshold (see module docstring).
MIN_SPEEDUP = 10.0

#: Stretch-row parity tolerance for the delta route (relative).
RTOL = 1e-9

#: Workload: continental scale, one failure set per day for a year.
N_SITES = 320
N_DAYS = 365
CORRIDOR_LINKS = 12
STORM_WIDTH = 10
P_ADVANCE = 0.02
SEED = 821

#: Solver tuning under test: the default neighbor radius, and a cache
#: large enough that neither side evicts.
DELTA_K = 2
CACHE_MB = 1024.0

#: Full solves may exceed the corridor's link count only by this much
#: (the base solve plus a couple of cold-start unions).
FULL_SOLVE_SLACK = 4


def synthetic_continental(
    n_sites: int, seed: int = SEED, neighbors: int = 3
) -> tuple[Topology, LinkCatalog, TowerRegistry]:
    """A continental-scale hybrid topology, built without a design solve.

    Random sites across the continental US envelope, fiber at a flat
    1.5x geodesic stretch, and a MW overlay connecting each site to
    its ``neighbors`` nearest peers at geodesic length.  The fabricated
    catalog/registry give every link one two-tower hop — enough for
    the evaluator's bookkeeping; the benchmark feeds failure sets
    directly, so no rain physics runs.
    """
    rng = np.random.default_rng(seed)
    lats = rng.uniform(28.0, 47.0, n_sites)
    lons = rng.uniform(-122.0, -71.0, n_sites)
    pops = rng.integers(50_000, 5_000_000, n_sites)
    sites = tuple(
        Site(f"s{i:03d}", float(lats[i]), float(lons[i]), int(pops[i]))
        for i in range(n_sites)
    )
    geo = pairwise_distance_matrix(list(lats), list(lons))
    fiber = 1.5 * geo
    np.fill_diagonal(fiber, 0.0)
    links: set[tuple[int, int]] = set()
    order = np.argsort(geo, axis=1)
    for a in range(n_sites):
        for b in order[a, 1 : neighbors + 1]:
            links.add((min(a, int(b)), max(a, int(b))))
    mw = np.full_like(geo, np.inf)
    cost = np.full_like(geo, np.inf)
    catalog_links = {}
    for a, b in sorted(links):
        mw[a, b] = mw[b, a] = geo[a, b]
        cost[a, b] = cost[b, a] = 2.0
        catalog_links[(a, b)] = CandidateLink(a, b, float(geo[a, b]), 2, (a, b))
    design = DesignInput(
        sites=sites,
        traffic=population_product_matrix(list(sites)),
        geodesic_km=geo,
        mw_km=mw,
        cost_towers=cost,
        fiber_km=fiber,
    )
    catalog = LinkCatalog(
        n_sites=n_sites, links=catalog_links, mw_km=mw, cost_towers=cost
    )
    registry = TowerRegistry(
        [Tower(i, float(lats[i]), float(lons[i]), 60.0) for i in range(n_sites)]
    )
    return Topology(design=design, mw_links=frozenset(links)), catalog, registry


def storm_track_sets(
    topology: Topology,
    seed: int = SEED,
    corridor_len: int = CORRIDOR_LINKS,
    width: int = STORM_WIDTH,
    p_adv: float = P_ADVANCE,
    n_days: int = N_DAYS,
) -> list[frozenset]:
    """One failure set per day from a slowly drifting storm band.

    The corridor is the ``corridor_len`` most central MW links by
    longitude; the storm occupies a ``width``-link window that flips
    one or two member links per day and advances east with probability
    ``p_adv``.  A link stranded behind the departing window recovers
    before anything else flips, so consecutive sets never differ by
    more than two links.
    """
    rng = np.random.default_rng(seed)

    def mid_lon(link):
        a, b = link
        sa, sb = topology.design.sites[a], topology.design.sites[b]
        return (sa.lon + sb.lon) / 2.0

    corridor = sorted(topology.mw_links, key=mid_lon)
    start = (len(corridor) - corridor_len) // 2
    corridor = corridor[start : start + corridor_len]
    max_p = corridor_len - width
    p = 0
    current: set = set()
    out: list[frozenset] = []
    for _ in range(n_days):
        window = corridor[p : p + width]
        flips = []
        if p_adv > 0 and rng.random() < p_adv and p < max_p:
            p += 1
            window = corridor[p : p + width]
        stranded = sorted(set(current) - set(window))
        if stranded:
            flips.append(stranded[0])
        k = int(rng.integers(0 if flips else 1, 3 - len(flips)))
        for i in rng.choice(width, size=k, replace=False):
            flips.append(window[int(i)])
        for link in flips:
            current.symmetric_difference_update([link])
        out.append(frozenset(current))
    return out


def main() -> None:
    t0 = time.perf_counter()
    topology, catalog, registry = synthetic_continental(N_SITES)
    topology.effective_distance_matrix()  # warm the shared base solve
    t_build = time.perf_counter() - t0

    sets = storm_track_sets(topology)
    distinct = len(set(sets))
    corridor_links = len(set().union(*sets))
    max_step = max(len(a ^ b) for a, b in zip(sets, sets[1:]))
    assert max_step <= 2, f"storm track stepped {max_step} links in one day"

    memo = YearlyWeatherEvaluator(
        topology, catalog, registry, delta_k=0, cache_mb=CACHE_MB
    )
    delta = YearlyWeatherEvaluator(
        topology, catalog, registry, delta_k=DELTA_K, cache_mb=CACHE_MB
    )

    t_memo = t_delta = 0.0
    max_err = 0.0
    for failed in sets:
        t0 = time.perf_counter()
        want = memo.stretches_for(failed)
        t_memo += time.perf_counter() - t0
        t0 = time.perf_counter()
        got = delta.stretches_for(failed)
        t_delta += time.perf_counter() - t0
        err = float(
            np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
        )
        max_err = max(max_err, err)
    speedup = t_memo / t_delta if t_delta > 0 else float("inf")

    memo_stats = memo.solver.stats()
    delta_stats = delta.solver.stats()
    del memo, delta
    gc.collect()

    lines = [
        f"workload                 {N_SITES} sites, {N_DAYS} daily sets, "
        f"{distinct} distinct, {corridor_links}-link corridor "
        f"(topology build: {t_build:.2f} s)",
        f"memo-only evaluator      {t_memo:8.3f} s  "
        f"(delta_k=0: one full solve per distinct set, "
        f"{memo_stats['full_solves']} full solves)",
        f"delta evaluator          {t_delta:8.3f} s  "
        f"(delta_k={DELTA_K}, RESTORE_K={whatif.RESTORE_K}: "
        f"{delta_stats['full_solves']} full / "
        f"{delta_stats['delta_solves']} delta / "
        f"{delta_stats['memo_hits']} memo, "
        f"{delta_stats['union_solves']} union promotions)",
        f"speedup                  {speedup:8.1f} x  (gate: >= {MIN_SPEEDUP:.0f}x)",
        f"stretch parity           {max_err:.2e}  (gate: <= {RTOL:.0e})",
        f"delta cache              {delta_stats['cached_sets']} sets, "
        f"{delta_stats['cache_bytes'] / 2**20:.0f} MiB held, "
        f"{delta_stats['evictions']} evictions",
    ]
    report("storm_track", lines)

    assert max_err <= RTOL, (
        f"delta-route stretch parity {max_err:.2e} exceeds {RTOL:.0e}"
    )
    assert memo_stats["full_solves"] == distinct, (
        f"memo-only baseline solved {memo_stats['full_solves']} != "
        f"{distinct} distinct sets — baseline is not PR 5 behavior"
    )
    max_fulls = corridor_links + FULL_SOLVE_SLACK
    assert delta_stats["full_solves"] <= max_fulls, (
        f"delta route paid {delta_stats['full_solves']} full solves "
        f"(> {max_fulls}); the storm track should cost about one per "
        f"corridor link"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"storm-track speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate"
    )

    write_bench_json(
        "weather",
        {
            "storm_sites": N_SITES,
            "storm_days": N_DAYS,
            "storm_distinct_sets": distinct,
            "storm_corridor_links": corridor_links,
            "storm_memo_s": round(t_memo, 4),
            "storm_delta_s": round(t_delta, 4),
            "storm_speedup": round(speedup, 2),
            "storm_parity": float(f"{max_err:.3e}"),
            "storm_full_solves": delta_stats["full_solves"],
            "storm_delta_solves": delta_stats["delta_solves"],
            "storm_memo_hits": delta_stats["memo_hits"],
            "storm_union_solves": delta_stats["union_solves"],
        },
    )
    print("storm-track gate: PASS")


if __name__ == "__main__":
    main()
