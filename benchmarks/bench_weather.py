"""Weather-loop gate: vectorized + memoized yearly analysis >= 5x, same bits.

Before the shared :class:`repro.weather.YearlyWeatherEvaluator`, every
sampled interval of the §6.1 yearly analysis paid (a) one scalar
``path_attenuation_db`` call *per hop* (the ITU-R coefficient
interpolation re-run every time), and (b) one full all-pairs re-solve
per interval with failures; the graded comparison additionally rebuilt
the whole storm field once per link per day.  The evaluator inverts the
attenuation once per hop into critical rain rates (failure detection
becomes one vectorized comparison), builds each day's storm field once
for all hops, and memoizes the all-pairs solve per *distinct*
failed-link set through ``GraphView.distances_with_edges_removed``.

The baselines below embed the pre-evaluator code verbatim so the
comparison stays honest as the library evolves.  The evaluators are
pinned to ``delta_k=0`` (the memo-only route), whose matrices are
bit-identical to the baseline's; the delta-reuse route added on top is
gated separately — to <= 1e-9 and >= 10x on a storm-track workload — by
``bench_storm_track.py``.  Gates:

1. the evaluator path must be >= 5x faster than the per-interval
   re-solve baseline on a 120-interval yearly analysis;
2. every ``YearlyStretchResult`` array must be **bit-identical** to the
   baseline's (best / p99 / worst / fiber / links-failed-per-interval);
3. the graded comparison's stretch arrays must be bit-identical too
   (same failure decisions), with the capacity-loss fraction matching
   to float tolerance (its mean is now computed vectorized).

Storm-field rows are shared by every evaluator in the process, so the
graded evaluator starts with the rows the binary evaluator built: its
printed speedup includes those skipped builds.  The binary gate times
the first evaluator, which still builds its own rows.

Each run appends to the ``BENCH_weather.json`` perf trajectory.
"""

import time

import numpy as np

from repro.core import solve_heuristic
from repro.scenarios import us_scenario
from repro.weather import (
    PrecipitationYear,
    YearlyWeatherEvaluator,
    graded_capacity_fraction,
    graded_yearly_comparison,
    link_hop_segments,
    path_attenuation_db,
    yearly_stretch_analysis,
)
from repro.weather.failures import distances_with_failures, failed_links

from _support import report, write_bench_json

#: Acceptance threshold (see module docstring).
MIN_SPEEDUP = 5.0

#: Workload: a mid-size US design, the paper's 120-interval sampled year.
N_SITES = 40
BUDGET_TOWERS = 1500.0
N_INTERVALS = 120
SEED = 7

#: Tolerance for the (vectorized-mean) capacity-loss parity check.
RTOL = 1e-12


# --------------------------------------------------------------------------
# The embedded pre-evaluator baselines (verbatim seed semantics).
# --------------------------------------------------------------------------


def seed_yearly_stretch_analysis(
    topology, catalog, registry, precipitation, n_intervals, fade_margin_db, seed
):
    """The pre-evaluator binary loop: one full re-solve per interval."""
    rng = np.random.default_rng(seed)
    days = rng.choice(np.arange(1, 366), size=n_intervals, replace=n_intervals > 365)
    design = topology.design
    geo = design.geodesic_km
    iu = np.triu_indices(design.n_sites, k=1)
    valid = geo[iu] > 0

    def stretches(dist):
        return (dist[iu] / geo[iu])[valid]

    best = stretches(topology.effective_distance_matrix())
    fiber = stretches(design.fiber_km)
    segments = link_hop_segments(topology, catalog, registry)

    per_interval = np.empty((n_intervals, valid.sum()))
    n_failed = np.zeros(n_intervals, dtype=int)
    for k, day in enumerate(days):
        failed = failed_links(
            segments, precipitation, int(day), fade_margin_db=fade_margin_db
        )
        n_failed[k] = len(failed)
        if failed:
            per_interval[k] = stretches(distances_with_failures(topology, failed))
        else:
            per_interval[k] = best
    return {
        "best": best,
        "p99": np.percentile(per_interval, 99, axis=0),
        "worst": per_interval.max(axis=0),
        "fiber": fiber,
        "links_failed_per_interval": n_failed,
    }


def seed_graded_comparison(
    topology, catalog, registry, precipitation, n_intervals, seed
):
    """The pre-evaluator graded loop: one storm field per link per day."""
    soft_margin_db, hard_margin_db = 18.0, 40.0
    rng = np.random.default_rng(seed)
    days = rng.choice(np.arange(1, 366), size=n_intervals, replace=n_intervals > 365)
    segments = link_hop_segments(topology, catalog, registry)
    design = topology.design
    geo = design.geodesic_km
    iu = np.triu_indices(design.n_sites, k=1)
    valid = geo[iu] > 0

    def stretches(dist):
        return (dist[iu] / geo[iu])[valid]

    best = stretches(topology.effective_distance_matrix())
    per_interval = np.empty((n_intervals, int(valid.sum())))
    capacity_losses = []
    for k, day in enumerate(days):
        failed = set()
        for link, hops in segments.items():
            if not hops:
                continue
            lats = np.array([h[0] for h in hops])
            lons = np.array([h[1] for h in hops])
            rain = precipitation.rain_rate_mm_h(int(day), lats, lons)
            fractions = []
            for (lat, lon, hop_km), r in zip(hops, rain):
                att = path_attenuation_db(hop_km, float(r))
                fractions.append(
                    graded_capacity_fraction(att, soft_margin_db, hard_margin_db)
                )
            link_fraction = min(fractions)
            capacity_losses.append(1.0 - link_fraction)
            if link_fraction <= 0.0:
                failed.add(link)
        if failed:
            per_interval[k] = stretches(distances_with_failures(topology, failed))
        else:
            per_interval[k] = best
    return {
        "graded_p99": np.percentile(per_interval, 99, axis=0),
        "graded_worst": per_interval.max(axis=0),
        "capacity_loss_fraction": float(np.mean(capacity_losses)),
    }


def main() -> None:
    scenario = us_scenario(n_sites=N_SITES)
    t0 = time.perf_counter()
    topology = solve_heuristic(
        scenario.design_input(), BUDGET_TOWERS, ilp_refinement=False
    ).topology
    t_design = time.perf_counter() - t0
    precipitation = PrecipitationYear()
    topology.effective_distance_matrix()  # warm the memo for both paths

    # -- binary yearly analysis ------------------------------------------
    t0 = time.perf_counter()
    base = seed_yearly_stretch_analysis(
        topology, scenario.catalog, scenario.registry, precipitation,
        N_INTERVALS, 30.0, SEED,
    )
    t_baseline = time.perf_counter() - t0

    t0 = time.perf_counter()
    # delta_k=0 pins the memo-only route: this gate's contract is
    # bit-identical arrays vs the pre-evaluator baseline.
    result = yearly_stretch_analysis(
        topology, scenario.catalog, scenario.registry,
        precipitation=precipitation, n_intervals=N_INTERVALS, seed=SEED,
        evaluator=YearlyWeatherEvaluator(
            topology, scenario.catalog, scenario.registry,
            precipitation=precipitation, delta_k=0,
        ),
    )
    t_new = time.perf_counter() - t0
    speedup = t_baseline / t_new if t_new > 0 else float("inf")

    identical = {
        name: bool(np.array_equal(base[name], getattr(result, name)))
        for name in ("best", "p99", "worst", "fiber", "links_failed_per_interval")
    }

    # -- graded comparison ------------------------------------------------
    t0 = time.perf_counter()
    graded_base = seed_graded_comparison(
        topology, scenario.catalog, scenario.registry, precipitation,
        N_INTERVALS, SEED,
    )
    t_graded_baseline = time.perf_counter() - t0

    t0 = time.perf_counter()
    graded = graded_yearly_comparison(
        topology, scenario.catalog, scenario.registry,
        precipitation=precipitation, n_intervals=N_INTERVALS, seed=SEED,
        evaluator=YearlyWeatherEvaluator(
            topology, scenario.catalog, scenario.registry,
            precipitation=precipitation, delta_k=0,
        ),
    )
    t_graded_new = time.perf_counter() - t0
    graded_speedup = (
        t_graded_baseline / t_graded_new if t_graded_new > 0 else float("inf")
    )

    graded_identical = {
        "graded_p99": bool(np.array_equal(graded_base["graded_p99"], graded.graded_p99)),
        "graded_worst": bool(
            np.array_equal(graded_base["graded_worst"], graded.graded_worst)
        ),
    }
    loss_diff = abs(
        graded_base["capacity_loss_fraction"] - graded.capacity_loss_fraction
    )

    n_failure_intervals = int((result.links_failed_per_interval > 0).sum())
    lines = [
        f"workload                 {N_SITES} sites, "
        f"{len(topology.mw_links)} MW links, {N_INTERVALS} intervals "
        f"(design solve: {t_design:.1f} s)",
        f"binary baseline          {t_baseline:8.3f} s  "
        f"(scalar attenuation per hop, one re-solve per interval)",
        f"binary evaluator         {t_new:8.3f} s  "
        f"(critical-rate comparison, failure-set memo)",
        f"binary speedup           {speedup:8.1f} x  (gate: >= {MIN_SPEEDUP:.0f}x)",
        f"graded baseline          {t_graded_baseline:8.3f} s  "
        f"(storm field per link per day)",
        f"graded evaluator         {t_graded_new:8.3f} s  "
        f"(storm rows from the binary run, shared solve cache)",
        f"graded speedup           {graded_speedup:8.1f} x  "
        f"(with shared storm rows)",
        f"intervals with failures  {n_failure_intervals}/{N_INTERVALS}",
        f"arrays bit-identical     {identical}",
        f"graded bit-identical     {graded_identical}",
        f"capacity-loss |diff|     {loss_diff:.2e}  (gate: <= {RTOL:.0e})",
    ]
    report("weather", lines)

    for name, same in {**identical, **graded_identical}.items():
        assert same, f"{name} diverged from the pre-evaluator baseline"
    assert loss_diff <= RTOL, (
        f"capacity-loss fraction diverged: |diff| {loss_diff:.2e} > {RTOL:.0e}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"weather evaluator speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate"
    )

    write_bench_json(
        "weather",
        {
            "sites": N_SITES,
            "mw_links": len(topology.mw_links),
            "intervals": N_INTERVALS,
            "failure_intervals": n_failure_intervals,
            "binary_baseline_s": round(t_baseline, 4),
            "binary_evaluator_s": round(t_new, 4),
            "binary_speedup": round(speedup, 2),
            "graded_baseline_s": round(t_graded_baseline, 4),
            "graded_evaluator_s": round(t_graded_new, 4),
            "graded_speedup": round(graded_speedup, 2),
        },
    )
    print("weather gate: PASS")


if __name__ == "__main__":
    main()
