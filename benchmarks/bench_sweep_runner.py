"""Sweep warm-cache gate: warm sweeps >= 3x over the pre-PR sequential path.

Before the orchestration layer, composed sweeps were wired by hand:
every (budget, load) point re-solved the topology design from scratch
and re-ran the evaluation, the way ``repro netsim`` did per invocation
(the substrate was rebuilt per *process*, too — this baseline is
generous and hands it the in-process scenario cache for free).

A :class:`repro.exp.SweepService` sweep (inline, ``jobs=1``, journaling
every point) memoizes each stage in the content-addressed artifact
store, so a warm rerun of the whole two-axis (budget x load) sweep
reduces to store reads.  Gates:

1. the warm sweep must be >= 3x faster than the sequential baseline,
   each side timed as the median per-run time of ``BATCHES`` batches of
   ``BATCH_RUNS`` back-to-back runs, batches interleaved with the
   other side's and alternating which goes first (a single ~15 ms warm
   run is too short to divide by on a noisy host), with the objects
   built before timing frozen out of the garbage collector (see
   :func:`per_run_medians`);
2. cold and warm sweep records must be byte-identical, and the warm run
   must execute zero substrate/design stages (all cache hits);
3. a ``jobs=4`` warm run must produce byte-identical records to
   ``jobs=1`` (parallelism never changes results);
4. the sweep's netsim metrics must equal the baseline's — the
   orchestration layer composes the same experiment, it does not
   remodel it.

Each run appends to the ``BENCH_sweep_runner.json`` perf trajectory.
"""

import gc
import os
import statistics
import tempfile
import time

from repro.core import solve_heuristic
from repro.exp import (
    ArtifactStore,
    DesignSpec,
    ExperimentSpec,
    NetsimSpec,
    ScenarioSpec,
    SweepService,
)
from repro.netsim import run_udp_experiment
from repro.scenarios import us_scenario

from _support import report, write_bench_json

#: Acceptance threshold (see module docstring).
MIN_WARM_SPEEDUP = 3.0

#: Timing: each side's per-run time is the median over BATCHES batches
#: of BATCH_RUNS runs.
BATCHES = 5
BATCH_RUNS = 5

#: The two-axis workload: a Fig 4a-style budget sweep crossed with a
#: Fig 5-style load sweep, on the 20-city US scenario.
N_SITES = 20
AGGREGATE_GBPS = 100.0
BUDGETS = (400.0, 800.0, 1200.0)
LOADS = (0.3, 0.6, 0.9)
ENGINE = "fluid"
SEED = 0

AXES = {
    "design.budget_towers": list(BUDGETS),
    "netsim.loads": [(load,) for load in LOADS],
}


def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(name="us", sites=N_SITES, seed=42),
        design=DesignSpec(
            budget_towers=BUDGETS[0],
            solver="heuristic",
            aggregate_gbps=AGGREGATE_GBPS,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(loads=(LOADS[0],), engine=ENGINE, seed=SEED),
    )


def run_sequential_baseline(scenario) -> list[dict]:
    """The pre-PR composition: re-solve the design at every budget."""
    rows = []
    for budget in BUDGETS:
        topology = solve_heuristic(
            scenario.design_input(), budget, ilp_refinement=False
        ).topology
        for load in LOADS:
            res = run_udp_experiment(
                topology,
                AGGREGATE_GBPS,
                load,
                seed=SEED,
                engine=ENGINE,
            )
            rows.append(
                {
                    "budget_towers": budget,
                    "load": load,
                    "mean_delay_ms": float(res.mean_delay_ms),
                    "loss_rate": float(res.loss_rate),
                    "max_link_utilization": float(res.max_link_utilization),
                }
            )
    return rows


def netsim_rows(records: list[dict]) -> list[dict]:
    return [
        {
            "budget_towers": row["design.budget_towers"],
            "load": row["load"],
            "mean_delay_ms": row["mean_delay_ms"],
            "loss_rate": row["loss_rate"],
            "max_link_utilization": row["max_link_utilization"],
        }
        for row in records
        if row["stage"] == "netsim"
    ]


def per_run_medians(base_fn, variant_fn) -> tuple[float, float]:
    """Median per-run wall time of each side over interleaved batches.

    Everything alive before timing (the imported modules, the us-20
    scenario and its terrain caches) is frozen out of the garbage
    collector first.  Otherwise each full collection rescans it, about
    40 ms a scan on a 2-vCPU host, and the warm sweep, whose unpickling
    allocates the most objects, triggers one every few runs: a cost of
    this process's heap, not of either side's work.
    """
    samples: dict[str, list[float]] = {"base": [], "variant": []}
    gc.collect()
    gc.freeze()
    try:
        for i in range(BATCHES):
            order = ("base", "variant") if i % 2 == 0 else ("variant", "base")
            for side in order:
                fn = base_fn if side == "base" else variant_fn
                t0 = time.perf_counter()
                for _ in range(BATCH_RUNS):
                    fn()
                samples[side].append((time.perf_counter() - t0) / BATCH_RUNS)
    finally:
        gc.unfreeze()
    return statistics.median(samples["base"]), statistics.median(
        samples["variant"]
    )


def bench_sweep_runner(benchmark=None):
    # Build the substrate up front so the sequential baseline gets it
    # for free (pre-PR CLI runs actually rebuilt it per process).
    scenario = us_scenario(n_sites=N_SITES, seed=42)
    baseline_rows = run_sequential_baseline(scenario)

    store_root = os.environ.get("REPRO_ARTIFACT_DIR")
    tmp = None
    if store_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        store_root = tmp.name
    store = ArtifactStore(store_root)

    spec = base_spec()
    t0 = time.perf_counter()
    cold = SweepService(spec, AXES, store=store, jobs=1).run()
    t_cold = time.perf_counter() - t0

    # A *fresh* store instance models a new session over the same cache
    # directory: every artifact comes off disk (once — the per-process
    # memory layer dedups the nine points' shared substrate/designs).
    def warm_sweep():
        return SweepService(
            spec, AXES, store=ArtifactStore(store_root), jobs=1
        ).run()

    warm = warm_sweep()
    t_seq, t_warm = per_run_medians(
        lambda: run_sequential_baseline(scenario), warm_sweep
    )

    warm_parallel = SweepService(
        spec, AXES, store=ArtifactStore(store_root), jobs=4
    ).run()

    speedup = t_seq / t_warm if t_warm > 0 else float("inf")
    n_points = len(BUDGETS) * len(LOADS)
    rows = [
        "sweep warm-cache gate (SweepService inline, two-axis budget x load sweep)",
        f"workload: us-{N_SITES}, {len(BUDGETS)} budgets x {len(LOADS)} loads "
        f"= {n_points} points, engine={ENGINE}",
        f"sequential pre-PR path   {t_seq:8.3f} s  "
        f"(median per run, {BATCHES} batches x {BATCH_RUNS})",
        f"sweep cold (fills cache) {t_cold:8.3f} s  (one run)",
        f"sweep warm               {t_warm:8.3f} s  "
        f"(median per run, {BATCHES} batches x {BATCH_RUNS})",
        f"warm speedup             {speedup:8.1f} x  (gate: >= {MIN_WARM_SPEEDUP:.0f}x)",
        f"warm substrate/design executions: "
        f"{warm.executed('substrate')}/{warm.executed('design')}",
    ]

    identical = cold.records_json() == warm.records_json()
    parallel_identical = warm.records_json() == warm_parallel.records_json()
    baseline_matches = netsim_rows(warm.records) == baseline_rows
    rows.append(f"cold == warm records: {identical}")
    rows.append(f"jobs=1 == jobs=4 records: {parallel_identical}")
    rows.append(f"sweep matches sequential baseline metrics: {baseline_matches}")

    try:
        assert identical, "warm-cache sweep records differ from the cold run"
        assert parallel_identical, "jobs=4 records differ from jobs=1"
        assert baseline_matches, (
            "sweep netsim metrics differ from the sequential baseline"
        )
        assert warm.executed("substrate") == 0 and warm.executed("design") == 0, (
            "warm sweep re-executed substrate/design stages"
        )
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm sweep speedup {speedup:.1f}x below the "
            f"{MIN_WARM_SPEEDUP:.0f}x acceptance bar"
        )
        report("sweep_runner", rows)
        write_bench_json(
            "sweep_runner",
            {
                "workload": {
                    "n_sites": N_SITES,
                    "budgets": list(BUDGETS),
                    "loads": list(LOADS),
                    "engine": ENGINE,
                    "points": n_points,
                },
                "timing": f"median per-run of {BATCHES} batches x {BATCH_RUNS}",
                "sequential_s": round(t_seq, 4),
                "sweep_cold_s": round(t_cold, 4),
                "sweep_warm_s": round(t_warm, 4),
                "warm_speedup": round(speedup, 2),
                "records_identical": identical,
                "jobs4_identical": parallel_identical,
                "baseline_metrics_match": baseline_matches,
            },
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    if benchmark is not None:
        benchmark.pedantic(
            lambda: SweepService(spec, AXES, store=store, jobs=1).run(),
            rounds=1,
            iterations=1,
        )


if __name__ == "__main__":
    bench_sweep_runner()
