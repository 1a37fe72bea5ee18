"""Sweep-service gate: fault tolerance must be (nearly) free and exact.

The fault-tolerant :class:`repro.exp.SweepService` wraps every sweep
point in a durable journal (checkpoint, retry, watchdog, resume).  That
machinery is only acceptable if it neither slows the common case nor
perturbs results.  Gates, on a 100-point (10 budgets x 10 loads) us-12
sweep running the netsim + apps + econ pipeline per point:

1. **resume exactness** — a run interrupted after 60 points and then
   resumed must produce records byte-identical to an uninterrupted
   sweep, execute exactly the 40 missing points, re-execute zero
   substrate stages, and compute only the designs the interrupted run
   never reached (nothing already cached may recompute);
2. **overhead** — the service (``jobs=1``, journaling every point) must
   stay within 10% of a plain :func:`run_experiment` loop over the same
   points (:func:`reference_records`) on the warm-cache sweep (median
   CPU-time ratio over 9 order-alternated rounds of 5-run batches — see
   :func:`time_paired`);
3. **chaos** — with deterministic seeded worker kills (``jobs=2``), the
   sweep must still complete byte-identical, recovering via >= 1 pool
   respawn and zero quarantined points;
4. **corrupt artifact** — a corrupted on-disk design artifact must be
   quarantined as a cache miss and recomputed exactly once by a fresh
   service sweep, leaving the records byte-identical.

Every byte-identity check compares against :func:`reference_records`.

Each run appends to the ``BENCH_sweep_runner.json`` perf trajectory
(tagged ``bench: sweep_service``).
"""

import os
import statistics
import tempfile
import time

from repro.exp import (
    AppsSpec,
    ArtifactStore,
    DesignSpec,
    EconSpec,
    ExperimentSpec,
    FaultPlan,
    NetsimSpec,
    RetryPolicy,
    ScenarioSpec,
    SweepService,
    canonical_json,
    corrupt_artifact,
    expand_points,
    run_experiment,
    stage_key,
)
from repro.exp.runner import _axis_list

from _support import report, write_bench_json

#: Acceptance thresholds (see module docstring).
MAX_OVERHEAD = 0.10
INTERRUPT_AFTER = 60

N_SITES = 12
AGGREGATE_GBPS = 100.0
BUDGETS = tuple(200.0 + 150.0 * i for i in range(10))
LOADS = tuple(round(0.05 + 0.09 * i, 2) for i in range(10))
ENGINE = "fluid"

AXES = {
    "design.budget_towers": list(BUDGETS),
    "netsim.loads": [(load,) for load in LOADS],
}

RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01)


def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(name="us", sites=N_SITES, seed=42),
        design=DesignSpec(
            budget_towers=BUDGETS[0],
            solver="heuristic",
            aggregate_gbps=AGGREGATE_GBPS,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(loads=(LOADS[0],), engine=ENGINE, seed=0),
        apps=AppsSpec(),
        econ=EconSpec(),
    )


def reference_records(spec, store) -> list[dict]:
    """The plain loop a sweep must reproduce: every point, in order."""
    rows = []
    for index, (assignment, point) in enumerate(
        expand_points(spec, _axis_list(AXES))
    ):
        for row in run_experiment(point, store=store).records:
            rows.append({"point": index, **assignment, **row})
    return rows


def time_paired(
    rounds: int, batch: int, base_fn, variant_fn
) -> tuple[float, float, float]:
    """Compare two workloads robustly on a noisy shared machine.

    Each round times ``batch`` back-to-back runs of each side (one CPU
    clock reading per batch) and records the variant/base CPU ratio;
    rounds alternate which side goes first.  Batching makes every
    sample long relative to host-level CPU-speed oscillations (steal,
    frequency and quota cycling can swing a single ~40 ms run by 2-3x),
    alternation stops periodic background load from phase-locking onto
    one side, and the median ratio discards the rounds a spike still
    lands in.  Returns ``(wall_base, wall_variant, median_ratio)``
    where the walls are the best per-run averages seen in any batch.
    """
    wall_base = wall_variant = float("inf")
    ratios = []
    for i in range(rounds):
        sides = {}
        order = ("base", "variant") if i % 2 == 0 else ("variant", "base")
        for side in order:
            fn = base_fn if side == "base" else variant_fn
            w0, c0 = time.perf_counter(), time.process_time()
            for _ in range(batch):
                fn()
            sides[side] = time.process_time() - c0
            wall = (time.perf_counter() - w0) / batch
            if side == "base":
                wall_base = min(wall_base, wall)
            else:
                wall_variant = min(wall_variant, wall)
        ratios.append(sides["variant"] / sides["base"])
    return wall_base, wall_variant, statistics.median(ratios)


def bench_sweep_service(benchmark=None):
    spec = base_spec()
    n_points = len(BUDGETS) * len(LOADS)

    store_root = os.environ.get("REPRO_ARTIFACT_DIR")
    tmp = None
    if store_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-svc-")
        store_root = tmp.name

    rows = [
        "sweep-service fault-tolerance gate (100-point budget x load sweep)",
        f"workload: us-{N_SITES}, {len(BUDGETS)} budgets x {len(LOADS)} "
        f"loads = {n_points} points, engine={ENGINE}",
    ]
    try:
        # -- gate 1: interrupt cold at 60 points, resume the missing 40.
        store = ArtifactStore(store_root)
        service = SweepService(
            spec, AXES, store=store, jobs=1, retry=RETRY
        )

        executed = []

        def stop_at_limit(index, _rows):
            executed.append(index)
            if len(executed) == INTERRUPT_AFTER:
                service.request_stop()

        t0 = time.perf_counter()
        interrupted = service.run(on_point=stop_at_limit)
        t_interrupted = time.perf_counter() - t0
        assert interrupted.interrupted, "stop request did not interrupt"
        assert interrupted.executed_points == INTERRUPT_AFTER

        resumed_service = SweepService(
            spec, AXES, store=ArtifactStore(store_root), jobs=1,
            retry=RETRY, resume=True,
        )
        t0 = time.perf_counter()
        resumed = resumed_service.run()
        t_resumed = time.perf_counter() - t0

        reference = canonical_json(
            reference_records(spec, ArtifactStore(store_root))
        )
        resume_exact = resumed.records_json() == reference
        missing = n_points - INTERRUPT_AFTER
        rows += [
            f"interrupted cold run ({INTERRUPT_AFTER} pts) "
            f"{t_interrupted:8.3f} s",
            f"resume ({missing} missing pts)       {t_resumed:8.3f} s",
            f"resume records byte-identical: {resume_exact}",
            f"resume executed/resumed points: {resumed.executed_points}/"
            f"{resumed.resumed_points}",
            f"resume session substrate/design executions: "
            f"{resumed.session_executed('substrate')}/"
            f"{resumed.session_executed('design')}",
        ]
        assert resume_exact, "resumed records differ from uninterrupted run"
        assert resumed.executed_points == missing, (
            f"resume executed {resumed.executed_points} points, "
            f"expected exactly the {missing} missing"
        )
        assert resumed.resumed_points == INTERRUPT_AFTER
        assert resumed.session_executed("substrate") == 0, (
            "resume re-executed the substrate stage"
        )
        # Points run budget-major, so interrupting at a multiple of
        # len(LOADS) leaves exactly the tail budgets' designs uncomputed;
        # the resume must compute those and nothing more.
        fresh_designs = len(BUDGETS) - INTERRUPT_AFTER // len(LOADS)
        assert resumed.session_executed("design") == fresh_designs, (
            f"resume executed {resumed.session_executed('design')} design "
            f"stages, expected the {fresh_designs} never reached before "
            f"the interrupt"
        )

        # -- gate 2: warm-cache overhead vs the plain run_experiment loop.
        t_loop, t_service, ratio = time_paired(
            9,
            5,
            lambda: reference_records(spec, ArtifactStore(store_root)),
            lambda: SweepService(
                spec, AXES, store=ArtifactStore(store_root), jobs=1,
                retry=RETRY,
            ).run(),
        )
        overhead = ratio - 1.0
        rows += [
            f"warm plain loop (best batch avg)   {t_loop:8.3f} s",
            f"warm SweepService (best batch avg) {t_service:8.3f} s",
            f"service overhead              {overhead:8.1%}  "
            f"(gate: <= {MAX_OVERHEAD:.0%})",
        ]
        warm_service = SweepService(
            spec, AXES, store=ArtifactStore(store_root), jobs=1, retry=RETRY
        ).run()
        warm_exact = warm_service.records_json() == reference
        rows.append(f"warm service records byte-identical: {warm_exact}")
        assert warm_exact, "service records differ from the plain loop"
        assert overhead <= MAX_OVERHEAD, (
            f"service overhead {overhead:.1%} exceeds the "
            f"{MAX_OVERHEAD:.0%} acceptance bar"
        )

        # -- gate 3: seeded worker kills, jobs=2, warm store.
        plan = FaultPlan.seeded_kills(n_points, seed=0, rate=0.03)
        t0 = time.perf_counter()
        chaos_service = SweepService(
            spec, AXES, store=ArtifactStore(store_root), jobs=2,
            retry=RETRY, fault_plan=plan, poll_interval_s=0.05,
        )
        chaos = chaos_service.run()
        t_chaos = time.perf_counter() - t0
        chaos_exact = chaos.records_json() == reference
        rows += [
            f"chaos (jobs=2, {len(plan.faults)} seeded kills) "
            f"{t_chaos:8.3f} s",
            f"chaos pool restarts: {chaos.pool_restarts}  "
            f"quarantined: {len(chaos.failures)}",
            f"chaos records byte-identical: {chaos_exact}",
        ]
        assert chaos_exact, "chaos-run records differ"
        assert chaos.pool_restarts >= 1, "kills never broke the pool?"
        assert not chaos.failures, "seeded kills should retry to success"

        # -- gate 4: corrupt artifact quarantined and recomputed.
        design_spec = spec.with_value(
            "design.budget_towers", BUDGETS[3]
        )
        key = stage_key(design_spec, "design")
        corrupt_artifact(ArtifactStore(store_root), key, mode="garbage")
        recompute = SweepService(
            spec, AXES, store=ArtifactStore(store_root), jobs=1, retry=RETRY
        ).run()
        corrupt_exact = recompute.records_json() == reference
        recomputed_designs = recompute.executed("design")
        rows += [
            f"corrupt-design recompute: {recomputed_designs} design "
            f"execution(s), records byte-identical: {corrupt_exact}",
        ]
        assert corrupt_exact, "records differ after corrupt-artifact recovery"
        assert recomputed_designs == 1, (
            f"expected exactly 1 design recompute, got {recomputed_designs}"
        )

        report("sweep_service", rows)
        write_bench_json(
            "sweep_runner",
            {
                "bench": "sweep_service",
                "workload": {
                    "n_sites": N_SITES,
                    "points": n_points,
                    "engine": ENGINE,
                },
                "interrupted_cold_s": round(t_interrupted, 4),
                "resume_s": round(t_resumed, 4),
                "warm_loop_s": round(t_loop, 4),
                "warm_service_s": round(t_service, 4),
                "service_overhead": round(overhead, 4),
                "chaos_s": round(t_chaos, 4),
                "chaos_pool_restarts": chaos.pool_restarts,
                "resume_exact": resume_exact,
                "chaos_exact": chaos_exact,
            },
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    if benchmark is not None:
        benchmark.pedantic(
            lambda: SweepService(
                spec, AXES, store=ArtifactStore(store_root), jobs=1,
                retry=RETRY,
            ).run(),
            rounds=1,
            iterations=1,
        )


if __name__ == "__main__":
    bench_sweep_service()
