"""One measured run of one ledger workload, in a fresh interpreter.

Spawned by ``ledger.py`` as ``python child.py '<job json>'``.  The job
names the ``src`` directory to import ``repro`` from, the workload, the
seed, an explicit store root, the job ``kind`` (``run``, ``fixture`` or
``probe``) and, for a traced run, the span sidecar path.

Protocol on stdout: the line ``READY <cpu seconds>`` once set-up is
done (``repro`` and every stage module imported, spec parsed, store
opened), then, for ``run`` and ``fixture`` jobs, one JSON result line.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

#: Modules the stages import lazily; set-up imports them all, as every
#: CLI call and sweep worker ends up doing.
STAGE_MODULES = (
    "repro.exp",
    "repro.scenarios",
    "repro.core",
    "repro.netsim.experiments",
    "repro.weather.degradation",
    "repro.apps.integration",
    "repro.apps.econ",
)


def main() -> None:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    for name in STAGE_MODULES:
        importlib.import_module(name)
    from repro.exp import ArtifactStore, run_experiment

    import spans
    import workloads

    tracer, missing = None, []
    if job.get("trace"):
        tracer = spans.Tracer()
        missing = spans.install(tracer)
    workload = workloads.Workload.from_dict(job["workload"])
    spec, axes = workloads.parse(workload, job["seed"])
    store = ArtifactStore(job["store"])
    print(f"READY {process_time()!r}", flush=True)

    if job["kind"] == "probe":
        return
    if job["kind"] == "fixture":
        start = perf_counter()
        run_experiment(spec, store=store, stages=workloads.BASE_STAGES)
        print(json.dumps({"fixture_s": perf_counter() - start}), flush=True)
        return

    cpu0, start = process_time(), perf_counter()
    outcome = workloads.execute(spec, axes, store)
    wall_s, cpu_s = perf_counter() - start, process_time() - cpu0
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "statuses": outcome.statuses,
        "errors": outcome.errors,
        "record_errors": workloads.record_errors(spec, outcome.records),
        "digest": workloads.digest(outcome.records),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["missing"] = missing
        tracer.write_jsonl(job["trace"], {"workload": workload.name})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
