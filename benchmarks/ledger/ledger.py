"""The performance ledger: the paper's pipeline, end to end and layer by layer.

Usage::

    python benchmarks/ledger/ledger.py [--workload W ...] [--repeats N] [--seed S] [--out PATH]

Runs each workload ``--repeats`` times, round-robin (repeat 1 of every
workload, then repeat 2, ...), each run in a fresh child interpreter
with its own store, then one traced run per workload.  Prints every
metric by name with its unit, writes one JSON run record to ``--out``
(default ``benchmarks/ledger/results/``) and the traced spans to the
record's ``.trace.jsonl`` sidecar, and exits non-zero if any operation
failed.

Fixed-length mode, one workload per invocation::

    python benchmarks/ledger/ledger.py --workload W --seed S --seconds T --trace 0|1

repeats untraced runs until about ``T`` seconds are measured (with
``--trace 1``: one untraced and one traced run) and prints, as its last
line, one JSON object ``{correct, attempted, failed, metrics}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference_digests.json"

SCHEMA_VERSION = 1
#: Seed the reference digests were recorded at.
REFERENCE_SEED = 42
#: Set-up samples a fixed-length run takes (extra children stop at READY).
SETUP_SAMPLES = 3
#: Warm template stores kept for reuse (about 5 MB each at 120 sites).
FIXTURES_KEPT = 16


class ChildError(RuntimeError):
    """A child process failed before reporting a result."""


def spawn(job: dict) -> dict:
    """Run one child; its result plus set-up time and peak RSS.

    ``setup_s`` is the child's CPU time when it prints ``READY``;
    ``setup_wall_s`` runs from spawning the child to that line.  The
    peak RSS is the child's own ``ru_maxrss``, read with ``os.wait4``.
    """
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ARTIFACT_DIR"}
    env["PYTHONHASHSEED"] = "0"
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(job)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    with proc.stdout:
        ready = proc.stdout.readline().split()
        setup_wall_s = perf_counter() - start
        rest = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    is_ready = len(ready) == 2 and ready[0] == b"READY"
    if not is_ready or proc.returncode != 0:
        raise ChildError(
            f"{job['kind']} child for {job['workload']['name']} exited "
            f"{proc.returncode} ({'after' if is_ready else 'before'} READY)"
        )
    lines = rest.decode().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = float(ready[1])
    result["setup_wall_s"] = setup_wall_s
    result["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    return result


def source_digest() -> str:
    """sha256 over every source file of the ``repro`` package."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Session:
    """Fresh stores and child processes for one invocation at one seed.

    Warm runs start from a copy of a template store that holds only the
    substrate and design of the workload's base spec.  Templates are
    kept under ``fixtures``, keyed by the package source, the base spec
    and the seed, so later invocations at the same seed reuse them (the
    three warm workloads share one).  Building a template is never
    timed as part of a run; this invocation's build time is
    ``fixture_s``.
    """

    def __init__(self, seed: int, workdir: Path, trace_path: Path, fixtures: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.trace_path = trace_path
        self.fixtures = fixtures
        self.fixture_s = 0.0
        self._source = source_digest()
        self._stores = 0
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _job(self, workload: wl.Workload, store: Path, kind: str, trace: Path | None = None) -> dict:
        return {
            "src": str(SRC),
            "workload": workload.to_dict(),
            "seed": self.seed,
            "store": str(store),
            "kind": kind,
            "trace": None if trace is None else str(trace),
        }

    def _template(self, workload: wl.Workload) -> Path:
        base = json.dumps(workload.base_for(self.seed), sort_keys=True)
        key = hashlib.sha256(f"{self._source}\n{base}".encode()).hexdigest()[:24]
        path = self.fixtures / key
        if not path.is_dir():
            built = self.workdir / f"template-{key}"
            self.fixture_s += spawn(self._job(workload, built, "fixture"))["fixture_s"]
            self.fixtures.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(built, path)
            except OSError:  # another invocation published it first
                shutil.rmtree(built, ignore_errors=True)
            kept = sorted(self.fixtures.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
            for old in kept[FIXTURES_KEPT:]:
                shutil.rmtree(old, ignore_errors=True)
        os.utime(path)
        return path

    def new_store(self, workload: wl.Workload) -> Path:
        """A fresh store root: empty (cold) or a copy of the template (warm)."""
        self._stores += 1
        store = self.workdir / f"store-{self._stores}"
        if workload.start == wl.WARM:
            shutil.copytree(self._template(workload), store)
        return store

    def run(self, workload: wl.Workload, traced: bool = False) -> dict:
        """One measured run; a crashed child yields ``{"crash": reason}``."""
        store = self.new_store(workload)
        job = self._job(workload, store, "run", self.trace_path if traced else None)
        try:
            return spawn(job)
        except ChildError as exc:
            return {"crash": str(exc)}
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def probe(self, workload: wl.Workload) -> float:
        """Set-up time of a child that stops at READY."""
        return spawn(self._job(workload, self.workdir / "probe-store", "probe"))["setup_s"]


# --------------------------------------------------------------------------
# Statistics and the run record.
# --------------------------------------------------------------------------


def stat(values: list[float]) -> dict:
    """``{median, iqr, n}``; the IQR of one sample is 0."""
    if not values:
        return {"median": None, "iqr": None, "n": 0}
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr, "n": len(values)}


def load_reference() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["digests"] if doc["seed"] == REFERENCE_SEED else {}


def gate(workload: wl.Workload, results: list[dict], seed: int, reference: dict) -> dict:
    """Correctness of every run of one workload, kept apart from metrics.

    At the reference seed the records must match the stored digest; at
    any other seed every run must match the first.
    """
    digests = [r["digest"] for r in results if "digest" in r]
    expected = reference.get(workload.name) if seed == REFERENCE_SEED else None
    if expected is None and digests:
        expected = digests[0]
    failures: list[str] = []
    for run_index, result in enumerate(results):
        if "crash" in result:
            failures += [f"run {run_index}: {result['crash']}"] * workload.n_ops()
            continue
        for op, reason in sorted(wl.failed_ops(workload, result, expected).items()):
            failures.append(f"run {run_index} op {op}: {reason}")
    attempted = workload.n_ops() * len(results)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "digest": digests[0] if digests else None,
        "digests_agree": len(set(digests)) <= 1,
        "reference": expected,
        "failures": failures,
    }


def e2e_metrics(samples: list[dict], probes: list[float]) -> dict:
    """Untraced runs' metrics; set-up probes add ``setup_s`` samples."""
    ok = [s for s in samples if "cpu_s" in s]
    return {
        "cpu_s": {**stat([s["cpu_s"] for s in ok]), "unit": "s"},
        "setup_s": {**stat([s["setup_s"] for s in ok] + probes), "unit": "s"},
        "peak_rss_mib": {**stat([s["peak_rss_mib"] for s in ok]), "unit": "MiB"},
    }


def layer_table(samples: list[dict], traced: dict) -> dict:
    """The traced run's layer metrics plus three cross-run diagnostics.

    ``process.wall_s`` is the untraced runs' median wall time,
    ``trace.wall_s`` the traced run's (the clock spans use), and
    ``trace.overhead_s`` the traced run's CPU time minus the untraced
    median.
    """
    ok = [s for s in samples if "cpu_s" in s]
    if "layers" not in traced or not ok:
        return {}
    layers = dict(traced["layers"])
    layers["process.wall_s"] = {"value": statistics.median(s["wall_s"] for s in ok), "unit": "s"}
    layers["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    layers["trace.overhead_s"] = {
        "value": traced["cpu_s"] - statistics.median(s["cpu_s"] for s in ok),
        "unit": "s",
    }
    return layers


def versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (no git call)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def out_paths(out: str | None) -> tuple[Path, Path]:
    """(record path, span sidecar path) for ``--out``."""
    path = Path(out) if out else RESULTS
    if path.suffix != ".json":
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        path = path / f"ledger-{stamp}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path, path.with_suffix(".trace.jsonl")


def new_record(session: Session, seed: int, repeats: int, order: list) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        **versions(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "repeats": repeats,
        "fixture_s": session.fixture_s,
        "order": order,
        "samples": {},
        "metrics": {},
        "layers": {},
        "gates": {},
        "trace": {"sidecar": str(session.trace_path), "missing": []},
    }


def add_workload(record: dict, workload: wl.Workload, samples: list[dict],
                 traced: dict | None, reference: dict, probes: list[float]) -> None:
    name = workload.name
    record["samples"][name] = [
        {k: s[k] for k in ("cpu_s", "wall_s", "setup_s", "setup_wall_s", "peak_rss_mib", "crash")
         if k in s}
        for s in samples
    ]
    record["metrics"][name] = e2e_metrics(samples, probes)
    runs = samples + ([traced] if traced is not None else [])
    record["gates"][name] = gate(workload, runs, record["seed"], reference)
    if traced is not None:
        record["layers"][name] = layer_table(samples, traced)
        missing = set(record["trace"]["missing"]) | set(traced.get("missing", ()))
        record["trace"]["missing"] = sorted(missing)


def write_record(record: dict, path: Path) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# The two modes: the full ledger and one fixed-length run.
# --------------------------------------------------------------------------


def run_ledger(workloads: list[wl.Workload], repeats: int, seed: int, out: str | None) -> dict:
    """Round-robin repeats, then one traced run per workload."""
    record_path, trace_path = out_paths(out)
    reference = load_reference()
    session = Session(seed, record_path.parent / f"work-{os.getpid()}", trace_path,
                      record_path.parent / "fixtures")
    samples: dict[str, list[dict]] = {w.name: [] for w in workloads}
    order = []
    try:
        for repeat in range(1, repeats + 1):
            for workload in workloads:
                order.append([repeat, workload.name])
                samples[workload.name].append(session.run(workload))
        traced = {w.name: session.run(w, traced=True) for w in workloads}
    finally:
        session.close()
    record = new_record(session, seed, repeats, order)
    for workload in workloads:
        add_workload(record, workload, samples[workload.name], traced[workload.name], reference, [])
    write_record(record, record_path)
    record["path"] = str(record_path)
    return record


def run_fixed(workload: wl.Workload, seed: int, seconds: float, traced: bool,
              out: str | None) -> tuple[dict, dict]:
    """One workload for about ``seconds``; (run record, contract line)."""
    record_path, trace_path = out_paths(out)
    reference = load_reference()
    session = Session(seed, record_path.parent / f"work-{os.getpid()}", trace_path,
                      record_path.parent / "fixtures")
    samples: list[dict] = []
    traced_run = None
    probes: list[float] = []
    try:
        if traced:
            samples.append(session.run(workload))
            traced_run = session.run(workload, traced=True)
        else:
            start = perf_counter()
            while True:
                began = perf_counter()
                samples.append(session.run(workload))
                took = perf_counter() - began
                if perf_counter() - start + took > seconds:
                    break
            short = SETUP_SAMPLES - sum("setup_s" in s for s in samples)
            probes = [session.probe(workload) for _ in range(short)]
    finally:
        session.close()
    record = new_record(session, seed, len(samples), [[i + 1, workload.name] for i in range(len(samples))])
    add_workload(record, workload, samples, traced_run, reference, probes)
    write_record(record, record_path)
    record["path"] = str(record_path)
    gates = record["gates"][workload.name]
    if traced:
        metrics = record["layers"].get(workload.name, {})
    else:
        metrics = {
            name: {"value": m["median"], "unit": m["unit"]}
            for name, m in record["metrics"][workload.name].items()
        }
    line = {
        "correct": gates["failed"] == 0 and bool(metrics),
        "attempted": gates["attempted"],
        "failed": gates["failed"],
        "metrics": metrics,
    }
    return record, line


# --------------------------------------------------------------------------
# Report.
# --------------------------------------------------------------------------


def print_report(record: dict) -> None:
    print(f"ledger  seed {record['seed']}  repeats {record['repeats']}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}  "
          f"fixture_s {record['fixture_s']:.2f}")
    print("\nend-to-end (untraced runs; median, iqr, n)")
    for name, metrics in record["metrics"].items():
        for metric, m in metrics.items():
            if m["median"] is None:
                print(f"  {name:<18} {metric:<14} -")
                continue
            print(f"  {name:<18} {metric:<14} {m['median']:>12.4f} {m['unit']:<4} "
                  f"iqr {m['iqr']:.4f}  n {m['n']}")
    print("\ngates")
    for name, g in record["gates"].items():
        print(f"  {name:<18} attempted {g['attempted']:<3} failed {g['failed']:<3} "
              f"error_rate {g['error_rate']:.3f}  digest {str(g['digest'])[:16]}")
        for failure in g["failures"][:5]:
            print(f"      {failure}")
    print("\nper-layer (one traced run)")
    for name, layers in record["layers"].items():
        for metric, m in layers.items():
            value = m["value"]
            text = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {name:<18} {metric:<52} {text:>16} {m['unit']}")
    print("\ntrace summary (top self time; share of the traced run's wall time)")
    for name, layers in record["layers"].items():
        if not layers:
            continue
        wall = layers["trace.wall_s"]["value"]
        stage_s = sum(m["value"] for k, m in layers.items()
                      if k.startswith("exp.stage.") and k.endswith(".s") and not k.endswith("self_s"))
        print(f"  {name}: traced wall {wall:.2f} s, stages cover {stage_s / wall:.1%}, "
              f"overhead {layers['trace.overhead_s']['value']:+.2f} s cpu")
        selfs = sorted(((m["value"], k[: -len(".self_s")]) for k, m in layers.items()
                        if k.endswith(".self_s")), reverse=True)
        for value, span in selfs[:6]:
            print(f"      {span:<44} self {value:>8.3f} s  {value / wall:6.1%}")
    missing = record["trace"]["missing"]
    print(f"\ntrace.missing: {missing if missing else 'none'}")
    print(f"record: {record.get('path', '-')}\nspans:  {record['trace']['sidecar']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.BY_NAME),
                        help="workload to run (repeatable; default all five)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--out", help="record path (.json) or directory")
    parser.add_argument("--seconds", type=float,
                        help="fixed-length mode: measure one workload for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="fixed-length mode: report per-layer instead of end-to-end metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    # The build: byte-compile once, so no run's set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    names = args.workload or [w.name for w in wl.WORKLOADS]
    chosen = [wl.BY_NAME[n] for n in dict.fromkeys(names)]

    if args.seconds is not None:
        if len(chosen) != 1:
            parser.error("--seconds runs exactly one --workload")
        record, line = run_fixed(chosen[0], args.seed, args.seconds, bool(args.trace), args.out)
        print(f"ledger: {chosen[0].name} seed {args.seed}: {record['repeats']} run(s), "
              f"record {record['path']}")
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    record = run_ledger(chosen, args.repeats, args.seed, args.out)
    print_report(record)
    failed = sum(g["failed"] for g in record["gates"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
