"""Command-line interface: ``python -m repro <command>``.

Every command is a thin constructor over the experiment orchestration
layer (:mod:`repro.exp`): it builds a seed-pinned
:class:`~repro.exp.ExperimentSpec`, runs it through the stage DAG
``substrate → design → {netsim, weather, apps, econ}``, and prints the
resulting records.  Expensive stages (substrate build, topology solve)
are memoized in a content-addressed artifact store shared across
processes and sessions — rerunning a command, or sweeping around it,
reuses everything whose spec slice did not change.

Each experiment flag is declared once, in :data:`SPEC_FLAGS`, as the
dotted spec path it sets; the spec field supplies the rest.  The flag's
type comes from the field's annotation, an unset flag leaves the
field's value in place, and a bad value fails the spec's own check,
whose message names the field.  A command's spec is its base spec in
:data:`COMMANDS` — only the CLI's deliberate departures from the spec
defaults, such as 30 sites for ``design`` — with the given flags
applied through :meth:`~repro.exp.ExperimentSpec.from_dict`.

Commands:

* ``design``  — design a cISP for a scenario and print the summary
  (optionally the ASCII map).  ``--solver`` picks any registered
  topology backend (heuristic, ilp, lp_rounding, exhaustive,
  evolution).
* ``solvers`` — list the registered topology-solver backends.
* ``sweep``   — budget sweep (the Fig 4a curve); ``--jobs N`` fans the
  points out over worker processes.
* ``netsim``  — simulate offered load on a designed network with the
  packet engine or the fluid fast path (the Fig 5 methodology).
* ``weather`` — yearly weather analysis for a designed network.
* ``econ``    — the §8 value-per-GB table.
* ``run``     — execute a spec file (single experiment or multi-axis
  sweep) and print/emit the tidy records table.

Examples::

    python -m repro design --scenario us --sites 30 --budget 1000 --map
    python -m repro design --scenario us --sites 12 --solver ilp
    python -m repro sweep --scenario us --sites 40 --max-budget 3000 --jobs 4
    python -m repro netsim --scenario us --sites 20 --engine fluid \\
        --loads 0.3,0.6,0.9
    python -m repro weather --sites 30 --budget 1000 --intervals 120
    python -m repro econ --cost-per-gb 0.81
    python -m repro run examples/specs/us_budget_load_sweep.json --jobs 4

Caching flags (on every experiment command): ``--cache-dir PATH``
points the artifact store somewhere explicit, ``--no-cache`` disables
it; the default location is ``$REPRO_ARTIFACT_DIR`` or
``~/.cache/repro/artifacts``.

Sweeps (``sweep`` and multi-axis ``run``) execute through the
fault-tolerant :class:`~repro.exp.SweepService`: every point is
journaled, failing points retry up to ``--retries`` then quarantine
(exit 1, the other points' rows still print), and ``--point-timeout``
arms the pool watchdog.  With a durable journal location (an on-disk
store or ``--journal-dir``) failures are reported in ``failures.json``
and Ctrl-C checkpoints the journal and prints the exact ``--resume``
command (exit 130) instead of discarding completed work.  A
``--no-cache`` sweep without ``--journal-dir`` journals into a
temporary directory removed on exit, so it cannot be resumed.
``--fault-plan plan.json`` injects deterministic worker kills /
failures / delays / artifact corruption for chaos testing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import tempfile
import types
import typing

#: Experiment flag -> (the spec path it sets, help).  The spec field
#: supplies the flag's type (see :func:`_flag_kwargs`), its default
#: and its checks; every command that takes the flag shares the entry.
SPEC_FLAGS = {
    "--scenario": ("scenario.name", "scenario family"),
    "--sites": ("scenario.sites", "site count (us/city_dc only; europe and "
                "interdc have fixed sites)"),
    "--seed": ("scenario.seed", "tower-synthesis seed (default: the "
               "scenario's pinned seed)"),
    "--budget": ("design.budget_towers", "tower budget B"),
    "--gbps": ("design.aggregate_gbps", "design aggregate to provision for"),
    "--solver": ("design.solver", "topology-solver backend (see 'solvers')"),
    "--engine": ("netsim.engine", "packet: per-packet simulation; fluid: "
                 "max-min fast path"),
    "--loads": ("netsim.loads", "comma-separated offered-load fractions"),
    "--duration": ("netsim.duration_s", "simulated seconds per load point "
                   "(packet engine)"),
    "--flow-seed": ("netsim.seed", "Poisson-arrival seed (packet engine)"),
    "--transport": ("netsim.transport", "udp: open-loop offers; tcp: Mathis "
                    "macro-model (fluid engine only)"),
    "--demand": ("netsim.demand_model", "design: scale the design matrix; "
                 "users: bottom-up diurnal + heavy-tail per-city demand"),
    "--hour-utc": ("netsim.demand_hour_utc", "UTC hour for the diurnal "
                   "profile (users demand)"),
    "--demand-seed": ("netsim.demand_seed", "heavy-tail multiplier seed "
                      "(users demand)"),
    "--users-millions": ("netsim.users_millions", "rescale to this many "
                         "million active users (users demand)"),
    "--intervals": ("weather.n_intervals", "sampled days of the year"),
    "--graded": ("weather.graded", "also run the graded "
                 "(modulation-downshift) model"),
    "--frequency-ghz": ("weather.frequency_ghz", "MW carrier frequency for "
                        "the rain-fade physics (binary and graded models)"),
    "--interval-days": ("weather.sample_interval_days", "evaluate every Nth "
                        "day (1 = daily) instead of --intervals random days"),
    "--cost-per-gb": ("econ.cost_per_gb", "network cost to compare value "
                      "estimates against ($/GB)"),
}

_SCENARIO_FLAGS = ("--scenario", "--sites", "--seed")

#: The CLI favors speed: the heuristic skips its restricted final ILP.
_NO_REFINE = {"ilp_refinement": False}

#: Experiment command -> (its flags, its base spec).  A base spec holds
#: only the CLI's departures from the spec defaults; its
#: ``scenario.sites`` applies to the sized scenarios (us, city_dc).
COMMANDS = {
    "design": (
        (*_SCENARIO_FLAGS, "--budget", "--gbps", "--solver"),
        {"scenario": {"sites": 30}, "design": {"aggregate_gbps": 100.0}},
    ),
    "sweep": (
        (*_SCENARIO_FLAGS, "--solver"),
        # evolution reproduces the incremental build-out of Fig 4a.
        {"scenario": {"sites": 30}, "design": {"solver": "evolution"}},
    ),
    "netsim": (
        (*_SCENARIO_FLAGS, "--budget", "--gbps", "--engine", "--loads",
         "--duration", "--flow-seed", "--transport", "--demand", "--hour-utc",
         "--demand-seed", "--users-millions"),
        {"scenario": {"sites": 20}, "netsim": {},
         "design": {"budget_towers": 800.0, "aggregate_gbps": 100.0,
                    "solver_opts": _NO_REFINE}},
    ),
    "weather": (
        (*_SCENARIO_FLAGS, "--budget", "--intervals", "--graded",
         "--frequency-ghz", "--interval-days"),
        {"scenario": {"sites": 30}, "design": {"solver_opts": _NO_REFINE},
         "weather": {}},
    ),
    "econ": (("--cost-per-gb",), {"econ": {"cost_per_gb": 0.81}}),
}


def _non_none(hint):
    """``X`` for an ``X | None`` annotation; any other one unchanged."""
    if isinstance(hint, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return hint


def _comma_list(item: type):
    """argparse type: comma-separated ``item`` values, no empty entry."""

    def parse(text: str) -> tuple:
        entries = text.split(",")
        if not all(entry.strip() for entry in entries):
            raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
        try:
            return tuple(item(entry) for entry in entries)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {item.__name__} values: "
                f"{text!r}"
            ) from None

    return parse


def _flag_kwargs(path: str) -> dict:
    """argparse keywords for the flag setting ``path``, from its type.

    ``X | None`` takes an ``X``, ``bool`` is a switch and
    ``tuple[X, ...]`` a comma-separated list.  No default is stated:
    an unset flag parses as None and leaves the spec's value alone.
    """
    from .exp import ExperimentSpec

    section, name = path.split(".")
    section_cls = _non_none(typing.get_type_hints(ExperimentSpec)[section])
    hint = _non_none(typing.get_type_hints(section_cls)[name])
    if hint is bool:
        return {"action": "store_const", "const": True}
    if typing.get_origin(hint) is tuple:
        return {"type": _comma_list(typing.get_args(hint)[0])}
    return {"type": hint}


def _command_spec(args: argparse.Namespace, command: str):
    """The command's base spec with every given experiment flag applied.

    The base site count is for the sized scenarios: a fixed-site one
    drops it, while an explicit ``--sites`` still reaches the spec,
    which rejects it there.
    """
    from .exp import ExperimentSpec
    from .exp.spec import FIXED_SITE_SCENARIOS

    flags, base = COMMANDS[command]
    doc = {section: dict(values) for section, values in base.items()}
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section, name = SPEC_FLAGS[flag][0].split(".")
            doc.setdefault(section, {})[name] = value
    scenario = doc.get("scenario", {})
    if scenario.get("name") in FIXED_SITE_SCENARIOS and args.sites is None:
        del scenario["sites"]
    return ExperimentSpec.from_dict(doc)


def _store_from_args(args: argparse.Namespace):
    from .exp import ArtifactStore, NullStore

    if getattr(args, "no_cache", False):
        return NullStore()
    if getattr(args, "cache_dir", None):
        return ArtifactStore(args.cache_dir)
    return ArtifactStore()


def _add_service_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume the sweep from its journal: execute only points "
        "without a recorded result (safe to pass on a fresh sweep)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per sweep point before it is quarantined "
        "(default: 3)",
    )
    p.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per point attempt; the watchdog kills "
        "workers past it (pool mode only)",
    )
    p.add_argument(
        "--journal-dir",
        default=None,
        help="sweep journal directory (default: <store>/sweeps/<fingerprint>)",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault-injection plan for chaos testing (see "
        "repro.exp.faults)",
    )


def _run_sweep(args: argparse.Namespace, spec, axes, store):
    """Run a sweep through SweepService; return (result, exit status).

    A ``--no-cache`` sweep without ``--journal-dir`` has nowhere durable
    to checkpoint, so it journals into a temporary directory removed on
    exit: it gets retries, quarantine and the watchdog, but no resume.
    """
    from .exp import FaultPlan, NullStore, RetryPolicy, SweepService

    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.from_json_file(args.fault_plan)
        except OSError as exc:
            raise SystemExit(f"cannot read fault plan: {exc}")
    scratch = isinstance(store, NullStore) and args.journal_dir is None
    if scratch:
        if args.resume:
            raise SystemExit(
                "--resume needs a journal: drop --no-cache or pass "
                "--journal-dir"
            )
        if fault_plan is not None:
            raise SystemExit(
                "--fault-plan needs a journaled sweep: drop --no-cache or "
                "pass --journal-dir"
            )
    if args.retries < 1:
        raise SystemExit("--retries must be >= 1")
    timeout = args.point_timeout
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise SystemExit(
            f"--point-timeout must be a finite number > 0, got {timeout}"
        )
    with contextlib.ExitStack() as stack:
        journal_dir = args.journal_dir
        if scratch:
            journal_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-sweep-")
            )
        service = SweepService(
            spec,
            axes=axes,
            store=store,
            jobs=args.jobs,
            journal_dir=journal_dir,
            resume=args.resume,
            retry=RetryPolicy(max_attempts=args.retries),
            point_timeout_s=timeout,
            fault_plan=fault_plan,
        )
        # Closed before the scratch directory is removed (LIFO).
        stack.callback(service.queue.close)
        if not scratch:
            stack.callback(_checkpoint_on_sigint(service))
        result = service.run()
        return result, _service_exit_status(args, service, result, scratch)


def _checkpoint_on_sigint(service):
    """SIGINT checkpoints the journal instead of killing the sweep.

    Returns a zero-argument function that restores the previous handler.
    """
    import signal

    def handler(signum, frame):
        print(
            "\ninterrupt: checkpointing sweep journal; in-flight points "
            "will be requeued for --resume",
            file=sys.stderr,
        )
        service.request_stop()

    previous = signal.signal(signal.SIGINT, handler)
    return lambda: signal.signal(signal.SIGINT, previous)


def _resume_command(args: argparse.Namespace) -> str:
    """The exact CLI invocation that resumes this sweep."""
    import shlex

    argv = list(getattr(args, "_argv", None) or [])
    if "--resume" not in argv:
        argv.append("--resume")
    return "python -m repro " + shlex.join(argv)


def _service_exit_status(
    args: argparse.Namespace, service, result, scratch: bool
) -> int:
    """Report interruption/quarantine to stderr; pick the exit code.

    0 = clean sweep, 1 = quarantined failures, 130 = interrupted (the
    conventional SIGINT code) with a copy-pasteable resume command.  A
    ``scratch`` journal is deleted on exit, so no message names it.
    """
    counts = service.queue.counts()
    if result.interrupted:
        remaining = service.queue.n_tasks - counts["done"] - counts["failed"]
        print(
            f"\ninterrupted: {counts['done']}/{service.queue.n_tasks} "
            f"point(s) done, {remaining} remaining "
            f"(journal: {service.queue.journal_dir})",
            file=sys.stderr,
        )
        print(f"resume with: {_resume_command(args)}", file=sys.stderr)
        return 130
    if result.failures:
        report = (
            "" if scratch else f" (report: {service.queue.failure_report_path})"
        )
        print(
            f"\n{len(result.failures)} point(s) quarantined after "
            f"retries{report}:",
            file=sys.stderr,
        )
        for failure in result.failures:
            assignment = json.dumps(
                failure.to_dict()["assignment"], sort_keys=True
            )
            print(
                f"  point {failure.index} {assignment}: {failure.error} "
                f"[{failure.attempts} attempt(s)]",
                file=sys.stderr,
            )
        return 1
    return 0


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        default=None,
        help="artifact-store directory (default: $REPRO_ARTIFACT_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every stage fresh; cache nothing",
    )


def _cmd_design(args: argparse.Namespace) -> int:
    from .exp import run_experiment
    from .viz import render_topology

    spec = _command_spec(args, "design")
    if spec.design.solver == "heuristic":
        # The CLI favors speed; pass --refine to run the restricted ILP.
        spec = spec.with_value(
            "design.solver_opts", {"ilp_refinement": args.refine}
        )
    elif args.refine:
        raise SystemExit(
            "--refine runs the heuristic's restricted final ILP; "
            f"--solver {spec.design.solver} takes no --refine"
        )
    run = run_experiment(spec, store=_store_from_args(args))
    scenario = run.artifacts["substrate"]
    result = run.artifacts["design"]
    print(f"scenario:        {scenario.name} ({scenario.n_sites} sites)")
    print(f"solver:          {result.backend} "
          f"({result.solve_outcome.runtime_s:.2f}s"
          f"{', cached' if run.stage_status['design'] == 'cached' else ''})")
    print(f"budget:          {spec.design.budget_towers:.0f} towers "
          f"({result.towers_used:.0f} used)")
    print(f"MW links:        {result.mw_link_count}")
    print(f"mean stretch:    {result.mean_stretch:.4f} "
          f"(fiber: {result.fiber_mean_stretch:.3f})")
    if result.cost_per_gb_usd is not None:
        print(f"cost per GB:     ${result.cost_per_gb_usd:.2f} "
              f"at {spec.design.aggregate_gbps:.0f} Gbps")
    if args.map:
        print()
        print(render_topology(result.topology, result.augmentation))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    if args.points < 2:
        raise SystemExit(f"--points must be >= 2, got {args.points}")
    budgets = [float(b) for b in np.linspace(0.0, args.max_budget, args.points)]
    spec = _command_spec(args, "sweep").with_value(
        "design.budget_towers", budgets[0]
    )
    result, status = _run_sweep(
        args, spec, {"design.budget_towers": budgets}, _store_from_args(args)
    )
    print("budget_towers  mean_stretch  links")
    for row in result.records:
        if row["stage"] != "design":
            continue
        print(f"{row['budget_towers']:13.0f}  {row['mean_stretch']:12.4f}  "
              f"{row['mw_links']:5d}")
    return status


def _cmd_netsim(args: argparse.Namespace) -> int:
    from .exp import run_experiment

    spec = _command_spec(args, "netsim")
    ns = spec.netsim
    run = run_experiment(spec, store=_store_from_args(args))
    scenario = run.artifacts["substrate"]
    print(f"scenario:  {scenario.name} ({scenario.n_sites} sites, "
          f"budget {spec.design.budget_towers:.0f} towers)")
    print(f"engine:    {ns.engine} ({ns.transport}, "
          f"{ns.demand_model} demand)")
    print("load  mean_delay_ms  loss_rate  max_link_util")
    for row in run.records:
        if row["stage"] != "netsim":
            continue
        print(f"{row['load']:4.2f}  {row['mean_delay_ms']:13.3f}  "
              f"{row['loss_rate']:9.4f}  {row['max_link_utilization']:13.3f}")
    return 0


def _cmd_weather(args: argparse.Namespace) -> int:
    from .exp import run_experiment

    run = run_experiment(
        _command_spec(args, "weather"), store=_store_from_args(args)
    )
    solver_row = None
    print("series  median  p95")
    for row in run.records:
        if row["stage"] != "weather":
            continue
        if row["series"] == "solver":
            solver_row = row
            continue
        print(f"{row['series']:6s}  {row['median']:.3f}  {row['p95']:.3f}")
    if solver_row is not None:
        print(
            f"solver: {solver_row['intervals']} intervals -> "
            f"{solver_row['full_solves']} full / "
            f"{solver_row['delta_solves']} delta / "
            f"{solver_row['memo_hits']} memo; "
            f"{solver_row['cached_sets']} sets cached "
            f"({solver_row['cache_bytes'] / 2**20:.1f} MiB, "
            f"{solver_row['evictions']} evictions)"
        )
    return 0


def _cmd_econ(args: argparse.Namespace) -> int:
    from .exp import run_experiment

    # An explicit cost makes the econ stage self-contained: no design
    # solve happens (and none is cached) just to print the table.
    spec = _command_spec(args, "econ")
    run = run_experiment(spec, store=_store_from_args(args), stages=("econ",))
    print(f"network cost: ${spec.econ.cost_per_gb:.2f}/GB")
    print("scenario      low_$per_GB  high_$per_GB  justifies")
    for row in run.records:
        if row["stage"] != "econ":
            continue
        print(f"{row['scenario']:12s}  {row['low_usd_per_gb']:11.2f}  "
              f"{row['high_usd_per_gb']:12.2f}  {row['justifies']}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .exp import ExperimentSpec, run_experiment
    from .viz import render_records_table

    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read spec file: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"spec file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit("spec file must hold a JSON object")
    axes = doc.pop("axes", None)
    spec_doc = doc.pop("spec", None)
    if spec_doc is None:
        spec_doc = doc  # bare ExperimentSpec document
    elif doc:
        raise SystemExit(
            f"unknown top-level key(s) next to 'spec': {', '.join(sorted(doc))}"
        )
    spec = ExperimentSpec.from_dict(spec_doc)
    store = _store_from_args(args)

    if axes:
        if not isinstance(axes, dict):
            raise SystemExit("'axes' must map spec paths to value lists")
        for path, values in axes.items():
            if not isinstance(values, list) or not values:
                raise SystemExit(
                    f"axis {path!r} must be a non-empty JSON list of values "
                    f"(got {values!r})"
                )
        axes = {
            path: [tuple(v) if isinstance(v, list) else v for v in values]
            for path, values in axes.items()
        }
        result, status = _run_sweep(args, spec, axes, store)
        records = result.records
        counts = result.stage_counts
    else:
        run = run_experiment(spec, store=store)
        records = run.records
        counts = {
            name: {outcome: 1} for name, outcome in run.stage_status.items()
        }
        status = 0
    if args.json:
        json.dump(records, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_records_table(records))
        executed = sum(c.get("computed", 0) for c in counts.values())
        cached = sum(c.get("cached", 0) for c in counts.values())
        print(f"\nstages: {executed} computed, {cached} cached "
              f"({len(records)} record rows)")
    return status


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        LintConfig,
        all_rules,
        default_lock_path,
        render_json,
        render_text,
        rule_names,
        run_lint,
        update_lock,
    )

    if args.list_rules:
        print("rule                          description")
        for rule in all_rules():
            print(f"{rule.name:28s}  {rule.description}")
        return 0
    lock_path = args.lock or None
    if args.update_lock:
        path, entries = update_lock(lock_path)
        print(f"wrote {path} ({len(entries)} entries)")
        return 0
    rules = None
    if args.rules:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = sorted(set(rules) - set(rule_names()))
        if unknown:
            raise SystemExit(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"registered: {', '.join(rule_names())}"
            )
    paths = [str(p) for p in args.paths]
    if not paths:
        # Default to the committed layout around the lockfile: the
        # package sources plus the tests and benchmarks that ride on
        # its contracts (whichever of them exist here).
        root = default_lock_path().parent
        paths = [
            str(root / name)
            for name in ("src", "tests", "benchmarks")
            if (root / name).is_dir()
        ] or [str(root)]
    result = run_lint(
        paths, rules=rules, config=LintConfig(lock_path=lock_path)
    )
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    return 0 if result.ok else 1


def _cmd_solvers(args: argparse.Namespace) -> int:
    from .core import get_solver, solver_names

    print("backend      description")
    for name in solver_names():
        solver = get_solver(name)
        doc_lines = (type(solver).__doc__ or "").strip().splitlines()
        print(f"{name:12s} {doc_lines[0] if doc_lines else '(no description)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="cISP (NSDI 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        for flag in COMMANDS[name][0]:
            path, flag_help = SPEC_FLAGS[flag]
            p.add_argument(flag, help=flag_help, **_flag_kwargs(path))
        _add_cache_args(p)
        p.set_defaults(func=func)
        return p

    p = experiment("design", _cmd_design, "design a cISP network")
    p.add_argument(
        "--refine",
        action="store_true",
        help="heuristic only: run the restricted final ILP (slower)",
    )
    p.add_argument("--map", action="store_true", help="print the ASCII map")

    p = sub.add_parser("solvers", help="list topology-solver backends")
    p.set_defaults(func=_cmd_solvers)

    p = experiment("sweep", _cmd_sweep, "budget sweep (Fig 4a)")
    p.add_argument("--max-budget", type=float, default=3000.0)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep points")
    _add_service_args(p)

    experiment(
        "netsim", _cmd_netsim, "simulate load on a designed network (Fig 5)"
    )
    experiment("weather", _cmd_weather, "yearly weather analysis (Fig 7)")

    p = sub.add_parser(
        "lint",
        help="static contract checks (determinism, cache versions, "
        "kernel bans)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repo's src, "
        "tests, and benchmarks trees)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default: text)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset (default: every registered "
        "rule; see --list-rules)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    p.add_argument(
        "--update-lock", action="store_true",
        help="recompute every code fingerprint and rewrite "
        "stage_versions.lock (run after bumping a version tag)",
    )
    p.add_argument(
        "--lock",
        default=None,
        help="stage_versions.lock location (default: the repo root)",
    )
    p.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings waived by inline "
        "'# repro: allow[rule] -- reason' comments",
    )
    p.set_defaults(func=_cmd_lint)

    experiment("econ", _cmd_econ, "cost-benefit table (§8)")

    p = sub.add_parser(
        "run",
        help="run an experiment spec file (optionally a multi-axis sweep)",
    )
    p.add_argument("spec", help="path to the spec JSON (an ExperimentSpec "
                   "document, or {'spec': ..., 'axes': {path: [values]}})")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sweep points")
    p.add_argument("--json", action="store_true",
                   help="emit the records as JSON instead of a table")
    _add_service_args(p)
    _add_cache_args(p)
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Kept for reconstructing the exact --resume command after a SIGINT.
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        return args.func(args)
    except ValueError as exc:
        # Spec/scenario validation errors surface as clean CLI failures.
        raise SystemExit(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
