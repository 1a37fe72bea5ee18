"""The ledger's five fixed workloads and the checks on their outputs.

Each workload is one closed-loop client: a single experiment or a
single sweep, run once per measured child process through the public
experiment API (``run_experiment`` / ``SweepService(jobs=1)``).  An
*operation* is one experiment or one sweep point; ``error_rate`` counts
failed operations against attempted ones.

A workload starts either **cold** (empty store, fresh interpreter) or
**warm** (fresh interpreter plus a fresh copy of a template store that
holds only the substrate and design of the workload's base spec).

This module is imported by the parent harness, which never imports
``repro``, and by the child, which does: every ``repro`` import here is
local to the function that needs it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field

#: The flagship base ``B``: the 120-city US scenario with the 3000-tower
#: greedy design.  Specs never set ``workload``, ``profile``, ``delta_k``
#: or ``cache_mb``, so they keep parsing if those knobs are deleted.
BASE = {
    "scenario": {"name": "us"},
    "design": {
        "budget_towers": 3000,
        "aggregate_gbps": 100,
        "solver_opts": {"ilp_refinement": False},
    },
}

COLD = "cold"
WARM = "warm"
BASE_STAGES = ("substrate", "design")

#: Weather rows with this series are solver diagnostics, not results.
DIAGNOSTIC_SERIES = "solver"
#: Per-phase timing columns the fluid engine adds when profiling.
TIMING_COLUMNS = frozenset({"setup_s", "fill_s", "freeze_s"})


@dataclass(frozen=True)
class Workload:
    """One fixed input to the pipeline.

    Attributes:
        name: workload name, as in ``BENCHMARK.json``.
        start: ``"cold"`` or ``"warm"``.
        spec: the experiment spec as a plain dict, without a seed.
        axes: sweep axes (dotted path -> values); empty for a single
            experiment.
        why: the layer this workload stresses, in one line.
    """

    name: str
    start: str
    spec: dict
    axes: dict = field(default_factory=dict)
    why: str = ""

    def spec_for(self, seed: int) -> dict:
        """The spec with ``scenario.seed`` set, so the whole substrate moves."""
        spec = copy.deepcopy(self.spec)
        spec["scenario"]["seed"] = int(seed)
        return spec

    def base_for(self, seed: int) -> dict:
        """The substrate + design slice a warm template store holds."""
        spec = self.spec_for(seed)
        return {"scenario": spec["scenario"], "design": spec["design"]}

    def n_ops(self) -> int:
        return math.prod(len(v) for v in self.axes.values())

    def expected_status(self, stage: str) -> str:
        if self.start == WARM and stage in BASE_STAGES:
            return "cached"
        return "computed"

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "spec": self.spec, "axes": self.axes}

    @classmethod
    def from_dict(cls, doc: dict) -> "Workload":
        return cls(doc["name"], doc["start"], doc["spec"], doc.get("axes") or {})


def _with(**sections) -> dict:
    spec = copy.deepcopy(BASE)
    spec.update(copy.deepcopy(sections))
    return spec


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "flagship-cold",
        COLD,
        _with(
            netsim={"engine": "fluid", "loads": [0.3, 0.6, 0.9, 1.2]},
            weather={"n_intervals": 120},
            apps={},
            econ={},
        ),
        why="the headline pipeline as a first-time user pays for it; "
        "substrate LoS terrain sampling and greedy design dominate",
    ),
    Workload(
        "tower-constraints",
        COLD,
        {
            "scenario": {"name": "us", "sites": 40},
            "design": {"budget_towers": 1400, "solver_opts": {"ilp_refinement": False}},
        },
        axes={
            "scenario.max_range_km": [100, 80, 60],
            "scenario.usable_height_fraction": [1.0, 0.65],
        },
        why="Fig 10 grid: later points hit the terrain cache, so per-point "
        "cache keying dominates instead of terrain noise",
    ),
    Workload(
        "weather-year",
        WARM,
        _with(weather={"sample_interval_days": 1, "graded": True}),
        axes={
            "weather.frequency_ghz": [11, 18],
            "weather.fade_margin_db": [20, 25, 30, 35],
        },
        why="Fig 7 at daily resolution: storm fields and failure-set "
        "solves (graph removals) on a cached design",
    ),
    Workload(
        "diurnal-fluid",
        WARM,
        _with(
            netsim={
                "engine": "fluid",
                "transport": "tcp",
                "demand_model": "users",
                "users_millions": 10,
                "loads": [0.5, 0.8, 1.0, 1.2, 1.5],
            }
        ),
        axes={"netsim.demand_hour_utc": [2, 8, 14, 20]},
        why="million-user diurnal demand under the Mathis TCP model: "
        "the fluid max-min solver dominates",
    ),
    Workload(
        "packet-fig5",
        WARM,
        _with(
            netsim={"engine": "packet", "loads": [0.3, 0.6, 0.9, 1.2], "duration_s": 16}
        ),
        axes={"netsim.capacity_mode": ["k2", "tight"]},
        why="Fig 5 at packet level: per-event Python cost in the "
        "discrete-event engine dominates",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# --------------------------------------------------------------------------
# Child side: execute a workload and describe its outputs.
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one execution produced: rows plus per-operation status."""

    records: list
    statuses: list  # one {stage: "cached"|"computed"} per operation
    errors: dict  # operation index -> error message


def parse(workload: Workload, seed: int):
    """(ExperimentSpec, axes) for a workload at a seed."""
    from repro.exp import ExperimentSpec

    return ExperimentSpec.from_dict(workload.spec_for(seed)), dict(workload.axes)


def execute(spec, axes: dict, store) -> Outcome:
    """Run one workload through the public experiment API."""
    from repro.exp import RetryPolicy, SweepService, run_experiment

    if not axes:
        try:
            run = run_experiment(spec, store=store)
        except Exception as exc:  # an operation failure, counted not raised
            return Outcome([], [{}], {0: f"{type(exc).__name__}: {exc}"})
        return Outcome(run.records, [run.stage_status], {})
    # One attempt per point: a retried point would hide its failure
    # inside the timing instead of counting it.
    service = SweepService(
        spec, axes, store=store, jobs=1, retry=RetryPolicy(max_attempts=1)
    )
    result = service.run()
    errors = {f.index: f.error for f in result.failures}
    return Outcome(result.records, [p.stage_status for p in result.points], errors)


def digest_rows(records: list) -> list:
    """The rows the digest covers: no diagnostic rows, no timing columns."""
    return [
        {k: v for k, v in row.items() if k not in TIMING_COLUMNS}
        for row in records
        if row.get("series") != DIAGNOSTIC_SERIES
    ]


def digest(records: list) -> str:
    """sha256 of the canonical JSON of :func:`digest_rows`."""
    text = json.dumps(
        digest_rows(records), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_errors(spec, records: list) -> list[str]:
    """Seed-independent sanity checks on the paper's numbers."""
    errors = []
    stages = {row.get("stage") for row in records}
    for stage in ("substrate", "design", *spec.eval_stages()):
        if stage not in stages:
            errors.append(f"no {stage} rows")
    for row in records:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"{row.get('stage')} row has non-finite {key}")
        if row.get("stage") == "design":
            if not 1.0 <= row["mean_stretch"] <= row["fiber_mean_stretch"]:
                errors.append(
                    f"design stretch {row['mean_stretch']} outside "
                    f"[1, fiber {row['fiber_mean_stretch']}]"
                )
    return errors


# --------------------------------------------------------------------------
# Parent side: decide which operations failed.
# --------------------------------------------------------------------------


def failed_ops(
    workload: Workload, result: dict, reference: str | None
) -> dict[int, str]:
    """Operation index -> reason, for one child's reported result.

    An operation fails if it raised or was quarantined, if any stage
    landed in the wrong cached/computed status, or if the run's records
    miss the reference digest (then every operation of the run fails).
    """
    failed = {int(k): v for k, v in result["errors"].items()}
    for index, status in enumerate(result["statuses"]):
        if index in failed:
            continue
        for stage, outcome in status.items():
            if outcome != workload.expected_status(stage):
                failed[index] = f"stage {stage} {outcome}, expected {workload.expected_status(stage)}"
                break
    whole_run = list(result["record_errors"])
    if reference is not None and result["digest"] != reference:
        whole_run.append(f"digest {result['digest'][:12]} != reference {reference[:12]}")
    if whole_run:
        for index in range(workload.n_ops()):
            failed.setdefault(index, "; ".join(whole_run))
    return failed
