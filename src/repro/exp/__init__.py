"""Experiment orchestration: spec DAG, artifact cache, sweep runner.

The composition layer behind every paper experiment: a declarative,
seed-pinned :class:`ExperimentSpec` runs through the stage graph
``substrate → design → {netsim, weather, apps, econ}`` with each stage
memoized in a content-addressed :class:`ArtifactStore`, and
:class:`SweepService` fans a spec out over axes, inline or across
worker processes, into one tidy :class:`SweepResult` table.  Every
sweep point is fault tolerant: a durable :class:`WorkQueue` journal,
bounded retry with quarantine, worker heartbeats + watchdog restarts,
crash resume, and deterministic :class:`FaultPlan` injection for chaos
testing.
"""

from .faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    KILL_EXIT_CODE,
    corrupt_artifact,
)
from .queue import TaskRecord, WorkQueue
from .runner import (
    ExperimentRun,
    SweepAxis,
    expand_points,
    point_waves,
    run_experiment,
)
from .service import (
    PointFailure,
    RetryPolicy,
    SweepResult,
    SweepService,
    sweep_fingerprint,
)
from .spec import (
    AppsSpec,
    DesignSpec,
    EconSpec,
    ExperimentSpec,
    NetsimSpec,
    ScenarioSpec,
    WeatherSpec,
    canonical_json,
)
from .stages import BASE_STAGES, STAGES, dependency_closure, stage_key
from .store import ArtifactStore, NullStore, artifact_key, default_store_root

__all__ = [
    "AppsSpec",
    "ArtifactStore",
    "BASE_STAGES",
    "DesignSpec",
    "EconSpec",
    "ExperimentRun",
    "ExperimentSpec",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "KILL_EXIT_CODE",
    "NetsimSpec",
    "NullStore",
    "PointFailure",
    "RetryPolicy",
    "STAGES",
    "ScenarioSpec",
    "SweepAxis",
    "SweepResult",
    "SweepService",
    "TaskRecord",
    "WeatherSpec",
    "WorkQueue",
    "artifact_key",
    "canonical_json",
    "corrupt_artifact",
    "default_store_root",
    "dependency_closure",
    "expand_points",
    "point_waves",
    "run_experiment",
    "stage_key",
    "sweep_fingerprint",
]
