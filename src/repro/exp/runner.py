"""Experiment execution: single runs and the points of a sweep.

:func:`run_experiment` walks the stage DAG for one
:class:`~repro.exp.spec.ExperimentSpec` in topological order, fetching
each stage artifact from the :class:`~repro.exp.store.ArtifactStore`
(status ``"cached"``) or computing and publishing it (``"computed"``).

A sweep expands a base spec over declared axes (the cartesian
product): :func:`expand_points` fixes the point order and
:func:`point_waves` schedules cold points so shared stages compute
once.  :class:`~repro.exp.service.SweepService` executes the points.
Determinism contract: every stage is a pure function of its
seed-pinned spec slice, and rows are emitted in point order — so a
``jobs=4`` sweep is byte-identical to ``jobs=1``, and a warm-cache
rerun is byte-identical to the cold run while skipping every
substrate/design execution.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from .spec import ExperimentSpec, canonical_json
from .stages import BASE_STAGES, STAGES, stage_key
from .store import CACHED, COMPUTED, ArtifactStore, NullStore


@dataclass
class ExperimentRun:
    """One executed spec: artifacts, tidy rows, and per-stage status.

    Attributes:
        spec: the spec that ran.
        records: tidy rows (each carries a ``stage`` column).
        stage_status: stage name -> "cached" | "computed".
        artifacts: stage name -> artifact (substrate Scenario, design
            DesignResult, evaluation record lists).
    """

    spec: ExperimentSpec
    records: list[dict]
    stage_status: dict[str, str]
    artifacts: dict[str, Any]

    def records_json(self) -> str:
        """Canonical JSON of the rows (byte-comparable across runs)."""
        return canonical_json(self.records)


def run_experiment(
    spec: ExperimentSpec,
    store: ArtifactStore | None = None,
    stages: Sequence[str] | None = None,
) -> ExperimentRun:
    """Execute one spec through the stage DAG.

    Args:
        spec: the experiment to run.
        store: artifact cache; defaults to the on-disk store at
            ``$REPRO_ARTIFACT_DIR`` (or ``~/.cache/repro/artifacts``).
            Pass :class:`~repro.exp.store.NullStore` to disable caching.
        stages: stages to materialize.  The default — substrate, design,
            and every evaluation section the spec enables — always
            includes substrate/design (from cache when warm).  An
            explicit tuple materializes exactly those stages, pulling in
            dependencies only on cache misses (so e.g. ``("econ",)``
            with a pinned cost never touches the design).
    """
    store = store if store is not None else ArtifactStore()
    if stages is not None:
        requested = tuple(stages)
    else:
        requested = (*BASE_STAGES, *spec.eval_stages())
    unknown = [s for s in requested if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stage(s): {', '.join(unknown)}")
    for name in requested:
        if name not in BASE_STAGES and getattr(spec, name, None) is None:
            raise ValueError(
                f"stage {name!r} requested but the spec's {name!r} section "
                "is not enabled"
            )

    artifacts: dict[str, Any] = {}
    status: dict[str, str] = {}

    def materialize(name: str) -> Any:
        if name in artifacts:
            return artifacts[name]
        stage = STAGES[name]
        # Check this stage's cache *before* touching its dependencies: a
        # cached evaluation never loads the (much larger) substrate or
        # design artifacts it was computed from.
        key = stage_key(spec, name)
        found, artifact = store.get(key)
        if found:
            stage_status = CACHED
        else:
            inputs = {dep: materialize(dep) for dep in stage.deps(spec)}
            artifact = stage.run(spec, inputs)
            store.put(key, artifact)
            stage_status = COMPUTED
        artifacts[name] = artifact
        status[name] = stage_status
        return artifact

    for name in requested:
        materialize(name)

    # Records cover exactly the requested stages, in requested order:
    # dependencies pulled in by a cache miss must not change the output
    # (cold and warm runs of the same call stay byte-identical).
    records: list[dict] = []
    emitted: set[str] = set()
    for name in requested:
        if name in emitted:
            continue
        emitted.add(name)
        for row in STAGES[name].records(spec, artifacts[name]):
            if "stage" not in row:
                row = {"stage": name, **row}
            records.append(row)
    return ExperimentRun(
        spec=spec, records=records, stage_status=status, artifacts=artifacts
    )


# --------------------------------------------------------------------------
# Sweeps.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted spec path and its values.

    ``path`` addresses a field of an enabled spec section, e.g.
    ``"design.budget_towers"`` or ``"netsim.loads"``.
    """

    path: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.path!r} needs at least one value")


def _axis_list(
    axes: Mapping[str, Sequence] | Sequence[SweepAxis],
) -> tuple[SweepAxis, ...]:
    if isinstance(axes, Mapping):
        return tuple(SweepAxis(path, tuple(values)) for path, values in axes.items())
    return tuple(
        a if isinstance(a, SweepAxis) else SweepAxis(a[0], tuple(a[1])) for a in axes
    )


def expand_points(
    base_spec: ExperimentSpec, axes: tuple[SweepAxis, ...]
) -> list[tuple[dict, ExperimentSpec]]:
    """(axis-assignment, spec) for every sweep point, in sweep order.

    The cartesian product of the axis values, first axis outermost —
    the single source of point indexing for
    :class:`~repro.exp.service.SweepService` (a journal written by one
    session must mean the same points to the session that resumes it).
    """
    combos = itertools.product(*(axis.values for axis in axes))
    points = []
    for combo in combos:
        spec = base_spec
        assignment: dict[str, Any] = {}
        for axis, value in zip(axes, combo):
            spec = spec.with_value(axis.path, value)
            assignment[axis.path] = value
        points.append((assignment, spec))
    return points


def point_waves(
    points: list[tuple[dict, ExperimentSpec]],
    store: ArtifactStore,
    indices: Sequence[int] | None = None,
) -> list[list[int]]:
    """Schedule points so shared expensive stages compute once.

    Cold points sharing a substrate or design key would otherwise
    race: every worker misses the store at the same time and
    redundantly rebuilds the same artifact.  Each wave runs one
    representative point per distinct stage key (substrate first,
    then design) so later waves find the shared artifacts published;
    on a warm store the extra barriers cost microseconds.  With a
    NullStore nothing is shareable, so there is one wave.

    ``indices`` restricts scheduling to a subset of the points (the
    resume path only schedules points without a journal entry).  The
    service's worker pool runs one wave at a time; inline execution
    never races itself and needs no waves.
    """
    order = list(range(len(points))) if indices is None else list(indices)
    if isinstance(store, NullStore):
        return [order] if order else []
    remaining = order
    waves: list[list[int]] = []
    for stage_name in BASE_STAGES:
        reps: list[int] = []
        rest: list[int] = []
        seen: set[str] = set()
        for index in remaining:
            key = stage_key(points[index][1], stage_name)
            if key in seen:
                rest.append(index)
            else:
                seen.add(key)
                reps.append(index)
        if rest:  # sharing exists at this level: barrier after reps
            waves.append(reps)
            remaining = rest
    if remaining:
        waves.append(remaining)
    return waves
