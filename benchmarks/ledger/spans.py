"""Layer spans recorded from outside the program.

The traced child installs wrappers around about thirty public layer
functions before it runs its workload.  Each call into a wrapped
function becomes one span: name, start, end, parent span id, plus item
counts taken from the call's arguments or result.  Spans stay in memory
and are written to a JSON-lines sidecar when the run ends.

A span's ``self_s`` is its duration minus the durations of its direct
child spans (calls are single-threaded, so children never overlap).

Do not rename this module ``trace``: the standard library has one, and
pytest puts this directory first on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """In-memory span recorder for one single-threaded run.

    ``records`` holds ``[id, name, parent, start, end, items]`` lists;
    ``counts`` holds counter-only layers (one increment per call).
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, items: Callable | None = None) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        records, stack = self.records, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(records)
            rec = [sid, name, stack[-1] if stack else None, perf_counter(), None, None]
            records.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if items is not None:
                rec[5] = items(result, *args, **kwargs)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting calls under ``name``, without a span per call."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write_jsonl(self, path: str, tag: dict) -> None:
        """Append every span to ``path`` as one JSON object per line."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, parent, start, end, items in self.records:
                doc = {**tag, "id": sid, "name": name, "parent": parent,
                       "start": start, "end": end}
                if items:
                    doc["items"] = items
                fh.write(json.dumps(doc) + "\n")


# --------------------------------------------------------------------------
# Item counts: (result, *call args) -> {suffix: count}.
# --------------------------------------------------------------------------


def _rows(result, *args, **kwargs) -> dict:
    return {"items": len(result)}


def _points(result, *args, **kwargs) -> dict:
    return {"items": int(result.size)}


def _pairs(result, *args, **kwargs) -> dict:
    return {"items": len(result[0])}


def _store_get(result, store, key) -> dict:
    found = bool(result[0])
    return {"hits": int(found), "bytes": os.path.getsize(store.path_for(key)) if found else 0}


def _store_put(result, store, key, artifact) -> dict:
    return {"bytes": os.path.getsize(result)}


@dataclass(frozen=True)
class Patch:
    """One wrapped call site.

    ``target`` is ``"module:Attr"`` or ``"module:Class.method"``; names
    imported into another module are patched where they are imported.
    ``kind`` is ``"span"`` or ``"counter"``.
    """

    name: str
    target: str
    items: Callable | None = None
    kind: str = "span"


#: Stages replaced in ``repro.exp.stages.STAGES`` (one span each).
STAGE_NAMES = ("substrate", "design", "netsim", "weather", "apps", "econ")

PATCHES: tuple[Patch, ...] = (
    Patch("exp.store.get", "repro.exp.store:ArtifactStore.get", _store_get),
    Patch("exp.store.put", "repro.exp.store:ArtifactStore.put", _store_put),
    Patch("geo.terrain.elevation_m", "repro.geo.terrain:TerrainModel.elevation_m", _points),
    Patch("core.pipeline.profile_terrain_m",
          "repro.core.pipeline:CachingLosChecker.profile_terrain_m", _rows),
    Patch("core.pipeline.ground_elevation_m",
          "repro.core.pipeline:CachingLosChecker.ground_elevation_m", _rows),
    Patch("towers.los.profile_terrain_m", "repro.towers.los:LosChecker.profile_terrain_m", _rows),
    Patch("core.pipeline.candidate_pairs", "repro.core.pipeline:HopPipeline.candidate_pairs", _pairs),
    Patch("core.pipeline.feasible_mask", "repro.core.pipeline:HopPipeline.feasible_mask", _rows),
    Patch("towers.synthesis.synthesize_towers", "repro.scenarios.base:synthesize_towers", _rows),
    Patch("towers.registry.cull_towers", "repro.scenarios.base:cull_towers"),
    Patch("links.builder.build_link_catalog", "repro.scenarios.base:build_link_catalog"),
    Patch("fiber.conduits.build_conduit_network", "repro.scenarios.base:build_conduit_network"),
    Patch("core.heuristic.solve_heuristic", "repro.core.design:solve_heuristic"),
    Patch("core.heuristic.greedy_sequence", "repro.core.heuristic:greedy_sequence", _rows),
    Patch("graph.kernel.edge_delta_distances", "repro.core.heuristic:edge_delta_distances",
          kind="counter"),
    Patch("core.augmentation.augment_capacity", "repro.core.design:augment_capacity"),
    Patch("graph.kernel.distances", "repro.graph.kernel:GraphKernel.distances"),
    Patch("core.topology.routed_paths", "repro.core.topology:Topology.routed_paths"),
    Patch("netsim.tcpmodel.solve_fluid_tcp", "repro.netsim.experiments:solve_fluid_tcp"),
    Patch("netsim.fluid.solve_fluid", "repro.netsim.experiments:solve_fluid"),
    Patch("netsim.fluid.solve_fluid", "repro.netsim.tcpmodel:solve_fluid"),
    Patch("netsim.engine.run", "repro.netsim.engine:Simulator.run"),
    Patch("weather.precipitation.rain_rate_mm_h_many",
          "repro.weather.precipitation:PrecipitationYear.rain_rate_mm_h_many", _rows),
    Patch("graph.whatif.distances_for", "repro.graph.whatif:FailureSetSolver.distances_for"),
    Patch("weather.evaluation.binary_year",
          "repro.weather.evaluation:YearlyWeatherEvaluator.binary_year"),
    Patch("weather.evaluation.graded_year",
          "repro.weather.evaluation:YearlyWeatherEvaluator.graded_year"),
)

#: Spans whose item counts are reported, with the suffixes they carry.
ITEM_SUFFIXES = {p.name: ("items",) for p in PATCHES if p.items in (_rows, _points, _pairs)}
ITEM_SUFFIXES["exp.store.get"] = ("hits", "bytes")
ITEM_SUFFIXES["exp.store.put"] = ("bytes",)

SPAN_NAMES = tuple(
    [f"exp.stage.{s}" for s in STAGE_NAMES]
    + list(dict.fromkeys(p.name for p in PATCHES if p.kind == "span"))
)
COUNTER_NAMES = tuple(p.name for p in PATCHES if p.kind == "counter")


def _resolve(target: str) -> tuple[Any, str] | None:
    """(owner, attribute) for a patch target, or None if it is gone.

    A class method must be defined on the class itself: patching an
    inherited method on a subclass would count its calls twice.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if hasattr(owner, attr) else None


def missing_targets() -> list[str]:
    """Patch targets (and stages) that no longer resolve."""
    from repro.exp.stages import STAGES

    missing = [p.target for p in PATCHES if _resolve(p.target) is None]
    missing += [f"repro.exp.stages:STAGES[{s!r}]" for s in STAGE_NAMES if s not in STAGES]
    return missing


def install(tracer: Tracer) -> list[str]:
    """Wrap every resolvable target for ``tracer``; return the missing ones.

    Stages are replaced with ``dataclasses.replace(stage, run=...)``, so
    their payload and version, and hence every cache key, stay the same.
    """
    from repro.exp.stages import STAGES

    for stage in STAGE_NAMES:
        if stage in STAGES:
            STAGES[stage] = dataclasses.replace(
                STAGES[stage], run=tracer.wrap(f"exp.stage.{stage}", STAGES[stage].run)
            )
    for patch in PATCHES:
        resolved = _resolve(patch.target)
        if resolved is None:
            continue
        owner, attr = resolved
        original = getattr(owner, attr)
        if patch.kind == "counter":
            setattr(owner, attr, tracer.counter(patch.name, original))
        else:
            setattr(owner, attr, tracer.wrap(patch.name, original, patch.items))
    return missing_targets()


# --------------------------------------------------------------------------
# Summaries.
# --------------------------------------------------------------------------


def summarize(records: list[list], counts: dict | None = None) -> dict[str, dict]:
    """Per span name: inclusive ``s``, ``self_s``, ``calls`` and item sums."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, parent, start, end, _items in records:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, name, _parent, start, end, items in records:
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        row["calls"] += 1
        for key, value in (items or {}).items():
            row[key] = row.get(key, 0) + value
    for name, calls in (counts or {}).items():
        out.setdefault(name, {})["calls"] = calls
    return out


def count_under(records: list[list], name: str, ancestor: str) -> int:
    """Spans named ``name`` with a span named ``ancestor`` above them."""
    names = {rec[0]: rec[1] for rec in records}
    parents = {rec[0]: rec[2] for rec in records}
    total = 0
    for _sid, rec_name, parent, *_ in records:
        if rec_name != name:
            continue
        while parent is not None and names[parent] != ancestor:
            parent = parents[parent]
        total += parent is not None
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric of one traced run, as ``{value, unit}``.

    Names not hit by the workload read 0, so every run reports the same
    set of names.
    """
    summary = summarize(tracer.records, tracer.counts)
    out: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    for name in SPAN_NAMES:
        put(f"{name}.s", float(get(name, "s")), "s")
        put(f"{name}.self_s", float(get(name, "self_s")), "s")
        put(f"{name}.calls", get(name, "calls"), "count")
        for suffix in ITEM_SUFFIXES.get(name, ()):
            put(f"{name}.{suffix}", get(name, suffix), "bytes" if suffix == "bytes" else "count")
    for name in COUNTER_NAMES:
        put(f"{name}.calls", get(name, "calls"), "count")
    lookups = get("core.pipeline.profile_terrain_m", "items")
    sampled = get("towers.los.profile_terrain_m", "items")
    put("core.pipeline.terrain_cache_hit_ratio", 1.0 - sampled / lookups if lookups else 0.0, "ratio")
    put(
        "core.heuristic.greedy_useful_ratio",
        _ratio(get("core.heuristic.greedy_sequence", "items"),
               get("graph.kernel.edge_delta_distances", "calls")),
        "ratio",
    )
    put(
        "netsim.tcpmodel.fixed_point_iterations",
        count_under(tracer.records, "netsim.fluid.solve_fluid", "netsim.tcpmodel.solve_fluid_tcp"),
        "count",
    )
    put(
        "graph.whatif.full_solve_ratio",
        _ratio(count_under(tracer.records, "graph.kernel.distances", "graph.whatif.distances_for"),
               get("graph.whatif.distances_for", "calls")),
        "ratio",
    )
    return out
