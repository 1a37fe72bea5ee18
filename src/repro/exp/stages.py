"""The experiment stage graph: ``substrate → design → {netsim, weather, apps, econ}``.

Each :class:`Stage` declares

* which spec slice it consumes (``payload`` — the only thing, together
  with the version tags, that enters its cache key);
* which upstream artifacts it needs (``deps`` — a function of the spec,
  because e.g. the econ stage only needs the design when the network's
  own cost is requested);
* how to compute its artifact (``run``) and how to flatten the artifact
  into tidy records rows (``records``).

A stage's cache key covers its *whole producing chain*: the payloads
and version tags of the stage and every transitive dependency.  Change
the tower-synthesis seed and the substrate key moves — and with it the
design key and every evaluation key downstream; change only the budget
and the substrate artifact stays shared while designs re-key.

Bump a stage's ``version`` when its code changes semantics; solver
implementations carry their own ``version`` tag (see
``repro.core.design.solver_version``) which the design payload embeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .spec import ExperimentSpec
from .store import artifact_key


@dataclass(frozen=True)
class Stage:
    """One node of the experiment DAG.

    Attributes:
        name: stage name (also the records' ``stage`` column value).
        version: code-version tag; bumping it invalidates cached
            artifacts of this stage and everything downstream.
        deps: spec -> upstream stage names whose artifacts ``run`` needs.
        payload: spec -> the canonical slice this stage consumes (must
            be JSON-scalar only; every field that can change the output
            belongs here).
        run: (spec, {dep name: artifact}) -> artifact.  Must be
            deterministic given the payload chain.
        records: (spec, artifact) -> tidy rows for the records table.
    """

    name: str
    version: str
    deps: Callable[[ExperimentSpec], tuple[str, ...]]
    payload: Callable[[ExperimentSpec], dict]
    run: Callable[[ExperimentSpec, dict[str, Any]], Any]
    records: Callable[[ExperimentSpec, Any], list[dict]]


def _no_deps(spec: ExperimentSpec) -> tuple[str, ...]:
    return ()


def _design_deps(spec: ExperimentSpec) -> tuple[str, ...]:
    return ("substrate",)


# --------------------------------------------------------------------------
# substrate: sites + terrain + towers + hop enumeration + fiber.
# --------------------------------------------------------------------------


def _substrate_payload(spec: ExperimentSpec) -> dict:
    sc = spec.scenario
    return {
        "name": sc.name,
        "sites": sc.sites,
        "max_range_km": float(sc.max_range_km),
        "usable_height_fraction": float(sc.usable_height_fraction),
        "seed": sc.resolved_seed(),
    }


def _run_substrate(spec: ExperimentSpec, inputs: dict[str, Any]):
    from ..scenarios import get_scenario

    sc = spec.scenario
    # Pass the *resolved* seed: the cache key hashes it, so execution
    # must use the identical value (never a builder-side default).
    return get_scenario(
        sc.name,
        sites=sc.sites,
        max_range_km=sc.max_range_km,
        usable_height_fraction=sc.usable_height_fraction,
        seed=sc.resolved_seed(),
    )


def _substrate_records(spec: ExperimentSpec, scenario) -> list[dict]:
    import numpy as np

    iu = np.triu_indices(scenario.n_sites, k=1)
    return [
        {
            "stage": "substrate",
            "scenario": scenario.name,
            "sites": int(scenario.n_sites),
            "candidate_links": int(np.isfinite(scenario.catalog.mw_km[iu]).sum()),
        }
    ]


# --------------------------------------------------------------------------
# design: topology solve + capacity augmentation + costing.
# --------------------------------------------------------------------------


def _design_payload(spec: ExperimentSpec) -> dict:
    from ..core.design import solver_version
    from ..graph import graph_kernel_version

    d = spec.design
    return {
        "budget_towers": float(d.budget_towers),
        "solver": d.solver,
        "solver_version": solver_version(d.solver),
        # Every design (and every evaluation downstream of one) flows
        # through the shared graph kernel; bumping KERNEL_VERSION when
        # its semantics change retires the affected artifacts, exactly
        # like a solver version bump.
        "graph_kernel": graph_kernel_version(),
        "aggregate_gbps": None if d.aggregate_gbps is None else float(d.aggregate_gbps),
        "solver_opts": {str(k): v for k, v in d.solver_opts},
    }


def _run_design(spec: ExperimentSpec, inputs: dict[str, Any]):
    from ..core import design_network

    scenario = inputs["substrate"]
    d = spec.design
    return design_network(
        scenario.design_input(),
        budget_towers=d.budget_towers,
        aggregate_gbps=d.aggregate_gbps,
        catalog=scenario.catalog,
        registry=scenario.registry,
        solver=d.solver,
        **d.opts_dict(),
    )


def _design_records(spec: ExperimentSpec, result) -> list[dict]:
    row = {
        "stage": "design",
        "scenario": spec.scenario.name,
        "solver": result.backend,
        "budget_towers": float(spec.design.budget_towers),
        "towers_used": float(result.towers_used),
        "mw_links": int(result.mw_link_count),
        "mean_stretch": float(result.mean_stretch),
        "fiber_mean_stretch": float(result.fiber_mean_stretch),
    }
    if result.cost_per_gb_usd is not None:
        row["cost_per_gb_usd"] = float(result.cost_per_gb_usd)
    return [row]


# --------------------------------------------------------------------------
# netsim: the Fig 5 load curve over the designed topology.
# --------------------------------------------------------------------------


def _netsim_payload(spec: ExperimentSpec) -> dict:
    ns = spec.netsim
    assert ns is not None
    return {
        "loads": list(ns.loads),
        "engine": ns.engine,
        "duration_s": float(ns.duration_s),
        "seed": int(ns.seed),
        "capacity_mode": ns.capacity_mode,
        "demand_model": ns.demand_model,
        "demand_hour_utc": float(ns.demand_hour_utc),
        "demand_seed": int(ns.demand_seed),
        "users_millions": (
            None if ns.users_millions is None else float(ns.users_millions)
        ),
        "transport": ns.transport,
        "profile": bool(ns.profile),
    }


def _run_netsim(spec: ExperimentSpec, inputs: dict[str, Any]):
    from ..netsim.experiments import run_load_curve

    ns = spec.netsim
    assert ns is not None
    design = inputs["design"]
    aggregate = spec.design.aggregate_gbps
    if aggregate is None:
        raise ValueError(
            "the netsim stage needs design.aggregate_gbps (link capacities "
            "derive from routing the design traffic)"
        )
    return run_load_curve(
        design.topology,
        aggregate,
        ns.loads,
        engine=ns.engine,
        duration_s=ns.duration_s,
        seed=ns.seed,
        capacity_mode=ns.capacity_mode,
        demand_model=ns.demand_model,
        demand_hour_utc=ns.demand_hour_utc,
        demand_seed=ns.demand_seed,
        users_millions=ns.users_millions,
        transport=ns.transport,
        profile=ns.profile,
    )


def _rows_passthrough(spec: ExperimentSpec, artifact) -> list[dict]:
    # Copy the rows: callers may annotate records in place, and the
    # artifact list is shared via the store's per-process memory layer.
    return [dict(row) for row in artifact]


# --------------------------------------------------------------------------
# weather: the Fig 7 yearly analysis (binary, optionally graded).
# --------------------------------------------------------------------------


def _weather_payload(spec: ExperimentSpec) -> dict:
    w = spec.weather
    assert w is not None
    return {
        "n_intervals": int(w.n_intervals),
        "fade_margin_db": float(w.fade_margin_db),
        "seed": int(w.seed),
        "graded": bool(w.graded),
        "frequency_ghz": float(w.frequency_ghz),
        "sample_interval_days": (
            None
            if w.sample_interval_days is None
            else int(w.sample_interval_days)
        ),
        "delta_k": int(w.delta_k),
        "cache_mb": float(w.cache_mb),
    }


def _weather_deps(spec: ExperimentSpec) -> tuple[str, ...]:
    return ("substrate", "design")


def _run_weather(spec: ExperimentSpec, inputs: dict[str, Any]):
    from ..weather.degradation import weather_stage_records
    from ..weather.precipitation import EU_CLIMATE, US_CLIMATE, PrecipitationYear

    w = spec.weather
    assert w is not None
    scenario = inputs["substrate"]
    design = inputs["design"]
    # Storms fall where the scenario's towers stand; every scenario but
    # Europe (us, interdc, city_dc) is in the US.
    climate = EU_CLIMATE if spec.scenario.name == "europe" else US_CLIMATE
    return weather_stage_records(
        design.topology,
        scenario.catalog,
        scenario.registry,
        precipitation=PrecipitationYear(climate),
        n_intervals=w.n_intervals,
        fade_margin_db=w.fade_margin_db,
        seed=w.seed,
        graded=w.graded,
        frequency_ghz=w.frequency_ghz,
        sample_interval_days=w.sample_interval_days,
        delta_k=w.delta_k,
        cache_mb=w.cache_mb,
    )


# --------------------------------------------------------------------------
# apps: §6.6 fast-path planning over the deployed capacity.
# --------------------------------------------------------------------------


def _apps_capacity(spec: ExperimentSpec) -> float | None:
    """The effective fast-path capacity: explicit, else the design target.

    Both the cache payload and the stage execution resolve through this
    one helper so the key always describes what was computed.
    """
    assert spec.apps is not None
    if spec.apps.capacity_gbps is not None:
        return float(spec.apps.capacity_gbps)
    if spec.design.aggregate_gbps is not None:
        return float(spec.design.aggregate_gbps)
    return None


def _apps_payload(spec: ExperimentSpec) -> dict:
    a = spec.apps
    assert a is not None
    # Resolving the capacity default *here* keeps the cache key on the
    # effective capacity only — not the whole design closure (the stage
    # never reads the design artifact).
    return {
        "capacity_gbps": _apps_capacity(spec),
        "min_value_per_gb": float(a.min_value_per_gb),
    }


def _apps_deps(spec: ExperimentSpec) -> tuple[str, ...]:
    return ()


def _run_apps(spec: ExperimentSpec, inputs: dict[str, Any]):
    from ..apps.integration import plan_fast_path

    a = spec.apps
    assert a is not None
    capacity = _apps_capacity(spec)
    if capacity is None:
        raise ValueError(
            "the apps stage needs apps.capacity_gbps or design.aggregate_gbps"
        )
    return plan_fast_path(capacity, min_value_per_gb=a.min_value_per_gb)


def _apps_records(spec: ExperimentSpec, plan) -> list[dict]:
    from ..apps.integration import plan_records

    return plan_records(plan)


# --------------------------------------------------------------------------
# econ: the §8 value-per-GB table against the network's cost.
# --------------------------------------------------------------------------


def _econ_payload(spec: ExperimentSpec) -> dict:
    e = spec.econ
    assert e is not None
    return {
        "cost_per_gb": None if e.cost_per_gb is None else float(e.cost_per_gb),
    }


def _econ_deps(spec: ExperimentSpec) -> tuple[str, ...]:
    assert spec.econ is not None
    return () if spec.econ.cost_per_gb is not None else ("design",)


def _run_econ(spec: ExperimentSpec, inputs: dict[str, Any]):
    from ..apps.econ import econ_records

    e = spec.econ
    assert e is not None
    cost = e.cost_per_gb
    if cost is None:
        design = inputs["design"]
        cost = design.cost_per_gb_usd
        if cost is None:
            raise ValueError(
                "the econ stage needs econ.cost_per_gb or a provisioned "
                "design (design.aggregate_gbps) to take the cost from"
            )
    return econ_records(float(cost))


# --------------------------------------------------------------------------
# The registry and key derivation.
# --------------------------------------------------------------------------

STAGES: dict[str, Stage] = {
    "substrate": Stage(
        name="substrate",
        version="1",
        deps=_no_deps,
        payload=_substrate_payload,
        run=_run_substrate,
        records=_substrate_records,
    ),
    "design": Stage(
        name="design",
        version="1",
        deps=_design_deps,
        payload=_design_payload,
        run=_run_design,
        records=_design_records,
    ),
    "netsim": Stage(
        name="netsim",
        # v2: vectorized commodity-aggregate fluid solver (rate-identical
        # up to float noise, but duplicate parallel links now aggregate
        # instead of overwriting), record rows grew transport/demand_model,
        # and the payload grew the demand-model and transport knobs.
        # v3: array-native flow tables — the payload grew the workload
        # (object/table) and profile knobs, load-curve invariants are
        # hoisted out of the per-load loop (values unchanged), and
        # profile=True rows carry setup/fill/freeze timing counters.
        # v4: the payload lost ``workload`` (one fluid workload path).
        version="4",
        deps=lambda spec: ("design",),
        payload=_netsim_payload,
        run=_run_netsim,
        records=_rows_passthrough,
    ),
    "weather": Stage(
        name="weather",
        # v2: shared sampler/evaluator (vectorized failures, failure-set
        # memoized solves); binary series are bit-identical to v1, but
        # the graded capacity-loss mean is now vectorized (float-level
        # change) and the payload grew ``frequency_ghz``.
        # v3: failure-set queries route through the delta-reuse solver
        # (near-identical sets derived compositionally — <= 1e-9 vs a
        # full solve, not bitwise), records gained a ``series="solver"``
        # counters row, and the payload grew ``sample_interval_days``
        # (daily-resolution grid), ``delta_k``, and ``cache_mb``.
        # v4: Europe evaluates storms from the European climate instead
        # of the US one, so Europe weather records change; US records
        # (us, interdc, city_dc) do not.
        version="4",
        deps=_weather_deps,
        payload=_weather_payload,
        run=_run_weather,
        records=_rows_passthrough,
    ),
    "apps": Stage(
        name="apps",
        version="1",
        deps=_apps_deps,
        payload=_apps_payload,
        run=_run_apps,
        records=_apps_records,
    ),
    "econ": Stage(
        name="econ",
        version="1",
        deps=_econ_deps,
        payload=_econ_payload,
        run=_run_econ,
        records=_rows_passthrough,
    ),
}

#: Stages every experiment materializes, in order.
BASE_STAGES = ("substrate", "design")


def stage_code_targets() -> dict[str, dict]:
    """The versioned code surface the stage-version lockfile pins.

    Maps every lock entry to its hand-bumped version tag plus the code
    it governs: ``functions`` are hashed with their transitive
    repo-local callees, ``packages`` hash every definition under the
    module prefix (and become opaque boundaries in *other* entries'
    closures — see :mod:`repro.analysis.callgraph`).

    For stages, the hashed surface is ``payload`` + ``run`` — exactly
    the code whose semantics the cache key's version tag stands in
    for.  ``records`` functions are excluded on purpose: rows re-derive
    from stored artifacts at read time, so a records change can never
    poison the store.  ``deps`` functions need no pinning either — the
    key closure re-derives from them at runtime.
    """
    from ..core.design import get_solver, solver_names, solver_version

    targets: dict[str, dict] = {}
    for name in sorted(STAGES):
        stage = STAGES[name]
        targets[f"stage:{name}"] = {
            "version": stage.version,
            "functions": (stage.payload, stage.run),
        }
    for name in solver_names():
        targets[f"solver:{name}"] = {
            "version": solver_version(name),
            "functions": (type(get_solver(name)).solve,),
        }
    from ..graph import graph_kernel_version

    targets["graph:kernel"] = {
        "version": graph_kernel_version(),
        "packages": ("repro.graph",),
    }
    return targets


def dependency_closure(spec: ExperimentSpec, name: str) -> tuple[str, ...]:
    """The stage and its transitive dependencies, dependencies first."""
    seen: list[str] = []

    def visit(n: str) -> None:
        if n in seen:
            return
        for dep in STAGES[n].deps(spec):
            visit(dep)
        seen.append(n)

    visit(name)
    return tuple(seen)


def stage_key(spec: ExperimentSpec, name: str) -> str:
    """The content address of one stage's artifact for one spec.

    Covers the payload and version of the stage and of every transitive
    dependency — the full producing chain.
    """
    closure = dependency_closure(spec, name)
    versions = {n: STAGES[n].version for n in closure}
    payload = {n: STAGES[n].payload(spec) for n in closure}
    return artifact_key(name, versions, payload)
