"""Declarative, seed-pinned experiment specifications.

An :class:`ExperimentSpec` names everything a composed experiment
consumes — the scenario substrate, the topology design, and the
evaluations (netsim load curve, weather year, fast-path planning,
cost-benefit) — with every random seed explicit, so the same spec
always produces the same artifacts and records.

Specs have one *canonical* dict/JSON form (:meth:`ExperimentSpec.to_dict`
/ :func:`canonical_json`): nested plain dicts with sorted keys and only
JSON scalars.  The orchestration layer hashes slices of that form to
content-address cached artifacts, so canonicalization — not object
identity — is what makes caching correct across processes and sessions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

#: Scenario names the substrate stage can build (see
#: :func:`repro.scenarios.get_scenario`).
SCENARIO_NAMES = ("us", "europe", "interdc", "city_dc")

#: Per-scenario default tower-synthesis seeds (match the historical
#: defaults of the ``us_scenario``/``europe_scenario``/... builders).
SCENARIO_DEFAULT_SEEDS = {"us": 42, "europe": 43, "interdc": 44, "city_dc": 45}

#: Scenarios whose site list is fixed (``sites`` must stay None).
FIXED_SITE_SCENARIOS = ("europe", "interdc")

#: Scenarios that take no line-of-sight overrides.
FIXED_LOS_SCENARIOS = ("interdc", "city_dc")

#: Netsim engines (single source; the netsim package and CLI import it).
ENGINES = ("packet", "fluid")

#: Link provisioning for netsim: "k2" gives each MW link k^2 Gbps for
#: its routed demand (Step 3); "tight" rounds the demand up to whole Gbps.
CAPACITY_MODES = ("k2", "tight")

#: How the offered traffic matrix is built: "design" scales the design
#: matrix by a load fraction; "users" builds it bottom-up from per-city
#: populations (diurnal + heavy-tail million-user demand layer).
DEMAND_MODELS = ("design", "users")

#: Transport macro-models: "udp" offers demand open-loop; "tcp" caps
#: each flow at its Mathis-model rate (fluid engine only).
TRANSPORTS = ("udp", "tcp")


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of a plain dict/list/scalar tree.

    Sorted keys, no whitespace, NaN/Infinity rejected — two equal trees
    always serialize to the same bytes, in any process.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _scalar(value: Any) -> Any:
    """Coerce numpy scalars and tuples to JSON-clean plain values."""
    if isinstance(value, (list, tuple)):
        return [_scalar(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _scalar(v) for k, v in sorted(value.items())}
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _check_int(path: str, value: Any, low: int, high: int | None = None) -> None:
    """Reject a non-integer (a bool included) outside ``[low, high]``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
        or (high is not None and value > high)
    ):
        want = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{path} must be an integer {want}, got {value!r}")


def _check_real(path: str, value: Any, want: str, ok: Callable[[Any], bool]) -> None:
    """Reject a non-number (a bool included), NaN, infinity, or a value
    failing ``ok``; ``want`` names the accepted range."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or not ok(value)
    ):
        raise ValueError(f"{path} must be a finite number {want}, got {value!r}")


#: The two common ranges of :func:`_check_real`.
_POSITIVE = ("> 0", lambda v: v > 0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)


def _check_choice(path: str, value: Any, choices) -> None:
    if value not in choices:
        raise ValueError(
            f"{path} must be one of {', '.join(choices)}, got {value!r}"
        )


def _asdict(spec: Any) -> dict:
    """A dataclass's canonical dict: plain scalars, tuples as lists."""
    out = {}
    for f in fields(spec):
        out[f.name] = _scalar(getattr(spec, f.name))
    return out


def _fromdict(cls, data: Mapping[str, Any], section: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {section} spec field(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    kwargs = dict(data)
    # Tuples survive the JSON round trip as lists.
    for f in fields(cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list):
            kwargs[f.name] = tuple(kwargs[f.name])
    return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """The substrate half of a spec: which geography, which seeds.

    Attributes:
        name: scenario family ("us", "europe", "interdc", "city_dc").
        sites: site-list size for scenarios that take one (``us``,
            ``city_dc``), at most the number of US population centers;
            must stay None for fixed-site scenarios (``europe``,
            ``interdc``) — passing it there is an error, never silently
            ignored.
        max_range_km: maximum MW hop length (§6.5 sweeps 60-100 km).
        usable_height_fraction: antenna mounting-height restriction.
        seed: tower-synthesis seed; None pins the scenario's historical
            default (42/43/44/45) so default specs equal explicit ones.
    """

    name: str = "us"
    sites: int | None = None
    max_range_km: float = 100.0
    usable_height_fraction: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.name!r} (choose from {', '.join(SCENARIO_NAMES)})"
            )
        if self.sites is not None:
            # Imported here, as DesignSpec imports the solver names:
            # this module must stay dependency-light at import time.
            from ..datasets.us_cities import us_population_centers

            sized = self.name in ("us", "city_dc")
            high = len(us_population_centers()) if sized else None
            _check_int("scenario.sites", self.sites, 2, high)
        if self.seed is not None:
            _check_int("scenario.seed", self.seed, 0)
        _check_real("scenario.max_range_km", self.max_range_km, *_POSITIVE)
        _check_real(
            "scenario.usable_height_fraction",
            self.usable_height_fraction,
            "in (0, 1]",
            lambda v: 0 < v <= 1,
        )
        if self.name in FIXED_SITE_SCENARIOS and self.sites is not None:
            raise ValueError(
                f"scenario {self.name!r} has a fixed site list; "
                f"'sites' is not supported (got {self.sites})"
            )
        if self.name in FIXED_LOS_SCENARIOS and (
            self.max_range_km != 100.0 or self.usable_height_fraction != 1.0
        ):
            raise ValueError(
                f"scenario {self.name!r} does not take LoS overrides "
                "(max_range_km / usable_height_fraction)"
            )

    def resolved_seed(self) -> int:
        """The tower-synthesis seed with the scenario default applied."""
        return SCENARIO_DEFAULT_SEEDS[self.name] if self.seed is None else self.seed


@dataclass(frozen=True)
class DesignSpec:
    """The topology-design half: budget, solver, provisioning target.

    Attributes:
        budget_towers: the tower budget B.
        solver: registry backend name (see ``repro.core.solver_names``).
        aggregate_gbps: Step-3 provisioning target (a finite number
            > 0); None skips capacity augmentation and costing.
        solver_opts: backend-specific options, stored as a sorted tuple
            of (key, value) pairs so the spec stays hashable and its
            canonical form is order-independent.
    """

    budget_towers: float = 1000.0
    solver: str = "heuristic"
    aggregate_gbps: float | None = None
    solver_opts: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Imported here: the solver registry lives in repro.core, which
        # this dependency-light module must not pull in at import time.
        from ..core.design import solver_names

        _check_real("design.budget_towers", self.budget_towers, *_NON_NEGATIVE)
        _check_choice("design.solver", self.solver, solver_names())
        if self.aggregate_gbps is not None:
            _check_real("design.aggregate_gbps", self.aggregate_gbps, *_POSITIVE)
        opts = self.solver_opts
        if isinstance(opts, Mapping):
            opts = tuple(sorted(opts.items()))
        else:
            opts = tuple(sorted((str(k), v) for k, v in opts))
        object.__setattr__(self, "solver_opts", opts)

    def opts_dict(self) -> dict[str, Any]:
        return dict(self.solver_opts)


@dataclass(frozen=True)
class NetsimSpec:
    """Load-curve evaluation (§5 / Fig 5 methodology).

    Attributes:
        loads: offered-load fractions of the design aggregate (or of the
            user-model aggregate under ``demand_model="users"``).
        engine: "packet" or "fluid".
        duration_s: simulated seconds per load point (packet engine).
        seed: Poisson-arrival seed (packet engine).
        capacity_mode: "k2" (Step-3 provisioning) or "tight".
        demand_model: "design" (scale the design matrix) or "users"
            (bottom-up per-city million-user demand).
        demand_hour_utc: UTC hour evaluated by the diurnal profile
            (users model only).
        demand_seed: heavy-tail per-city multiplier seed (users model).
        users_millions: rescale the user model to this many million
            active users network-wide; None keeps population-derived
            counts (users model only).
        transport: "udp" (open-loop offers) or "tcp" (Mathis macro-model
            caps; requires ``engine="fluid"``).
    """

    loads: tuple[float, ...] = (0.3, 0.6, 0.9)
    engine: str = "packet"
    duration_s: float = 0.5
    seed: int = 0
    capacity_mode: str = "k2"
    demand_model: str = "design"
    demand_hour_utc: float = 20.0
    demand_seed: int = 0
    users_millions: float | None = None
    transport: str = "udp"

    def __post_init__(self) -> None:
        if not isinstance(self.loads, (tuple, list)) or not self.loads:
            raise ValueError(
                "netsim.loads must be a list of load fractions in (0, 1.5], "
                f"got {self.loads!r}"
            )
        for load in self.loads:
            # A bool or a numeric string would otherwise convert silently.
            if (
                isinstance(load, bool)
                or not isinstance(load, numbers.Real)
                or not 0 < load <= 1.5
            ):
                raise ValueError(
                    "netsim.loads must be a list of load fractions in "
                    f"(0, 1.5], got entry {load!r}"
                )
        object.__setattr__(self, "loads", tuple(float(x) for x in self.loads))
        _check_choice("netsim.engine", self.engine, ENGINES)
        _check_choice("netsim.demand_model", self.demand_model, DEMAND_MODELS)
        _check_real("netsim.duration_s", self.duration_s, *_POSITIVE)
        _check_int("netsim.seed", self.seed, 0)
        _check_choice("netsim.capacity_mode", self.capacity_mode, CAPACITY_MODES)
        _check_real(
            "netsim.demand_hour_utc",
            self.demand_hour_utc,
            "in [0, 24)",
            lambda v: 0 <= v < 24,
        )
        _check_int("netsim.demand_seed", self.demand_seed, 0)
        if self.users_millions is not None:
            _check_real("netsim.users_millions", self.users_millions, *_POSITIVE)
        _check_choice("netsim.transport", self.transport, TRANSPORTS)
        if self.transport == "tcp" and self.engine != "fluid":
            raise ValueError(
                "transport='tcp' is a fluid-engine macro-model; "
                "use engine='fluid' (the packet engine has TcpFlow)"
            )


@dataclass(frozen=True)
class WeatherSpec:
    """Yearly weather analysis (Fig 7), optionally with the graded model.

    Attributes:
        n_intervals: sampled days of the year.
        fade_margin_db: binary failure threshold.
        seed: day-sampling seed.
        graded: also run the graded (modulation-downshift) comparison.
        frequency_ghz: MW carrier frequency for the rain attenuation
            physics — threaded through *both* the binary and the graded
            pass, so the two models always evaluate the same physics.
        sample_interval_days: when set, evaluate every Nth day of the
            365-day year deterministically (``1`` = full daily
            resolution) instead of sampling ``n_intervals`` random
            days; ``n_intervals`` and ``seed`` are then ignored.
    """

    n_intervals: int = 120
    fade_margin_db: float = 30.0
    seed: int = 7
    graded: bool = False
    frequency_ghz: float = 11.0
    sample_interval_days: int | None = None

    def __post_init__(self) -> None:
        # A float count, a string flag or a NaN margin would otherwise
        # parse and fail late, or never fail at all.
        _check_int("weather.n_intervals", self.n_intervals, 1)
        _check_int("weather.seed", self.seed, 0)
        if self.sample_interval_days is not None:
            _check_int(
                "weather.sample_interval_days", self.sample_interval_days, 1, 365
            )
        if not isinstance(self.graded, bool):
            raise ValueError(f"weather.graded must be a boolean, got {self.graded!r}")
        for name in ("fade_margin_db", "frequency_ghz"):
            _check_real(f"weather.{name}", getattr(self, name), *_POSITIVE)


@dataclass(frozen=True)
class AppsSpec:
    """Fast-path planning (§6.6): fill cISP capacity in value order.

    Attributes:
        capacity_gbps: fast-path capacity; None uses the design's
            provisioning target (``design.aggregate_gbps``).
        min_value_per_gb: admission floor.
    """

    capacity_gbps: float | None = None
    min_value_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_gbps is not None:
            _check_real("apps.capacity_gbps", self.capacity_gbps, *_POSITIVE)
        _check_real("apps.min_value_per_gb", self.min_value_per_gb, *_NON_NEGATIVE)


@dataclass(frozen=True)
class EconSpec:
    """Cost-benefit table (§8).

    Attributes:
        cost_per_gb: network cost to compare value estimates against;
            None uses the designed network's amortized $/GB (which then
            requires ``design.aggregate_gbps``).
    """

    cost_per_gb: float | None = None

    def __post_init__(self) -> None:
        if self.cost_per_gb is not None:
            _check_real("econ.cost_per_gb", self.cost_per_gb, *_POSITIVE)


#: Evaluation sections, in canonical execution order.
EVAL_SECTIONS = ("netsim", "weather", "apps", "econ")

_SECTION_TYPES: dict[str, type] = {
    "scenario": ScenarioSpec,
    "design": DesignSpec,
    "netsim": NetsimSpec,
    "weather": WeatherSpec,
    "apps": AppsSpec,
    "econ": EconSpec,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully pinned composed experiment.

    ``scenario`` and ``design`` are always present; each evaluation
    section is optional — a None section means that stage is not part
    of this experiment.  ``label`` is cosmetic (it never enters cache
    keys).
    """

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    design: DesignSpec = field(default_factory=DesignSpec)
    netsim: NetsimSpec | None = None
    weather: WeatherSpec | None = None
    apps: AppsSpec | None = None
    econ: EconSpec | None = None
    label: str | None = None

    # -- canonical form ---------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical nested-dict form (JSON scalars only)."""
        out: dict[str, Any] = {
            "scenario": _asdict(self.scenario),
            "design": _asdict(self.design),
        }
        for section in EVAL_SECTIONS:
            value = getattr(self, section)
            if value is not None:
                out[section] = _asdict(value)
        if self.label is not None:
            out["label"] = self.label
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        unknown = set(data) - set(_SECTION_TYPES) - {"label"}
        if unknown:
            raise ValueError(
                f"unknown experiment spec section(s): {', '.join(sorted(unknown))}"
            )
        kwargs: dict[str, Any] = {}
        for section, section_cls in _SECTION_TYPES.items():
            if section in data and data[section] is not None:
                raw = data[section]
                if not isinstance(raw, Mapping):
                    raise ValueError(f"spec section {section!r} must be an object")
                kwargs[section] = _fromdict(section_cls, raw, section)
        if "label" in data and data["label"] is not None:
            kwargs["label"] = str(data["label"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # -- structure --------------------------------------------------------

    def eval_stages(self) -> tuple[str, ...]:
        """The evaluation stages this spec requests, in canonical order."""
        return tuple(s for s in EVAL_SECTIONS if getattr(self, s) is not None)

    def with_value(self, path: str, value: Any) -> "ExperimentSpec":
        """A copy with one dotted field replaced (``"design.budget_towers"``).

        Sweep axes address spec fields this way.  The section must be
        enabled (non-None) — sweeping a disabled evaluation is an error,
        not an implicit opt-in.
        """
        section, _, field_name = path.partition(".")
        if not field_name or section not in _SECTION_TYPES:
            raise ValueError(
                f"bad spec path {path!r} (want '<section>.<field>' with "
                f"section in {', '.join(_SECTION_TYPES)})"
            )
        current = getattr(self, section)
        if current is None:
            raise ValueError(
                f"cannot set {path!r}: section {section!r} is not enabled "
                "in the base spec"
            )
        if field_name not in {f.name for f in fields(current)}:
            raise ValueError(f"{section} spec has no field {field_name!r}")
        updated = dataclasses.replace(current, **{field_name: value})
        return dataclasses.replace(self, **{section: updated})
