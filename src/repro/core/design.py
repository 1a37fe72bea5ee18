"""End-to-end network design: Steps 1-3 plus costing (paper §3, §4).

:func:`design_network` is the library's front door: given a scenario's
:class:`~repro.core.topology.DesignInput` (plus the link catalog and
tower registry for capacity augmentation), it runs a topology solver,
provisions capacity for a target aggregate throughput, and applies the
cost model.

All topology optimizers — the cISP heuristic, the exact ILP, the
LP-rounding baseline, the exhaustive oracle, and the greedy
budget-evolution — sit behind one :class:`Solver` protocol with a
string-keyed registry (:func:`get_solver`, :func:`solve`), so the CLI,
scenarios, and benchmarks select backends by name with a single
``solve(problem, budget, **opts)`` signature.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..links.builder import LinkCatalog
from ..towers.registry import TowerRegistry
from .augmentation import AugmentationResult, augment_capacity
from .costs import CostModel
from .heuristic import solve_heuristic
from .topology import DesignInput, Topology, fiber_only_topology


@dataclass(frozen=True)
class DesignResult:
    """A fully designed, provisioned, and costed cISP network.

    Attributes:
        topology: the chosen MW links over fiber.
        mean_stretch: traffic-weighted mean latency stretch.
        fiber_mean_stretch: the all-fiber baseline stretch.
        augmentation: capacity provisioning (None when no throughput
            target was given).
        cost_per_gb_usd: amortized $/GB (None without a throughput
            target).
        solve_outcome: the backend's outcome; its ``details`` hold the
            raw optimizer output (greedy trace etc.).
    """

    topology: Topology
    mean_stretch: float
    fiber_mean_stretch: float
    augmentation: AugmentationResult | None
    cost_per_gb_usd: float | None
    solve_outcome: "SolveOutcome"

    @property
    def backend(self) -> str:
        """Registry name of the solver that produced the topology."""
        return self.solve_outcome.backend

    @property
    def mw_link_count(self) -> int:
        return len(self.topology.mw_links)

    @property
    def towers_used(self) -> float:
        return self.topology.total_cost_towers

    def stretch_percentiles(self, percentiles=(50, 90, 99)) -> dict[int, float]:
        """Unweighted per-pair stretch percentiles of the design."""
        s = self.topology.stretch_matrix()
        vals = s[np.isfinite(s)]
        return {int(p): float(np.percentile(vals, p)) for p in percentiles}


def design_network(
    design_input: DesignInput,
    budget_towers: float,
    aggregate_gbps: float | None = None,
    catalog: LinkCatalog | None = None,
    registry: TowerRegistry | None = None,
    cost_model: CostModel | None = None,
    solver: str = "heuristic",
    **solver_kwargs,
) -> DesignResult:
    """Design, provision, and cost a cISP network.

    Args:
        design_input: sites, traffic, and distance matrices (Step 1
            outputs included).
        budget_towers: the tower budget B.
        aggregate_gbps: target aggregate throughput; enables Step 3 and
            costing, and requires ``catalog`` and ``registry``.
        catalog: Step-1 link catalog (tower paths for augmentation).
        registry: tower registry (spare-tower availability).
        cost_model: cost constants (defaults to the paper's).
        solver: topology-solver backend name (see :func:`solver_names`).
        **solver_kwargs: forwarded to the backend's underlying solve.
    """
    outcome = solve(design_input, budget_towers, backend=solver, **solver_kwargs)
    fiber_stretch = fiber_only_topology(design_input).mean_stretch()
    augmentation = None
    cost_per_gb = None
    if aggregate_gbps is not None:
        if catalog is None or registry is None:
            raise ValueError(
                "capacity augmentation needs the link catalog and tower registry"
            )
        augmentation = augment_capacity(
            outcome.topology, catalog, registry, aggregate_gbps
        )
        cost_per_gb = augmentation.cost_per_gb(cost_model or CostModel())
    return DesignResult(
        topology=outcome.topology,
        mean_stretch=outcome.objective,
        fiber_mean_stretch=fiber_stretch,
        augmentation=augmentation,
        cost_per_gb_usd=cost_per_gb,
        solve_outcome=outcome,
    )


# --------------------------------------------------------------------------
# The unified solver backend.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveOutcome:
    """What every solver backend returns.

    Attributes:
        backend: registry name of the solver that produced this.
        topology: the chosen MW-over-fiber topology.
        objective: its traffic-weighted mean stretch.
        runtime_s: wall-clock time of the solve.
        details: the backend's native result object (``HeuristicResult``,
            ``IlpResult``, ...), for callers that need solver-specific
            diagnostics; None when the backend has no richer result.
    """

    backend: str
    topology: Topology
    objective: float
    runtime_s: float
    details: Any = None


@runtime_checkable
class Solver(Protocol):
    """One topology-design backend behind the uniform signature.

    Backends may carry a ``version`` string (default "1"): the
    experiment orchestration layer (:mod:`repro.exp`) embeds it in the
    design stage's cache key, so bumping a solver's version retires
    every cached design it produced without touching other backends'
    artifacts.
    """

    name: str

    def options(self) -> tuple[str, ...]:  # pragma: no cover - protocol
        """The keyword options ``solve`` takes; a spec naming any other
        one is rejected when it is parsed."""
        ...

    def solve(
        self, problem: DesignInput, budget: float, **opts
    ) -> SolveOutcome:  # pragma: no cover - protocol
        ...


_SOLVERS: dict[str, Solver] = {}


def register_solver(solver_cls):
    """Class decorator: instantiate and register a solver by its name."""
    instance = solver_cls()
    name = instance.name
    if not name or name != name.lower():
        raise ValueError(f"solver name {name!r} must be a lowercase key")
    _SOLVERS[name] = instance
    return solver_cls


def solver_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_SOLVERS)


def get_solver(name: str) -> Solver:
    """The registered solver for ``name`` (KeyError with choices otherwise)."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise KeyError(
            f"unknown solver {name!r}; registered: {', '.join(solver_names())}"
        ) from None


def solver_version(name: str) -> str:
    """The backend's code-version tag (cache-key ingredient; default "1")."""
    return getattr(get_solver(name), "version", "1")


def _options_of(function) -> tuple[str, ...]:
    """The keyword options a backend function takes after (problem, budget)."""
    return tuple(inspect.signature(function).parameters)[2:]


def solve(problem: DesignInput, budget: float, backend: str = "heuristic", **opts) -> SolveOutcome:
    """Solve a design problem through the registry.

    Args:
        problem: the design input.
        budget: tower budget B.
        backend: registry name (see :func:`solver_names`).
        **opts: backend-specific options, forwarded verbatim.
    """
    return get_solver(backend).solve(problem, budget, **opts)


@register_solver
class HeuristicSolver:
    """The paper's scalable pipeline: pruning + greedy + restricted ILP."""

    name = "heuristic"

    def options(self) -> tuple[str, ...]:
        return _options_of(solve_heuristic)

    def solve(self, problem: DesignInput, budget: float, **opts) -> SolveOutcome:
        result = solve_heuristic(problem, budget, **opts)
        return SolveOutcome(
            backend=self.name,
            topology=result.topology,
            objective=result.objective,
            runtime_s=result.runtime_s,
            details=result,
        )


@register_solver
class IlpSolver:
    """The exact flow ILP (optimal, exponential-ish runtime)."""

    name = "ilp"

    def options(self) -> tuple[str, ...]:
        from .ilp import solve_ilp

        return _options_of(solve_ilp)

    def solve(self, problem: DesignInput, budget: float, **opts) -> SolveOutcome:
        from .ilp import solve_ilp

        result = solve_ilp(problem, budget, **opts)
        return SolveOutcome(
            backend=self.name,
            topology=result.topology,
            objective=result.objective,
            runtime_s=result.runtime_s,
            details=result,
        )


@register_solver
class LpRoundingSolver:
    """The LP-relaxation + threshold-rounding baseline."""

    name = "lp_rounding"

    def options(self) -> tuple[str, ...]:
        from .lp_rounding import solve_lp_rounding

        return _options_of(solve_lp_rounding)

    def solve(self, problem: DesignInput, budget: float, **opts) -> SolveOutcome:
        from .lp_rounding import solve_lp_rounding

        result = solve_lp_rounding(problem, budget, **opts)
        return SolveOutcome(
            backend=self.name,
            topology=result.topology,
            objective=result.objective,
            runtime_s=result.runtime_s,
            details=result,
        )


@register_solver
class ExhaustiveSolver:
    """Brute-force subset enumeration (ground truth on tiny instances)."""

    name = "exhaustive"

    def options(self) -> tuple[str, ...]:
        from .exhaustive import solve_exhaustive

        return _options_of(solve_exhaustive)

    def solve(self, problem: DesignInput, budget: float, **opts) -> SolveOutcome:
        from .exhaustive import solve_exhaustive

        start = time.perf_counter()
        topology = solve_exhaustive(problem, budget, **opts)
        return SolveOutcome(
            backend=self.name,
            topology=topology,
            objective=topology.mean_stretch(),
            runtime_s=time.perf_counter() - start,
            details=None,
        )


@register_solver
class EvolutionSolver:
    """Greedy budget-evolution: the incremental build-out's topology at B.

    The greedy sequence is run once to the requested budget and the
    affordable prefix is the design — the deployment-order view of
    Fig 4a / §7.  ``details`` carries the step list so callers can read
    off every smaller budget from the same solve.
    """

    name = "evolution"

    def options(self) -> tuple[str, ...]:
        from .heuristic import greedy_sequence

        return _options_of(greedy_sequence)

    def solve(self, problem: DesignInput, budget: float, **opts) -> SolveOutcome:
        from .heuristic import greedy_sequence

        start = time.perf_counter()
        steps = greedy_sequence(problem, budget, **opts)
        # greedy_sequence only emits picks whose cumulative cost fits
        # the budget, so the whole sequence is the affordable prefix.
        topology = Topology(
            design=problem, mw_links=frozenset(s.link for s in steps)
        )
        return SolveOutcome(
            backend=self.name,
            topology=topology,
            objective=topology.mean_stretch(),
            runtime_s=time.perf_counter() - start,
            details=tuple(steps),
        )
