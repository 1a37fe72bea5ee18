"""The cISP design core: topology optimization, augmentation, costing."""

from .augmentation import (
    SERIES_CAPACITY_GBPS,
    AugmentationResult,
    LinkProvision,
    augment_capacity,
    route_link_demands,
    series_needed,
)
from .costs import CostModel
from .evolution import (
    EvolutionPoint,
    budget_evolution,
    mw_shares,
    shares_from_state,
)
from .exhaustive import solve_exhaustive
from .media import (
    ALL_MEDIA,
    FREE_SPACE_OPTICS,
    HOLLOW_CORE_FIBER,
    MICROWAVE,
    MILLIMETER_WAVE,
    SOLID_FIBER,
    Medium,
    hollow_core_fiber_stretch,
    reprice_links_for_medium,
)
from .design import (
    DesignResult,
    SolveOutcome,
    Solver,
    design_network,
    get_solver,
    register_solver,
    solve,
    solver_names,
    solver_version,
)
from .pipeline import CachingLosChecker, HopPipeline, shared_pipeline
from .heuristic import GreedyStep, HeuristicResult, greedy_sequence, solve_heuristic
from .ilp import IlpResult, prune_useless_links, solve_ilp, useful_arcs_for_commodity
from .lp_rounding import LpRoundingResult, solve_lp_rounding
from .topology import (
    DesignInput,
    Topology,
    fiber_only_topology,
    mean_stretch_from_distances,
)

__all__ = [
    "SERIES_CAPACITY_GBPS",
    "AugmentationResult",
    "LinkProvision",
    "augment_capacity",
    "route_link_demands",
    "series_needed",
    "CostModel",
    "solve_exhaustive",
    "EvolutionPoint",
    "budget_evolution",
    "mw_shares",
    "shares_from_state",
    "ALL_MEDIA",
    "FREE_SPACE_OPTICS",
    "HOLLOW_CORE_FIBER",
    "MICROWAVE",
    "MILLIMETER_WAVE",
    "SOLID_FIBER",
    "Medium",
    "hollow_core_fiber_stretch",
    "reprice_links_for_medium",
    "DesignResult",
    "SolveOutcome",
    "Solver",
    "design_network",
    "get_solver",
    "register_solver",
    "solve",
    "solver_names",
    "solver_version",
    "CachingLosChecker",
    "HopPipeline",
    "shared_pipeline",
    "GreedyStep",
    "HeuristicResult",
    "greedy_sequence",
    "solve_heuristic",
    "IlpResult",
    "prune_useless_links",
    "solve_ilp",
    "useful_arcs_for_commodity",
    "LpRoundingResult",
    "solve_lp_rounding",
    "DesignInput",
    "Topology",
    "fiber_only_topology",
    "mean_stretch_from_distances",
]
