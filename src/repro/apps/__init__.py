"""Application-level models: gaming, web browsing, cost-benefit."""

from .econ import (
    ValueEstimate,
    all_estimates,
    ecommerce_value,
    econ_records,
    gaming_value,
    web_search_value,
)
from .integration import (
    DEFAULT_CLASSES,
    Allocation,
    FastPathPlan,
    TrafficClass,
    breakeven_capacity_gbps,
    plan_fast_path,
    plan_records,
)
from .gaming import (
    DIRECTIONS,
    FrameTimeStats,
    PacmanState,
    fast_fraction_from_topology,
    fat_client_latency_ms,
    frame_time_curve,
    simulate_thin_client,
)
from .web import (
    CorpusComparison,
    LoadResult,
    WebObject,
    WebPage,
    compare_corpus,
    load_page,
    synthesize_page,
    synthesize_pages,
)

__all__ = [
    "DEFAULT_CLASSES",
    "Allocation",
    "FastPathPlan",
    "TrafficClass",
    "breakeven_capacity_gbps",
    "plan_fast_path",
    "plan_records",
    "ValueEstimate",
    "all_estimates",
    "ecommerce_value",
    "econ_records",
    "gaming_value",
    "web_search_value",
    "DIRECTIONS",
    "FrameTimeStats",
    "PacmanState",
    "fast_fraction_from_topology",
    "fat_client_latency_ms",
    "frame_time_curve",
    "simulate_thin_client",
    "CorpusComparison",
    "LoadResult",
    "WebObject",
    "WebPage",
    "compare_corpus",
    "load_page",
    "synthesize_page",
    "synthesize_pages",
]
