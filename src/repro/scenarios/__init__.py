"""Pre-assembled scenarios: US, Europe, and data-center deployments."""

from .base import EU_FIBER_STRETCH, Scenario, build_scenario, get_scenario
from .interdc import city_dc_traffic, dc_dc_traffic, dc_indices

__all__ = [
    "Scenario",
    "build_scenario",
    "get_scenario",
    "EU_FIBER_STRETCH",
    "city_dc_traffic",
    "dc_dc_traffic",
    "dc_indices",
]
