"""Traffic matrices: population product, DC models, mixes, perturbations,
and the bottom-up million-user demand layer."""

from .matrices import (
    DEFAULT_PER_USER_KBPS,
    DEFAULT_USERS_PER_CAPITA,
    PEAK_LOCAL_HOUR,
    active_users,
    city_to_dc_matrix,
    dc_to_dc_matrix,
    demands_gbps,
    diurnal_factor,
    heavy_tail_multipliers,
    mixed_matrix,
    perturbed_population_matrix,
    population_product_matrix,
    user_demand_gbps,
    user_demand_matrix,
)

__all__ = [
    "DEFAULT_PER_USER_KBPS",
    "DEFAULT_USERS_PER_CAPITA",
    "PEAK_LOCAL_HOUR",
    "active_users",
    "city_to_dc_matrix",
    "dc_to_dc_matrix",
    "demands_gbps",
    "diurnal_factor",
    "heavy_tail_multipliers",
    "mixed_matrix",
    "perturbed_population_matrix",
    "population_product_matrix",
    "user_demand_gbps",
    "user_demand_matrix",
]
