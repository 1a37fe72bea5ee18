"""Traffic matrices (paper §4, §6.3, §6.4).

The paper's primary model sets h_ij proportional to the product of the
populations of cities i and j.  Two alternative deployment models are
studied: uniform traffic between data centers (DC-DC), and traffic from
each city to its nearest data center, proportional to city population
(city-DC).  Section 6.4 mixes the three in ratios like 4:3:3 and §5
perturbs populations by a factor drawn from U[1-gamma, 1+gamma].

A traffic matrix here is a dense symmetric (n, n) numpy array with a
zero diagonal.  Matrices are normalized so entries sum to 1 over the
upper triangle; scaling to an aggregate demand in Gbps happens at the
point of use (capacity augmentation, packet simulation).
"""

from __future__ import annotations

import numpy as np

from ..datasets.sites import Site
from ..geo.coords import haversine_km


def _normalize(matrix: np.ndarray) -> np.ndarray:
    """Scale a symmetric demand matrix so the upper triangle sums to 1."""
    upper = np.triu(matrix, k=1)
    total = upper.sum()
    if total <= 0:
        raise ValueError("traffic matrix has no demand")
    result = matrix / total
    np.fill_diagonal(result, 0.0)
    return result


def population_product_matrix(sites: list[Site]) -> np.ndarray:
    """h_ij ~ population_i * population_j (the paper's city-city model)."""
    pops = np.array([float(s.population) for s in sites])
    if np.all(pops == 0):
        raise ValueError("all sites have zero population")
    h = np.outer(pops, pops)
    np.fill_diagonal(h, 0.0)
    return _normalize(h)


def perturbed_population_matrix(
    sites: list[Site], gamma: float, seed: int = 0
) -> np.ndarray:
    """Population-product matrix with per-city perturbation (§5).

    Each city's population is re-weighted by a factor drawn from
    U[1 - gamma, 1 + gamma].
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    rng = np.random.default_rng(seed)
    pops = np.array([float(s.population) for s in sites])
    weights = rng.uniform(1.0 - gamma, 1.0 + gamma, size=len(sites))
    h = np.outer(pops * weights, pops * weights)
    np.fill_diagonal(h, 0.0)
    return _normalize(h)


def dc_to_dc_matrix(sites: list[Site], dc_indices: list[int]) -> np.ndarray:
    """Equal demand between every data-center pair (§6.3).

    ``dc_indices`` index into ``sites``; all other sites get no demand.
    """
    if len(dc_indices) < 2:
        raise ValueError("need at least two data centers")
    n = len(sites)
    h = np.zeros((n, n))
    for i in dc_indices:
        for j in dc_indices:
            if i != j:
                h[i, j] = 1.0
    return _normalize(h)


def city_to_dc_matrix(sites: list[Site], dc_indices: list[int]) -> np.ndarray:
    """Each city sends to its nearest DC, proportional to population (§6.3)."""
    if not dc_indices:
        raise ValueError("need at least one data center")
    n = len(sites)
    dc_set = set(dc_indices)
    h = np.zeros((n, n))
    for i, site in enumerate(sites):
        if i in dc_set or site.population <= 0:
            continue
        nearest = min(
            dc_indices,
            key=lambda d: haversine_km(site.lat, site.lon, sites[d].lat, sites[d].lon),
        )
        h[i, nearest] += float(site.population)
        h[nearest, i] += float(site.population)
    return _normalize(h)


def mixed_matrix(
    components: list[tuple[np.ndarray, float]],
) -> np.ndarray:
    """Convex mix of normalized traffic matrices (§6.4).

    Args:
        components: (matrix, weight) pairs; weights need not sum to 1
            (e.g., the paper's 4:3:3 city-city : city-DC : DC-DC mix).
    """
    if not components:
        raise ValueError("need at least one component")
    total_w = sum(w for _, w in components)
    if total_w <= 0:
        raise ValueError("weights must be positive")
    n = components[0][0].shape[0]
    h = np.zeros((n, n))
    for matrix, weight in components:
        if matrix.shape != (n, n):
            raise ValueError("component shapes differ")
        h += _normalize(matrix) * (weight / total_w)
    return _normalize(h)


def demands_gbps(matrix: np.ndarray, aggregate_gbps: float) -> np.ndarray:
    """Scale a normalized matrix to an aggregate demand (sum of all
    site-site demands) in Gbps.  Returns a symmetric matrix whose upper
    triangle sums to ``aggregate_gbps``."""
    if aggregate_gbps <= 0:
        raise ValueError("aggregate demand must be positive")
    return _normalize(matrix) * aggregate_gbps


# --------------------------------------------------------------------------
# Million-user demand layer: per-city offered traffic built bottom-up from
# populations (diurnal activity x heavy-tail per-city intensity) instead of
# top-down from a design aggregate.  Feeds the fluid engine's
# ``demand_model="users"`` path.

#: Fraction of a city's population active online at the diurnal peak.
DEFAULT_USERS_PER_CAPITA = 0.35

#: Mean busy-hour demand per active user, kbit/s (video-dominated mix).
DEFAULT_PER_USER_KBPS = 600.0

#: Local hour of peak activity (evening video prime time).
PEAK_LOCAL_HOUR = 20.0


def diurnal_factor(
    lon_deg: float, hour_utc: float, trough_fraction: float = 0.25
) -> float:
    """Activity multiplier in [trough_fraction, 1] for a site's longitude.

    Local (solar) time is approximated as UTC + longitude / 15°; activity
    follows a cosine over the day peaking at :data:`PEAK_LOCAL_HOUR` and
    bottoming out at ``trough_fraction`` of the peak.
    """
    if not 0.0 < trough_fraction <= 1.0:
        raise ValueError("trough fraction must be in (0, 1]")
    local_hour = (hour_utc + lon_deg / 15.0) % 24.0
    phase = 2.0 * np.pi * (local_hour - PEAK_LOCAL_HOUR) / 24.0
    shape = 0.5 * (1.0 + np.cos(phase))  # 1 at peak, 0 twelve hours away
    return float(trough_fraction + (1.0 - trough_fraction) * shape)


def heavy_tail_multipliers(
    n: int, seed: int = 0, alpha: float = 1.8
) -> np.ndarray:
    """Per-city demand-intensity multipliers, Pareto-tailed, mean 1.

    Real per-city demand is burstier than population alone predicts
    (events, content launches, regional platforms); a normalized Pareto
    draw supplies that heavy tail deterministically per seed.
    """
    if n <= 0:
        raise ValueError("need at least one site")
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 (finite mean)")
    rng = np.random.default_rng(seed)
    draws = rng.pareto(alpha, size=n) + 1.0
    return draws / draws.mean()


def active_users(
    sites: list[Site],
    hour_utc: float = PEAK_LOCAL_HOUR,
    users_per_capita: float = DEFAULT_USERS_PER_CAPITA,
    users_millions: float | None = None,
    trough_fraction: float = 0.25,
) -> np.ndarray:
    """Active user count per site at a UTC hour.

    Per site: population x ``users_per_capita`` x the site's diurnal
    factor.  If ``users_millions`` is given, counts are rescaled so the
    network-wide total is exactly that many million users — the scale
    knob for "millions of users" experiments.
    """
    pops = np.array([float(s.population) for s in sites])
    if np.all(pops == 0):
        raise ValueError("all sites have zero population")
    if users_per_capita <= 0:
        raise ValueError("users per capita must be positive")
    diurnal = np.array(
        [diurnal_factor(s.lon, hour_utc, trough_fraction) for s in sites]
    )
    users = pops * users_per_capita * diurnal
    if users_millions is not None:
        if users_millions <= 0:
            raise ValueError("users_millions must be positive")
        users *= users_millions * 1e6 / users.sum()
    return users


def user_demand_gbps(
    sites: list[Site],
    hour_utc: float = PEAK_LOCAL_HOUR,
    seed: int = 0,
    users_per_capita: float = DEFAULT_USERS_PER_CAPITA,
    users_millions: float | None = None,
    per_user_kbps: float = DEFAULT_PER_USER_KBPS,
    trough_fraction: float = 0.25,
) -> np.ndarray:
    """Offered demand per site in Gbps, users x per-user rate x tail."""
    if per_user_kbps <= 0:
        raise ValueError("per-user rate must be positive")
    users = active_users(
        sites, hour_utc, users_per_capita, users_millions, trough_fraction
    )
    tail = heavy_tail_multipliers(len(sites), seed=seed)
    return users * tail * per_user_kbps * 1e3 / 1e9


def user_demand_matrix(
    sites: list[Site],
    hour_utc: float = PEAK_LOCAL_HOUR,
    seed: int = 0,
    users_per_capita: float = DEFAULT_USERS_PER_CAPITA,
    users_millions: float | None = None,
    per_user_kbps: float = DEFAULT_PER_USER_KBPS,
    trough_fraction: float = 0.25,
) -> tuple[np.ndarray, float]:
    """Bottom-up traffic matrix and its offered aggregate in Gbps.

    Pairs sites gravity-style on their *current* offered demand (so both
    diurnal phase and the heavy tail shape the matrix, unlike the static
    population product) and returns ``(normalized_matrix,
    aggregate_gbps)`` where the aggregate is the network-wide sum of
    per-site offered demand — ready to hand to the fluid engine as the
    offered load.
    """
    demand = user_demand_gbps(
        sites,
        hour_utc=hour_utc,
        seed=seed,
        users_per_capita=users_per_capita,
        users_millions=users_millions,
        per_user_kbps=per_user_kbps,
        trough_fraction=trough_fraction,
    )
    h = np.outer(demand, demand)
    np.fill_diagonal(h, 0.0)
    return _normalize(h), float(demand.sum())
