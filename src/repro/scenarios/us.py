"""The contiguous-US scenario (paper §4): 120 population centers.

Scenario construction is cached: the substrate pipeline (tower
synthesis, LOS enumeration, Step-1 shortest paths) takes seconds at full
scale and is reused across experiments.
"""

from __future__ import annotations

from functools import lru_cache

from ..datasets.us_cities import us_population_centers
from ..geo.fresnel import RadioProfile
from ..geo.terrain import us_terrain
from ..towers.los import LosConfig
from .base import Scenario, build_scenario


@lru_cache(maxsize=8)
def us_scenario(
    n_sites: int = 120,
    max_range_km: float = 100.0,
    usable_height_fraction: float = 1.0,
    seed: int = 42,
) -> Scenario:
    """Build (and cache) the US scenario.

    Three layers of per-process reuse sit under this call.  The whole
    scenario is cached on every argument (the last eight).  Below that,
    :func:`~repro.scenarios.base.build_scenario` memoizes the culled
    tower registry on ``(sites, terrain, SynthesisConfig(seed))``, and
    the registry memoizes its candidate pairs per ``max_range_km``, so
    a §6.5 sweep over range and usable height synthesizes the towers
    once and enumerates pairs once per range.  The hop pipeline
    (:func:`~repro.core.pipeline.shared_pipeline`) shares US terrain
    profiles and tower-base elevations across every sweep point.

    Args:
        n_sites: number of population centers, in [2, 120]; smaller
            values give the city subsets used in the scalability
            experiments.
        max_range_km: maximum MW hop length (§6.5 varies 60-100 km).
        usable_height_fraction: antenna mounting height restriction
            (§6.5 varies 0.45-1.0).
        seed: tower-synthesis seed.
    """
    centers = us_population_centers()
    if not 2 <= n_sites <= len(centers):
        raise ValueError(
            f"n_sites must be in [2, {len(centers)}], got {n_sites!r}"
        )
    sites = centers[:n_sites]
    terrain = us_terrain()
    los = LosConfig(
        radio=RadioProfile(max_range_km=max_range_km),
        usable_height_fraction=usable_height_fraction,
    )
    from ..towers.synthesis import SynthesisConfig

    return build_scenario(
        name=f"us-{n_sites}",
        sites=sites,
        terrain=terrain,
        los_config=los,
        synthesis_config=SynthesisConfig(seed=seed),
    )
