"""The contiguous-US scenario (paper §4): 120 population centers.

Scenario construction is cached: the substrate pipeline (tower
synthesis, LOS enumeration, Step-1 shortest paths) takes seconds at full
scale and is reused across experiments.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from ..datasets.us_cities import us_population_centers
from ..geo.fresnel import RadioProfile
from ..geo.terrain import us_terrain
from ..towers.los import LosConfig
from .base import Scenario, build_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import HopPipeline


@lru_cache(maxsize=8)
def us_scenario(
    n_sites: int = 120,
    max_range_km: float = 100.0,
    usable_height_fraction: float = 1.0,
    seed: int = 42,
    pipeline: "HopPipeline | None" = None,
) -> Scenario:
    """Build (and cache) the US scenario.

    Args:
        n_sites: number of population centers, in [2, 120]; smaller
            values give the city subsets used in the scalability
            experiments.
        max_range_km: maximum MW hop length (§6.5 varies 60-100 km).
        usable_height_fraction: antenna mounting height restriction
            (§6.5 varies 0.45-1.0).
        seed: tower-synthesis seed.
        pipeline: hop-enumeration pipeline override; the default shares
            US terrain profiles across every sweep point.
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
        pipeline=pipeline,
    )
