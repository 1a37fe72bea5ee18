"""Data-center deployment scenarios (paper §6.3).

Two variants built on the US substrate:

* *inter-DC*: the six public Google US data centers with equal pairwise
  demand;
* *city-DC*: the 120 population centers plus the data centers, each
  city sending to its nearest DC proportionally to population.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from ..datasets.datacenters import google_us_datacenters
from ..datasets.us_cities import us_population_centers
from ..geo.terrain import us_terrain
from ..towers.synthesis import SynthesisConfig
from ..traffic.matrices import city_to_dc_matrix, dc_to_dc_matrix
from .base import Scenario, build_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import HopPipeline


@lru_cache(maxsize=2)
def interdc_scenario(seed: int = 44, pipeline: "HopPipeline | None" = None) -> Scenario:
    """The six-data-center scenario.

    Shares the US terrain-profile cache with the city scenarios by
    default: DC tower fields over the same terrain reuse any profiles
    already sampled there.
    """
    sites = google_us_datacenters()
    return build_scenario(
        name="us-interdc",
        sites=sites,
        terrain=us_terrain(),
        synthesis_config=SynthesisConfig(seed=seed),
        pipeline=pipeline,
    )


@lru_cache(maxsize=2)
def city_dc_scenario(
    n_cities: int = 120, seed: int = 45, pipeline: "HopPipeline | None" = None
) -> Scenario:
    """Cities plus data centers in one site list.

    ``n_cities`` is in [2, 120].  The DC sites are appended after the
    cities, so DC indices are ``range(n_cities, n_cities + 6)`` — as
    returned by :func:`dc_indices`.
    """
    centers = us_population_centers()
    if not 2 <= n_cities <= len(centers):
        raise ValueError(
            f"n_cities must be in [2, {len(centers)}], got {n_cities!r}"
        )
    sites = centers[:n_cities] + google_us_datacenters()
    return build_scenario(
        name="us-city-dc",
        sites=sites,
        terrain=us_terrain(),
        synthesis_config=SynthesisConfig(seed=seed),
        pipeline=pipeline,
    )


def dc_indices(scenario: Scenario) -> list[int]:
    """Indices of data-center sites within a scenario's site list."""
    return [i for i, s in enumerate(scenario.sites) if s.population == 0]


def dc_dc_traffic(scenario: Scenario):
    """Equal-demand DC-DC traffic matrix for a scenario."""
    return dc_to_dc_matrix(list(scenario.sites), dc_indices(scenario))


def city_dc_traffic(scenario: Scenario):
    """Population-weighted city-to-nearest-DC traffic matrix."""
    return city_to_dc_matrix(list(scenario.sites), dc_indices(scenario))
