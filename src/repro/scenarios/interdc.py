"""Data-center deployment traffic (paper §6.3).

Two deployments are built on the US substrate
(:func:`~repro.scenarios.get_scenario`):

* ``interdc``: the six public Google US data centers with equal pairwise
  demand;
* ``city_dc``: the population centers plus the data centers, each city
  sending to its nearest DC proportionally to population.
"""

from __future__ import annotations

from ..traffic.matrices import city_to_dc_matrix, dc_to_dc_matrix
from .base import Scenario


def dc_indices(scenario: Scenario) -> list[int]:
    """Indices of data-center sites within a scenario's site list."""
    return [i for i, s in enumerate(scenario.sites) if s.population == 0]


def dc_dc_traffic(scenario: Scenario):
    """Equal-demand DC-DC traffic matrix for a scenario."""
    return dc_to_dc_matrix(list(scenario.sites), dc_indices(scenario))


def city_dc_traffic(scenario: Scenario):
    """Population-weighted city-to-nearest-DC traffic matrix."""
    return city_to_dc_matrix(list(scenario.sites), dc_indices(scenario))
