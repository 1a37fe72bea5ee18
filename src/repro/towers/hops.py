"""The feasible-hop graph (paper §4, Step 1 input).

The candidate-hop pipeline (:mod:`repro.core.pipeline`) enumerates the
tower pairs within radio range on a spatial grid, checks line-of-sight
feasibility in vectorized batches, and returns the hop graph as edge
arrays.  On the paper's US instantiation this step found 261,019
feasible hops over 12,080 towers; our synthetic fields are smaller but
structurally equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HopGraph:
    """The feasible tower-to-tower hop graph.

    Attributes:
        n_towers: number of towers (node ids are 0..n_towers-1, matching
            registry order).
        edges_a / edges_b: aligned arrays of endpoint tower ids (a < b).
        lengths_km: great-circle length of each hop.
    """

    n_towers: int
    edges_a: np.ndarray
    edges_b: np.ndarray
    lengths_km: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges_a)
