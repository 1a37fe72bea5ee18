"""Design-problem inputs and hybrid-topology evaluation (paper §3.2).

A :class:`DesignInput` bundles everything the topology-design algorithms
consume: the sites, the traffic matrix H, geodesic distances d_ij, the
Step-1 microwave link lengths m_ij and tower costs c_ij, and the
latency-equivalent fiber distances o_ij (route length x 1.5).

A :class:`Topology` is a set of *built* MW links on top of the
always-available fiber.  Its key operation is computing the effective
site-to-site latency-equivalent distance matrix (shortest paths over
fiber + built MW links) and from it the traffic-weighted mean stretch,
the paper's objective.

All distance/routing queries go through the shared graph kernel
(:mod:`repro.graph`) and are memoized on the (frozen) ``Topology``
instance: the hybrid weight matrix, the kernel, the effective distance
matrix, and the routed paths are each computed at most once per
topology, no matter how many of ``mean_stretch()`` / ``mw_shares()`` /
``routed_paths()`` a caller chains (``solve_heuristic``'s per-budget
loop used to redo an identical all-pairs solve for every one of them).
Memoized arrays are returned read-only; copy before mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..datasets.sites import Site
from ..graph import GraphKernel


@dataclass(frozen=True)
class DesignInput:
    """Inputs to the network-design problem (all matrices (n, n)).

    Attributes:
        sites: the sites to interconnect.
        traffic: symmetric traffic matrix, upper triangle sums to 1.
        geodesic_km: great-circle distances d_ij.
        mw_km: Step-1 MW link lengths m_ij (inf where infeasible).
        cost_towers: Step-1 link costs c_ij in towers (inf if infeasible).
        fiber_km: latency-equivalent fiber distances o_ij
            (1.5 x conduit route; this is a metric closure).
    """

    sites: tuple[Site, ...]
    traffic: np.ndarray
    geodesic_km: np.ndarray
    mw_km: np.ndarray
    cost_towers: np.ndarray
    fiber_km: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.sites)
        for name in ("traffic", "geodesic_km", "mw_km", "cost_towers", "fiber_km"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise ValueError(f"{name} must be ({n}, {n}), got {m.shape}")
        if np.any(self.geodesic_km < 0):
            raise ValueError("geodesic distances must be non-negative")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def pair_weights(self) -> np.ndarray:
        """Objective weights w_ij = h_ij / d_ij (0 where d is 0).

        With these weights, sum(w * D) over the upper triangle equals
        the traffic-weighted mean stretch when D is the effective
        distance matrix.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(self.geodesic_km > 0, self.traffic / self.geodesic_km, 0.0)
        return np.triu(w, k=1)

    def candidate_links(self) -> list[tuple[int, int]]:
        """All (a, b) pairs, a < b, with a feasible Step-1 MW link."""
        n = self.n_sites
        return [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if np.isfinite(self.mw_km[a, b]) and self.mw_km[a, b] > 0
        ]


@dataclass(frozen=True)
class Topology:
    """A hybrid MW + fiber topology: the set of built MW links.

    Attributes:
        design: the problem input this topology belongs to.
        mw_links: built links as (a, b) pairs with a < b.
    """

    design: DesignInput
    mw_links: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for a, b in self.mw_links:
            if not (0 <= a < b < self.design.n_sites):
                raise ValueError(f"invalid link ({a}, {b})")
            if not np.isfinite(self.design.mw_km[a, b]):
                raise ValueError(f"link ({a}, {b}) is not feasible in the input")
        object.__setattr__(self, "_cache", {})

    def __getstate__(self) -> dict:
        # The memoization cache is derived data: keep it out of pickles
        # (the artifact store serializes topologies) and deep copies.
        state = dict(self.__dict__)
        state.pop("_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_cache", {})

    def _memo(self, key: str, compute) -> Any:
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    @property
    def total_cost_towers(self) -> float:
        """Total tower cost of the built MW links."""
        return float(sum(self.design.cost_towers[a, b] for a, b in self.mw_links))

    def hybrid_weight_matrix(self) -> np.ndarray:
        """Site-pair edge weights of the hybrid graph (memoized, read-only).

        Fiber between any pair is always available at o_ij; built MW
        links replace it where their m_ij is shorter.  This is the one
        place the hybrid fiber/MW model is defined — routing, stretch,
        and the netsim experiments all derive from it.
        """

        def build() -> np.ndarray:
            w = self.design.fiber_km.copy()
            for a, b in self.mw_links:
                m = self.design.mw_km[a, b]
                if m < w[a, b]:
                    w[a, b] = w[b, a] = m
            np.fill_diagonal(w, 0.0)
            w.setflags(write=False)
            return w

        return self._memo("weights", build)

    def graph_kernel(self) -> GraphKernel:
        """The shared graph kernel over the hybrid graph (memoized)."""
        return self._memo(
            "kernel", lambda: GraphKernel(self.hybrid_weight_matrix())
        )

    def effective_distance_matrix(self) -> np.ndarray:
        """Latency-equivalent distances over fiber + built MW links.

        Paths may concatenate fiber and MW segments.  Memoized; the
        returned array is read-only.
        """
        return self.graph_kernel().distances()

    def stretch_matrix(self) -> np.ndarray:
        """Per-pair latency stretch over geodesic (NaN on the diagonal)."""
        dist = self.effective_distance_matrix()
        geo = self.design.geodesic_km
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(geo > 0, dist / geo, np.nan)

    def mean_stretch(self) -> float:
        """Traffic-weighted mean stretch, the paper's objective."""
        return mean_stretch_from_distances(self.design, self.effective_distance_matrix())

    def routed_paths(self) -> dict[tuple[int, int], list[int]]:
        """Shortest site-level route for every pair with positive demand.

        Returns, for each (s, t) with s < t and h_st > 0, the node
        sequence s, ..., t over the hybrid graph.  Pairs that are
        unreachable (infinite hybrid distance) are skipped — they have
        no route, and storing a truncated partial path (the pre-kernel
        behavior) would silently corrupt downstream demand routing.
        Memoized; treat the returned mapping as read-only.
        """

        def build() -> dict[tuple[int, int], list[int]]:
            distances, predecessors = self.graph_kernel().predecessors()
            n = self.design.n_sites
            routes: dict[tuple[int, int], list[int]] = {}
            for s in range(n):
                for t in range(s + 1, n):
                    if self.design.traffic[s, t] <= 0:
                        continue
                    if not np.isfinite(distances[s, t]):
                        continue  # unreachable pair: no route to store
                    path = [t]
                    node = t
                    while node != s:
                        node = int(predecessors[s, node])
                        path.append(node)
                    path.reverse()
                    routes[(s, t)] = path
            return routes

        return self._memo("routes", build)


def mean_stretch_from_distances(design: DesignInput, distances: np.ndarray) -> float:
    """Traffic-weighted mean stretch for a given distance matrix."""
    w = design.pair_weights()
    total_h = np.triu(design.traffic, k=1).sum()
    if total_h <= 0:
        raise ValueError("no traffic demand")
    return float((w * np.triu(distances, k=1)).sum() / total_h)


def fiber_only_topology(design: DesignInput) -> Topology:
    """The degenerate all-fiber topology (budget 0)."""
    return Topology(design=design, mw_links=frozenset())
