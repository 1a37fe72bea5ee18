"""Step 3: capacity augmentation with parallel tower series (§3.3, §4).

A single MW link carries ~1 Gbps.  Links that must carry more get
parallel series of towers; with the paper's k^2 trick (multiple antennae
per tower at >= 6 degrees angular separation), k parallel series provide
k^2 Gbps.  Extra series reuse spare existing towers where the
infrastructure is dense enough, and pay for new towers otherwise.

This module routes the scaled traffic matrix over a designed topology,
sizes each link's series count, and produces the paper's hop census
(Fig 3 caption: at 100 Gbps, 1,660 hops need no new towers, 552 need one
new tower at each end, 86 need two) plus the inputs to the cost model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..links.builder import LinkCatalog
from ..towers.registry import TowerRegistry
from .costs import CostModel
from .topology import Topology

#: Bandwidth of one MW series, Gbps (paper §2).
SERIES_CAPACITY_GBPS = 1.0

#: Radius around a hop's first tower within which existing towers can
#: host a parallel series (tower-siting tolerance, §3.3).
SPARE_SEARCH_RADIUS_KM = 15.0


@dataclass(frozen=True)
class LinkProvision:
    """Capacity provisioning for one built MW link.

    Attributes:
        link: the (a, b) site pair.
        demand_gbps: traffic routed over the link.
        n_series: parallel tower series (k, giving k^2 Gbps capacity).
        n_hops: tower-to-tower hops along one series.
        new_towers: newly built towers across all hops and series.
        hop_new_tower_census: per-hop count of new towers needed at each
            end (0, 1, 2, ...), as a Counter.
    """

    link: tuple[int, int]
    demand_gbps: float
    n_series: int
    n_hops: int
    new_towers: int
    hop_new_tower_census: Counter


@dataclass(frozen=True)
class AugmentationResult:
    """Network-wide capacity provisioning summary.

    Attributes:
        provisions: per-link provisioning details.
        aggregate_gbps: the provisioned aggregate demand.
        n_hop_series: radio hops counting parallel series separately.
        n_new_towers: total newly built towers.
        n_rented_towers: towers rented (existing towers in use).
        hop_census: Counter of new-towers-per-end -> number of hops
            (the Fig 3 caption numbers).
    """

    provisions: tuple[LinkProvision, ...]
    aggregate_gbps: float
    n_hop_series: int
    n_new_towers: int
    n_rented_towers: int
    hop_census: Counter

    def cost_per_gb(self, model: CostModel | None = None) -> float:
        """Amortized cost per GB under the paper's cost model."""
        model = model or CostModel()
        return model.cost_per_gb(
            n_hop_series=self.n_hop_series,
            n_new_towers=self.n_new_towers,
            n_rented_towers=self.n_rented_towers,
            aggregate_gbps=self.aggregate_gbps,
        )


def series_needed(demand_gbps: float) -> int:
    """Parallel series required for a demand (k^2 rule, §3.3).

    <1 Gbps -> 1 series; 1-4 -> 2; 4-9 -> 3; etc.  Zero-demand links
    still get their single built series.
    """
    if demand_gbps < 0:
        raise ValueError("demand must be non-negative")
    if demand_gbps <= SERIES_CAPACITY_GBPS:
        return 1
    return max(1, math.ceil(math.sqrt(demand_gbps / SERIES_CAPACITY_GBPS)))


def route_link_demands(
    topology: Topology, aggregate_gbps: float
) -> dict[tuple[int, int], float]:
    """Traffic carried by each built MW link at the given aggregate.

    Routes every commodity along its shortest hybrid path (the same
    routing the design objective assumes) and accumulates demand on the
    MW edges it traverses.
    """
    if aggregate_gbps <= 0:
        raise ValueError("aggregate demand must be positive")
    design = topology.design
    h = design.traffic
    total_h = np.triu(h, k=1).sum()
    routes = topology.routed_paths()
    mw_links = topology.mw_links
    demands: dict[tuple[int, int], float] = {e: 0.0 for e in mw_links}
    for (s, t), path in routes.items():
        demand = aggregate_gbps * h[s, t] / total_h
        for u, v in zip(path[:-1], path[1:]):
            edge = (min(u, v), max(u, v))
            if edge in demands and (
                design.mw_km[edge] < design.fiber_km[edge]
            ):
                demands[edge] += demand
    return demands


def augment_capacity(
    topology: Topology,
    catalog: LinkCatalog,
    registry: TowerRegistry,
    aggregate_gbps: float,
) -> AugmentationResult:
    """Provision every built link for its routed demand.

    For each hop of a link needing k parallel series, the k-1 extra
    series first occupy spare existing towers near the hop (within
    :data:`SPARE_SEARCH_RADIUS_KM` of its first tower), and new towers
    are built at each end for whatever remains.  The result counts
    towers and series only; :meth:`AugmentationResult.cost_per_gb`
    prices them under a cost model.
    """
    demands = route_link_demands(topology, aggregate_gbps)
    provisions: list[LinkProvision] = []
    total_census: Counter = Counter()
    n_hop_series = 0
    n_new_towers = 0
    n_rented = 0
    for link, demand in sorted(demands.items()):
        cand = catalog.link(*link)
        if cand is None:
            raise ValueError(f"built link {link} missing from catalog")
        k = series_needed(demand)
        path = cand.tower_path
        n_hops = max(len(path) - 1, 1)
        census: Counter = Counter()
        new_for_link = 0
        if k == 1:
            census[0] = n_hops
        else:
            for hop_idx in range(n_hops):
                end_a = registry[path[hop_idx]] if hop_idx < len(path) else None
                # Spare existing towers near the hop's first endpoint:
                # total towers in the vicinity minus those this path uses.
                if end_a is not None:
                    nearby = registry.count_near(end_a.point, SPARE_SEARCH_RADIUS_KM)
                else:
                    nearby = 0
                spares_per_end = max(0, (nearby - 2)) // 2
                new_per_end = max(0, (k - 1) - spares_per_end)
                census[new_per_end] += 1
                new_for_link += 2 * new_per_end
        n_hop_series += n_hops * k
        n_new_towers += new_for_link
        # Rented towers: every existing tower occupied by any series.
        existing_per_series = len(path)
        n_rented += existing_per_series + (k - 1) * max(existing_per_series - 0, 0)
        total_census.update(census)
        provisions.append(
            LinkProvision(
                link=link,
                demand_gbps=float(demand),
                n_series=k,
                n_hops=n_hops,
                new_towers=new_for_link,
                hop_new_tower_census=census,
            )
        )
    # New towers are owned, not rented; subtract them from the rented
    # estimate (they were counted inside the per-series tower totals).
    n_rented = max(0, n_rented - n_new_towers)
    return AugmentationResult(
        provisions=tuple(provisions),
        aggregate_gbps=aggregate_gbps,
        n_hop_series=n_hop_series,
        n_new_towers=n_new_towers,
        n_rented_towers=n_rented,
        hop_census=total_census,
    )
