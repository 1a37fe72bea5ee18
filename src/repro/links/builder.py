"""Step 1: best feasible tower-level connectivity per site pair (§3.1, §4).

Builds a graph whose nodes are towers plus the sites themselves (the
paper observes each site hosts enough towers to anchor many links), runs
a shortest-path computation from every site, and extracts for each site
pair the *link*: the shortest series of feasible tower hops.  The link's
latency is the distance along the chosen towers; its cost is the number
of towers it uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..datasets.sites import Site
from ..geo.coords import haversine_km
from ..towers.hops import HopGraph
from ..towers.registry import TowerRegistry

#: Towers within this radius of a site can serve as the link's first hop
#: (the paper: each site "hosts enough towers" for many links).
SITE_ATTACH_KM = 25.0


@dataclass(frozen=True)
class CandidateLink:
    """A site-to-site microwave link found in Step 1.

    Attributes:
        site_a / site_b: endpoint indices into the scenario's site list
            (a < b).
        mw_km: distance along the tower series (the m_ij input of §3.2).
        n_towers: number of towers used (the link's cost c_ij in the
            tower-budget currency).
        tower_path: the tower ids along the path, in order.
    """

    site_a: int
    site_b: int
    mw_km: float
    n_towers: int
    tower_path: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.site_a >= self.site_b:
            raise ValueError("site_a must be < site_b")
        if self.mw_km <= 0:
            raise ValueError("link length must be positive")


@dataclass(frozen=True)
class LinkCatalog:
    """All Step-1 outputs for a scenario.

    Attributes:
        n_sites: number of sites.
        links: mapping (a, b) -> CandidateLink for connected pairs.
        mw_km: (n, n) matrix of MW link lengths (inf if infeasible).
        cost_towers: (n, n) matrix of tower counts (large if infeasible).
    """

    n_sites: int
    links: dict[tuple[int, int], CandidateLink]
    mw_km: np.ndarray
    cost_towers: np.ndarray

    def link(self, a: int, b: int) -> CandidateLink | None:
        """The candidate link between sites a and b, if one exists."""
        key = (min(a, b), max(a, b))
        return self.links.get(key)


def _site_attachment_edges(
    sites: list[Site], registry: TowerRegistry
) -> tuple[list[int], list[int], list[float]]:
    """Edges connecting each site node to the towers within
    :data:`SITE_ATTACH_KM` of it."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n_towers = len(registry)
    for s_idx, site in enumerate(sites):
        nearby = registry.near(site.point, SITE_ATTACH_KM)
        for t in nearby:
            d = haversine_km(site.lat, site.lon, t.lat, t.lon)
            rows.append(n_towers + s_idx)
            cols.append(t.tower_id)
            vals.append(max(d, 0.1))
    return rows, cols, vals


def build_link_catalog(
    sites: list[Site],
    registry: TowerRegistry,
    hop_graph: HopGraph,
) -> LinkCatalog:
    """Compute the shortest feasible MW link between every site pair.

    Sites unreachable through the tower graph get ``inf`` length and a
    prohibitive cost; the topology-design step will simply never select
    them (fiber remains available).
    """
    n_sites = len(sites)
    n_towers = hop_graph.n_towers
    n_nodes = n_towers + n_sites

    rows = list(hop_graph.edges_a) + list(hop_graph.edges_b)
    cols = list(hop_graph.edges_b) + list(hop_graph.edges_a)
    vals = list(hop_graph.lengths_km) * 2
    s_rows, s_cols, s_vals = _site_attachment_edges(sites, registry)
    rows += s_rows + s_cols
    cols += s_cols + s_rows
    vals += s_vals + s_vals
    graph = csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(n_nodes, n_nodes)
    )

    site_indices = np.arange(n_towers, n_nodes)
    dist, predecessors = dijkstra(
        graph, directed=False, indices=site_indices, return_predecessors=True
    )

    links: dict[tuple[int, int], CandidateLink] = {}
    mw_km = np.full((n_sites, n_sites), np.inf)
    np.fill_diagonal(mw_km, 0.0)
    cost = np.full((n_sites, n_sites), np.inf)
    np.fill_diagonal(cost, 0.0)
    for a in range(n_sites):
        for b in range(a + 1, n_sites):
            d = dist[a, n_towers + b]
            if not np.isfinite(d):
                continue
            path = _reconstruct_path(predecessors[a], n_towers + b)
            towers_on_path = tuple(node for node in path if node < n_towers)
            link = CandidateLink(
                site_a=a,
                site_b=b,
                mw_km=float(d),
                n_towers=len(towers_on_path),
                tower_path=towers_on_path,
            )
            links[(a, b)] = link
            mw_km[a, b] = mw_km[b, a] = link.mw_km
            cost[a, b] = cost[b, a] = link.n_towers
    return LinkCatalog(n_sites=n_sites, links=links, mw_km=mw_km, cost_towers=cost)


def _reconstruct_path(predecessor_row: np.ndarray, target: int) -> list[int]:
    """Node sequence ending at ``target`` from a dijkstra predecessor row."""
    path = [target]
    node = target
    while predecessor_row[node] >= 0:
        node = int(predecessor_row[node])
        path.append(node)
    path.reverse()
    return path
