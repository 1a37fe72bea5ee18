"""Routing schemes (paper §5).

Three schemes over a site-level hybrid topology:

* ``shortest_path`` — latency-minimal routes (the design target);
* ``min_max_utilization`` — the ISP-style scheme that spreads load to
  minimize the maximum link utilization [Kandula et al.];
* ``throughput_optimal`` — maximize the concurrent-flow scaling factor.

The LP-based schemes choose, per commodity, fractions over its k
shortest paths; flows are unsplittable at packet level, so each
commodity is pinned to its highest-fraction path (the paper's flows are
unsplittable too).  Both LPs are solved with HiGHS via scipy.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from scipy.optimize import linprog


def k_shortest_paths(
    graph: nx.Graph, source, target, k: int, weight: str = "latency"
) -> list[list]:
    """Up to ``k`` loop-free shortest paths by Yen's algorithm."""
    gen = nx.shortest_simple_paths(graph, source, target, weight=weight)
    paths = []
    for path in gen:
        paths.append(path)
        if len(paths) >= k:
            break
    return paths


def shortest_path_routing(
    graph: nx.Graph, demands: dict[tuple, float], weight: str = "latency"
) -> dict[tuple, list]:
    """Latency-shortest route per commodity."""
    return {
        (s, t): nx.shortest_path(graph, s, t, weight=weight)
        for (s, t) in demands
    }


def _path_lp(
    graph: nx.Graph,
    demands: dict[tuple, float],
    k: int,
    objective: str,
) -> dict[tuple, list]:
    """Shared LP for min-max-utilization and throughput-optimal routing.

    Variables: per-commodity path fractions x_{k,p} plus one auxiliary
    (the max utilization u, minimized; or the concurrent-flow factor
    lambda, maximized).
    """
    commodities = sorted(demands)
    paths = {c: k_shortest_paths(graph, c[0], c[1], k) for c in commodities}
    edges = list(graph.edges())
    edge_index = {}
    for idx, (u, v) in enumerate(edges):
        edge_index[(u, v)] = idx
        edge_index[(v, u)] = idx
    n_edges = len(edges)
    capacities = np.array(
        [graph[u][v].get("capacity", np.inf) for u, v in edges], dtype=float
    )

    var_offsets: dict[tuple, int] = {}
    n_vars = 0
    for c in commodities:
        var_offsets[c] = n_vars
        n_vars += len(paths[c])
    aux = n_vars  # u (min-max) or lambda (throughput)
    n_vars += 1

    # Capacity rows: sum of demand-weighted fractions over paths using
    # the edge, minus capacity * u <= 0  (or <= capacity for lambda).
    rows, cols, vals = [], [], []
    for c in commodities:
        demand = demands[c]
        for p_idx, path in enumerate(paths[c]):
            var = var_offsets[c] + p_idx
            for u, v in zip(path[:-1], path[1:]):
                rows.append(edge_index[(u, v)])
                cols.append(var)
                vals.append(demand)
    a_ub = np.zeros((n_edges, n_vars))
    for r, cc, vv in zip(rows, cols, vals):
        a_ub[r, cc] += vv
    if objective == "min_max_util":
        a_ub[:, aux] = -capacities
        b_ub = np.zeros(n_edges)
        c_vec = np.zeros(n_vars)
        c_vec[aux] = 1.0  # minimize u
        # Fractions per commodity sum to exactly 1.
        lam_coupling = 1.0
    elif objective == "throughput":
        b_ub = capacities.copy()
        c_vec = np.zeros(n_vars)
        c_vec[aux] = -1.0  # maximize lambda
        lam_coupling = None
    else:
        raise ValueError(f"unknown objective {objective!r}")

    a_eq = np.zeros((len(commodities), n_vars))
    b_eq = np.ones(len(commodities))
    for row, c in enumerate(commodities):
        for p_idx in range(len(paths[c])):
            a_eq[row, var_offsets[c] + p_idx] = 1.0
        if lam_coupling is None:
            # Fractions sum to lambda instead of 1.
            a_eq[row, aux] = -1.0
            b_eq[row] = 0.0

    bounds = [(0.0, None)] * n_vars
    result = linprog(
        c=c_vec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if result.x is None:
        raise RuntimeError(f"routing LP failed: {result.message}")

    routing: dict[tuple, list] = {}
    for c in commodities:
        fractions = result.x[var_offsets[c] : var_offsets[c] + len(paths[c])]
        routing[c] = paths[c][int(np.argmax(fractions))]
    return routing


def min_max_utilization_routing(
    graph: nx.Graph,
    demands: dict[tuple, float],
    k: int = 4,
) -> dict[tuple, list]:
    """Route to minimize the maximum link utilization."""
    return _path_lp(graph, demands, k, "min_max_util")


def throughput_optimal_routing(
    graph: nx.Graph,
    demands: dict[tuple, float],
    k: int = 4,
) -> dict[tuple, list]:
    """Route to maximize the concurrent-flow scaling factor."""
    return _path_lp(graph, demands, k, "throughput")


def mean_route_latency(
    graph: nx.Graph,
    routing: dict[tuple, list],
    demands: dict[tuple, float],
    weight: str = "latency",
) -> float:
    """Demand-weighted mean route latency of a routing."""
    total_d = sum(demands.values())
    if total_d <= 0:
        raise ValueError("no demand")
    acc = 0.0
    for c, path in routing.items():
        lat = sum(graph[u][v][weight] for u, v in zip(path[:-1], path[1:]))
        acc += demands[c] * lat
    return acc / total_d
