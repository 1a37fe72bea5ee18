"""A2/A4 ablations: greedy candidate inflation and routing schemes.

A2: the heuristic generates ILP candidates with a 2x-inflated budget;
smaller inflation risks missing links the exact optimum uses, larger
inflation only grows the ILP.  We sweep the factor and compare against
the exact ILP.

A4 (§5): the alternative routing schemes (min-max utilization and
throughput-optimal) trade ~10% extra latency for load balance on the
designed topology.
"""

import networkx as nx

from repro.core import solve_heuristic, solve_ilp
from repro.netsim import (
    mean_route_latency,
    min_max_utilization_routing,
    shortest_path_routing,
    throughput_optimal_routing,
)
from repro.scenarios import get_scenario

from _support import report, us_topology_3000

INFLATIONS = [1.0, 1.5, 2.0, 3.0]
N_SITES = 10
BUDGET = 500.0


def bench_ablation_greedy_inflation():
    design = get_scenario("us", sites=N_SITES).design_input()
    exact = solve_ilp(design, BUDGET, time_limit_s=600)
    rows = [
        f"exact ILP stretch: {exact.objective:.4f}",
        "inflation  heuristic_stretch  gap",
    ]
    for inflation in INFLATIONS:
        res = solve_heuristic(design, BUDGET, inflation=inflation)
        gap = res.objective - exact.objective
        rows.append(f"{inflation:9.1f}  {res.objective:.4f}            {gap:+.4f}")
    rows.append("shape: gap closes by 2x inflation (the paper's choice)")
    report("ablation_greedy_inflation", rows)


def bench_ablation_routing_schemes():
    """A4: latency premium of load-balancing routing on the US design."""
    topology = us_topology_3000()
    design = topology.design

    graph = nx.Graph()
    for a, b in topology.mw_links:
        graph.add_edge(a, b, latency=design.mw_km[a, b], capacity=4.0)
    # Demands between MW-connected sites only (fiber is unconstrained in
    # the paper's model, so load balancing concerns MW links).
    demands = {}
    h = design.traffic
    nodes = set(graph.nodes)
    pairs = sorted(
        ((s, t) for s in nodes for t in nodes if s < t and h[s, t] > 0),
        key=lambda p: -h[p],
    )[:60]
    for s, t in pairs:
        if nx.has_path(graph, s, t):
            demands[(s, t)] = float(h[s, t] * 1e4)
    sp = shortest_path_routing(graph, demands)
    mm = min_max_utilization_routing(graph, demands, k=3)
    to = throughput_optimal_routing(graph, demands, k=3)
    lat_sp = mean_route_latency(graph, sp, demands)
    rows = ["scheme              mean_latency_km  premium_vs_shortest"]
    for name, routing in (("shortest-path", sp), ("min-max-util", mm), ("throughput-opt", to)):
        lat = mean_route_latency(graph, routing, demands)
        rows.append(f"{name:18s}  {lat:15.1f}  {(lat / lat_sp - 1) * 100:+.1f}%")
    rows.append("paper: alternative schemes incur ~10% higher latency")
    report("ablation_routing_schemes", rows)
