"""E6 — Fig 4(c): cost per GB vs aggregate throughput (city-city model).

The curve falls steeply and flattens under $1/GB by a few hundred Gbps
(the paper quotes $0.81/GB at 100 Gbps); fixed rental/equipment costs
amortize over more carried traffic faster than augmentation adds new
towers (the k^2 bandwidth trick needs only sqrt-many series).
"""

from repro.core import augment_capacity
from repro.scenarios import get_scenario

from _support import report, us_topology_3000

THROUGHPUTS_GBPS = [1, 10, 50, 100, 200, 500, 1000]


def bench_fig4c_cost_vs_throughput():
    scenario = get_scenario("us")
    topology = us_topology_3000()
    rows = ["aggregate_gbps  cost_per_gb  new_towers  hop_series"]
    costs = []
    for gbps in THROUGHPUTS_GBPS:
        aug = augment_capacity(
            topology, scenario.catalog, scenario.registry, float(gbps)
        )
        cost = aug.cost_per_gb()
        costs.append(cost)
        rows.append(
            f"{gbps:14d}  ${cost:9.3f}  {aug.n_new_towers:10d}  {aug.n_hop_series:10d}"
        )
    rows.append(f"shape: monotone decreasing = {all(a >= b for a, b in zip(costs, costs[1:]))}")
    rows.append(f"cost at 100 Gbps: ${costs[THROUGHPUTS_GBPS.index(100)]:.2f} (paper: $0.81)")
    report("fig4c_cost_throughput", rows)
