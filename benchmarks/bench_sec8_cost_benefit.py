"""E16 — §8: value per GB vs the network's cost per GB.

The paper's bottom line: web search $1.84-$3.74/GB, e-commerce
$3.26-$22.82/GB, gaming >= $3.7/GB — all well above the measured cost.
We compare against *our* measured Fig 3 cost rather than assuming the
paper's $0.81.
"""

from repro.apps import all_estimates
from repro.core import augment_capacity
from repro.scenarios import get_scenario

from _support import report, us_topology_3000


def bench_sec8_cost_benefit():
    scenario = get_scenario("us")
    topology = us_topology_3000()
    aug = augment_capacity(topology, scenario.catalog, scenario.registry, 100.0)
    cost = aug.cost_per_gb()
    rows = [
        f"measured network cost: ${cost:.2f}/GB (paper: $0.81/GB)",
        "scenario      low_$per_GB  high_$per_GB  exceeds_cost",
    ]
    all_exceed = True
    for est in all_estimates():
        exceeds = est.exceeds_cost(cost)
        all_exceed &= exceeds
        rows.append(
            f"{est.label:12s}  ${est.low_usd_per_gb:10.2f}  ${est.high_usd_per_gb:11.2f}  {exceeds}"
        )
    rows.append(f"every scenario's value exceeds the cost: {all_exceed}")
    report("sec8_cost_benefit", rows)
