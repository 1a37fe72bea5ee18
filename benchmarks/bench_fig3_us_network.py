"""E3 — Fig 3: the flagship US network.

120 population centers, 3,000-tower budget, provisioned for 100 Gbps:
the paper reports 1.05x mean stretch, $0.81/GB, and a hop census of
1,660 / 552 / 86 hops needing 0 / 1 / 2 additional towers at each end.
"""

from repro.core import CostModel, augment_capacity, fiber_only_topology
from repro.scenarios import get_scenario

from _support import full_us_design_input, report, us_topology_3000


def bench_fig3_flagship_design():
    scenario = get_scenario("us")
    topology = us_topology_3000()
    design = full_us_design_input()

    aug = augment_capacity(topology, scenario.catalog, scenario.registry, 100.0)
    cost = aug.cost_per_gb(CostModel())
    fiber = fiber_only_topology(design).mean_stretch()
    census = dict(sorted(aug.hop_census.items()))

    rows = [
        "metric                          paper      measured",
        f"mean stretch                    1.05       {topology.mean_stretch():.3f}",
        f"fiber-only stretch              1.93       {fiber:.3f}",
        f"budget (towers)                 3000       {topology.total_cost_towers:.0f}",
        f"MW links built                  -          {len(topology.mw_links)}",
        f"hops with 0 new towers          1660       {census.get(0, 0)}",
        f"hops with 1 new tower/end       552        {census.get(1, 0)}",
        f"hops with 2 new towers/end      86         {sum(v for k, v in census.items() if k >= 2)}",
        f"cost per GB at 100 Gbps         $0.81      ${cost:.2f}",
    ]
    report("fig3_us_network", rows)
