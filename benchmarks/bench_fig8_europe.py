"""E10 — Fig 8: a European cISP of the same scale and cost.

Cities above 300k population, fiber assumed 1.9x-inflated over geodesic
as in the US: the paper reaches 1.04x mean stretch with ~3k towers and
similar cost, concluding US geography is not special.
"""

from repro.core import augment_capacity, fiber_only_topology, solve_heuristic
from repro.scenarios import get_scenario

from _support import report


def bench_fig8_europe():
    scenario = get_scenario("europe")
    design = scenario.design_input()
    result = solve_heuristic(design, 3000.0, ilp_refinement=False)
    aug = augment_capacity(
        result.topology, scenario.catalog, scenario.registry, 100.0
    )
    rows = [
        "metric                      paper     measured",
        f"cities (>300k pop)          -         {scenario.n_sites}",
        f"mean stretch                1.04      {result.objective:.3f}",
        f"fiber-only stretch          1.93      {fiber_only_topology(design).mean_stretch():.3f}",
        f"towers used                 ~3000     {result.topology.total_cost_towers:.0f}",
        f"cost per GB at 100 Gbps     ~$0.81    ${aug.cost_per_gb():.2f}",
        f"MW links built              -         {len(result.topology.mw_links)}",
    ]
    report("fig8_europe", rows)
