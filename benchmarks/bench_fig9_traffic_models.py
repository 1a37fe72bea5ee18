"""E11 — Fig 9: cost per GB for the three deployment models.

City-city (the paper's primary model) is the most expensive across the
throughput sweep; DC-DC and city-DC networks have a far smaller
infrastructure footprint (few sites / few long links), so their $/GB
falls well below the city-city curve.
"""

from repro.core import augment_capacity, solve_heuristic
from repro.scenarios import city_dc_traffic, dc_dc_traffic, get_scenario

from _support import report, us_topology_3000

THROUGHPUTS_GBPS = [10, 50, 100, 200]


def _cost_curve(scenario, topology):
    return [
        augment_capacity(
            topology, scenario.catalog, scenario.registry, float(g)
        ).cost_per_gb()
        for g in THROUGHPUTS_GBPS
    ]


def bench_fig9_traffic_models():
    # City-city: the flagship design.
    cc_scenario = get_scenario("us")
    cc_topology = us_topology_3000()
    cc_costs = _cost_curve(cc_scenario, cc_topology)

    # DC-DC: six sites, equal demand.
    dc_scenario = get_scenario("interdc")
    dc_design = dc_scenario.design_input(dc_dc_traffic(dc_scenario))
    dc_topology = solve_heuristic(dc_design, 800.0, ilp_refinement=False).topology
    dc_costs = _cost_curve(dc_scenario, dc_topology)

    # City-DC: population-weighted to the nearest data center.
    cdc_scenario = get_scenario("city_dc")
    cdc_design = cdc_scenario.design_input(city_dc_traffic(cdc_scenario))
    cdc_topology = solve_heuristic(cdc_design, 1500.0, ilp_refinement=False).topology
    cdc_costs = _cost_curve(cdc_scenario, cdc_topology)

    rows = ["aggregate_gbps  city_city  dc_dc   city_dc"]
    for i, g in enumerate(THROUGHPUTS_GBPS):
        rows.append(
            f"{g:14d}  ${cc_costs[i]:7.3f}  ${dc_costs[i]:6.3f}  ${cdc_costs[i]:6.3f}"
        )
    cheaper = all(
        dc <= cc and cdc <= cc
        for cc, dc, cdc in zip(cc_costs, dc_costs, cdc_costs)
    )
    rows.append(f"city-city most expensive at every throughput: {cheaper}")
    report("fig9_traffic_models", rows)
