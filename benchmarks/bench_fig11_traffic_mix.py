"""E13 — Fig 11: robustness to traffic-mix deviations.

A cISP designed for a 4:3:3 city-city : city-DC : DC-DC mix is offered
5:3:3, 4:4:3, and 4:3:4 mixes instead: mean delay moves by well under a
millisecond and loss stays ~0 up to ~70% of design load.
"""

from repro.core import solve_heuristic
from repro.netsim import run_load_curve
from repro.scenarios import city_dc_traffic, dc_dc_traffic, get_scenario
from repro.traffic import mixed_matrix, population_product_matrix

from _support import report

DESIGN_GBPS = 100.0
LOADS = [0.3, 0.5, 0.7, 0.9]
MIXES = {
    "4:3:3 (design)": (4.0, 3.0, 3.0),
    "5:3:3": (5.0, 3.0, 3.0),
    "4:4:3": (4.0, 4.0, 3.0),
    "4:3:4": (4.0, 3.0, 4.0),
}


def bench_fig11_traffic_mix():
    scenario = get_scenario("city_dc")
    sites = list(scenario.sites)
    cc = population_product_matrix(sites)
    cdc = city_dc_traffic(scenario)
    dcdc = dc_dc_traffic(scenario)

    design_mix = mixed_matrix([(cc, 4.0), (cdc, 3.0), (dcdc, 3.0)])
    design = scenario.design_input(design_mix)
    topology = solve_heuristic(design, 3000.0, ilp_refinement=False).topology

    rows = ["mix             load%  mean_delay_ms  loss_rate"]
    deltas = []
    baseline_delay = {}
    for label, (w_cc, w_cdc, w_dc) in MIXES.items():
        offered = mixed_matrix([(cc, w_cc), (cdc, w_cdc), (dcdc, w_dc)])
        curve = run_load_curve(
            topology,
            DESIGN_GBPS,
            LOADS,
            duration_s=0.4,
            seed=5,
            capacity_mode="tight",
            offered_traffic=offered,
            rate_scale=3e-3,
        )
        for row in curve:
            load, delay = row["load"], row["mean_delay_ms"]
            rows.append(
                f"{label:15s} {load * 100:4.0f}  {delay:13.3f}  {row['loss_rate']:.4f}"
            )
            if label == "4:3:3 (design)":
                baseline_delay[load] = delay
            elif load <= 0.7:
                deltas.append(abs(delay - baseline_delay[load]))
    rows.append(
        f"max |delay shift| vs design mix at <=70% load: {max(deltas):.3f} ms"
        " (paper: <0.05 ms)"
    )
    report("fig11_traffic_mix", rows)
