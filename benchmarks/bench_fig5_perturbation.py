"""E7 — Fig 5: delay and loss vs offered load under traffic perturbation.

The paper's ns-3 result: with population-perturbed traffic (gamma in
{0.1, 0.3, 0.5}) on the network designed for the unperturbed matrix,
mean delay moves by under ~0.1 ms and loss stays ~0 up to ~70% load;
only heavy load exposes the mismatch.  Rates here are uniformly scaled
down (utilizations preserved) to keep the packet count laptop-sized.
"""

from repro.netsim import run_load_curve
from repro.scenarios import get_scenario
from repro.traffic import perturbed_population_matrix

from _support import report, us_topology_3000

LOAD_FRACTIONS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
GAMMAS = [0.0, 0.1, 0.3, 0.5]
DESIGN_GBPS = 100.0


def bench_fig5_delay_loss_vs_load():
    scenario = get_scenario("us")
    topology = us_topology_3000()
    sites = list(scenario.sites)

    rows = ["gamma  load%  mean_delay_ms  loss_rate"]
    series = {}
    for gamma in GAMMAS:
        traffic = (
            None
            if gamma == 0.0
            else perturbed_population_matrix(sites, gamma=gamma, seed=17)
        )
        curve = run_load_curve(
            topology,
            DESIGN_GBPS,
            LOAD_FRACTIONS,
            duration_s=0.4,
            seed=3,
            capacity_mode="tight",
            offered_traffic=traffic,
            rate_scale=3e-3,
        )
        for row in curve:
            series[(gamma, row["load"])] = row
            rows.append(
                f"{gamma:5.1f}  {row['load'] * 100:4.0f}  "
                f"{row['mean_delay_ms']:13.3f}  {row['loss_rate']:.4f}"
            )
    # Shape checks mirroring the paper's claims.
    low_load_losses = [series[(g, f)]["loss_rate"] for g in GAMMAS for f in (0.1, 0.3, 0.5, 0.7)]
    rows.append(
        f"loss ~0 up to 70% load for all gammas: {max(low_load_losses):.4f} max"
    )
    base = series[(0.0, 0.7)]["mean_delay_ms"]
    worst = max(series[(g, 0.7)]["mean_delay_ms"] for g in GAMMAS)
    rows.append(f"delay shift at 70% load across gammas: {worst - base:.3f} ms")
    report("fig5_perturbation", rows)
