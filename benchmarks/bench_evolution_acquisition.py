"""Extension benches: budget evolution [20], acquisition refinement [19],
and graded weather degradation (§6.1's suggested refinement).

These regenerate the paper's two online artifacts as tables — the
animation of the hybrid evolving from mostly-fiber to mostly-MW with
budget, and the §6.5 probabilistic path-refinement video — plus the
binary-vs-graded failure comparison the paper predicts "can only
improve" the weather numbers.
"""

import numpy as np

from repro.core import budget_evolution
from repro.scenarios import get_scenario
from repro.towers.acquisition import (
    AcquisitionModel,
    acquisition_study,
    refine_with_confirmations,
)
from repro.weather import YearlyWeatherEvaluator, sample_interval_days

from _support import (
    full_us_design_input,
    report,
    us_greedy_steps,
    us_topology_3000,
)


def bench_evolution_with_budget():
    """The animation [20] as a table: fiber -> MW composition."""
    design = full_us_design_input()
    steps = list(us_greedy_steps(max_budget=9000.0))
    budgets = [0, 250, 500, 1000, 2000, 3000, 5000, 8000]
    points = budget_evolution(design, steps, [float(b) for b in budgets])
    rows = ["budget  links  stretch  traffic_touching_mw  route_km_on_mw"]
    for p in points:
        rows.append(
            f"{p.budget_towers:6.0f}  {p.n_links:5d}  {p.mean_stretch:.4f}"
            f"  {p.traffic_on_mw:19.1%}  {p.distance_share_mw:14.1%}"
        )
    rows.append(
        "shape: the network evolves from mostly-fiber to mostly-MW as the "
        "budget grows (paper animation [20])"
    )
    shares = [p.distance_share_mw for p in points]
    assert shares == sorted(shares)
    report("evolution_budget", rows)


def bench_acquisition_refinement():
    """§6.5's probabilistic tower-acquisition workflow (video [19])."""
    scenario = get_scenario("us")
    names = [s.name for s in scenario.sites]
    a, b = names.index("Chicago"), names.index("Kansas City")
    site_a, site_b = scenario.sites[a], scenario.sites[b]
    model = AcquisitionModel(rental_acquire_prob=0.75, fcc_acquire_prob=0.5)
    study = acquisition_study(
        site_a, site_b, scenario.registry, scenario.hop_graph,
        model=model, n_draws=150, seed=3,
    )
    refined, confirmed = refine_with_confirmations(
        study, site_a, site_b, scenario.registry, scenario.hop_graph,
        model=model, n_draws=150,
    )
    rows = [
        f"pair: {site_a.name} <-> {site_b.name}",
        "stage       feasible%  stretch_p50  stretch_p90",
        f"initial     {study.feasible_fraction:9.1%}  {study.stretch_percentile(50):11.4f}"
        f"  {study.stretch_percentile(90):11.4f}",
        f"refined     {refined.feasible_fraction:9.1%}  {refined.stretch_percentile(50):11.4f}"
        f"  {refined.stretch_percentile(90):11.4f}",
        f"towers confirmed: {len(confirmed)}",
        "shape: confirming the most-used towers narrows the stretch spread "
        "and keeps the route buildable (paper video [19])",
    ]
    report("acquisition_refinement", rows)


def bench_graded_degradation():
    """Binary vs graded failures: latency improves, bandwidth pays."""
    scenario = get_scenario("us")
    evaluator = YearlyWeatherEvaluator(
        us_topology_3000(), scenario.catalog, scenario.registry
    )
    days = sample_interval_days(7, 120)
    binary = evaluator.binary_year(days)
    graded, capacity_loss = evaluator.graded_year(days)
    graded_p99 = np.percentile(graded, 99, axis=0)
    rows = [
        "model    p99_median  worst_median",
        f"binary   {np.median(binary.p99):10.4f}  {np.median(binary.worst):12.4f}",
        f"graded   {np.median(graded_p99):10.4f}  {np.median(graded.max(axis=0)):12.4f}",
        f"mean MW capacity lost to modulation downshifts: {capacity_loss:.2%}",
        "shape: graded operation strictly improves latency statistics "
        "(the paper: 'can only improve these numbers')",
    ]
    report("graded_degradation", rows)
