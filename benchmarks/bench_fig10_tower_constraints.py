"""E12 — Fig 10: tighter tower constraints raise cost and stretch mildly.

Restricting the usable mounting height (antennae cannot always go at
the tower top) and the maximum hop range eliminates towers and hops; the
paper measures at most ~11% extra cost and ~10% extra stretch across ten
(range, height-fraction) combinations — tower-siting trouble does not
change the conclusions.

Scenario note: we run at a reduced city count so ten full substrate
rebuilds stay within benchmark time; the constraint *ordering* is scale-
independent.
"""

from repro.core import augment_capacity, solve_heuristic
from repro.scenarios import get_scenario

from _support import report

#: The paper's (range km, usable height fraction) combinations,
#: baseline first.
COMBOS = [
    (100.0, 1.0),
    (100.0, 0.85),
    (80.0, 1.0),
    (100.0, 0.65),
    (70.0, 1.0),
    (100.0, 0.45),
    (70.0, 0.45),
    (60.0, 1.0),
    (60.0, 0.65),
    (60.0, 0.45),
]

N_SITES = 40
BUDGET = 1400.0
AGGREGATE_GBPS = 100.0


def _evaluate(range_km: float, height_fraction: float):
    scenario = get_scenario(
        "us",
        sites=N_SITES,
        max_range_km=range_km,
        usable_height_fraction=height_fraction,
    )
    design = scenario.design_input()
    result = solve_heuristic(design, BUDGET, ilp_refinement=False)
    aug = augment_capacity(
        result.topology, scenario.catalog, scenario.registry, AGGREGATE_GBPS
    )
    return result.objective, aug.cost_per_gb()


def bench_fig10_tower_constraints():
    base_stretch, base_cost = _evaluate(*COMBOS[0])
    rows = [
        f"baseline: stretch={base_stretch:.4f} cost=${base_cost:.3f}/GB",
        "range_km  height_frac  stretch_increase%  cost_increase%",
    ]
    worst_stretch, worst_cost = 0.0, 0.0
    for range_km, frac in COMBOS[1:]:
        stretch, cost = _evaluate(range_km, frac)
        ds = (stretch - base_stretch) / base_stretch * 100.0
        dc = (cost - base_cost) / base_cost * 100.0
        worst_stretch = max(worst_stretch, ds)
        worst_cost = max(worst_cost, dc)
        rows.append(f"{range_km:8.0f}  {frac:11.2f}  {ds:17.1f}  {dc:14.1f}")
    rows.append(
        f"max increases: stretch {worst_stretch:.1f}% (paper: ~10%), "
        f"cost {worst_cost:.1f}% (paper: ~11%)"
    )
    report("fig10_tower_constraints", rows)
