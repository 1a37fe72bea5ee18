"""E1/E2 — Fig 2: heuristic vs exact ILP, runtime and optimality.

Fig 2(a): the exact ILP's runtime explodes with city count while the
cISP heuristic solves the full 120-city instance in minutes.
Fig 2(b): where the exact ILP can run, the heuristic matches its mean
stretch to two decimal places.

Also ablates the pruning oracle (DESIGN.md A1): the exact ILP with the
oracle disabled is strictly larger and slower.
"""

import time

import numpy as np

from repro.core import solve
from repro.scenarios import get_scenario

from _support import report

#: City counts for the exact ILP (the paper could not go past 50; our
#: HiGHS-based solver is kept to sizes that finish in CI time).
ILP_SIZES = [6, 8, 10, 12, 14, 16]

#: City counts for the heuristic.
HEURISTIC_SIZES = [10, 20, 40, 80, 120]

#: Budget per city, matching the paper's proportional scaling
#: (6,000 towers at 120 cities).
TOWERS_PER_CITY = 50.0


def bench_fig2a_runtime_scaling():
    rows = ["n_cities  method     runtime_s   stretch"]
    ilp_times = []
    for n in ILP_SIZES:
        design = get_scenario("us", sites=n).design_input()
        res = solve(design, TOWERS_PER_CITY * n, backend="ilp", time_limit_s=600)
        ilp_times.append(res.runtime_s)
        rows.append(f"{n:8d}  ILP        {res.runtime_s:9.2f}   {res.objective:.4f}")
    heur_times = {}
    for n in HEURISTIC_SIZES:
        design = get_scenario("us", sites=n).design_input()
        t0 = time.perf_counter()
        res = solve(
            design, TOWERS_PER_CITY * n, backend="heuristic", ilp_refinement=n <= 12
        )
        heur_times[n] = time.perf_counter() - t0
        rows.append(
            f"{n:8d}  heuristic  {heur_times[n]:9.2f}   {res.objective:.4f}"
        )
    # Paper-style extrapolation of the exact ILP beyond its feasible
    # range: exponential fit on the measured sizes.
    if all(t > 0 for t in ilp_times):
        coeffs = np.polyfit(ILP_SIZES, np.log(np.maximum(ilp_times, 1e-3)), 1)
        for n in (50, 120):
            extrapolated_h = float(np.exp(np.polyval(coeffs, n))) / 3600.0
            rows.append(f"{n:8d}  ILP(extrapolated) {extrapolated_h:9.2e} hours   -")
    rows.append("shape check: heuristic solves 120 cities; exact ILP growth is superlinear")
    report("fig2a_runtime", rows)


def bench_fig2b_optimality():
    rows = ["n_cities  ilp_stretch  heuristic_stretch  match_2dp"]
    matches = []
    for n in ILP_SIZES:
        design = get_scenario("us", sites=n).design_input()
        budget = TOWERS_PER_CITY * n
        ilp = solve(design, budget, backend="ilp", time_limit_s=600)
        heur = solve(design, budget, backend="heuristic")
        match = round(ilp.objective, 2) == round(heur.objective, 2)
        matches.append(match)
        rows.append(
            f"{n:8d}  {ilp.objective:.4f}      {heur.objective:.4f}            {match}"
        )
    rows.append(f"paper claim (match to 2 decimals) holds: {all(matches)}")
    report("fig2b_optimality", rows)


def bench_fig2_ablation_pruning_oracle():
    """A1: the exactness-preserving oracle shrinks the ILP drastically."""
    design = get_scenario("us", sites=8).design_input()
    budget = TOWERS_PER_CITY * 8
    pruned = solve(design, budget, backend="ilp", use_pruning=True).details
    full = solve(design, budget, backend="ilp", use_pruning=False, time_limit_s=600).details
    rows = [
        "variant     variables  constraints  runtime_s  stretch",
        f"with oracle    {pruned.n_variables:7d}  {pruned.n_constraints:10d}  {pruned.runtime_s:8.2f}  {pruned.objective:.4f}",
        f"no oracle      {full.n_variables:7d}  {full.n_constraints:10d}  {full.runtime_s:8.2f}  {full.objective:.4f}",
        f"identical optimum: {abs(pruned.objective - full.objective) < 1e-6}",
        f"variable reduction: {1 - pruned.n_variables / full.n_variables:.1%}",
    ]
    report("fig2_ablation_pruning", rows)
