"""E4 — Fig 4(a): mean stretch vs tower budget, 70 vs 100 km hops.

The paper's curve falls from the all-fiber ~1.9x toward ~1.05x around
3,000 towers and flattens past ~6,000.  A single greedy run yields the
whole curve (prefix property), and the 70 km-range variant tracks the
100 km curve closely — the paper's stated reason for only reporting
100 km results thereafter.
"""

from _support import report, stretch_at_budget, us_greedy_steps

BUDGETS = [0, 500, 1000, 2000, 3000, 4000, 6000, 8000]


def bench_fig4a_stretch_vs_budget():
    steps_100 = us_greedy_steps(max_budget=9000.0, max_range_km=100.0)
    steps_70 = us_greedy_steps(max_budget=9000.0, max_range_km=70.0)
    rows = ["budget_towers  stretch_100km  stretch_70km"]
    for budget in BUDGETS:
        s100 = stretch_at_budget(steps_100, budget)
        s70 = stretch_at_budget(steps_70, budget)
        rows.append(f"{budget:13d}  {s100:.4f}        {s70:.4f}")
    rows.append("shape checks: monotone decreasing; 70 km close to 100 km")
    report("fig4a_budget_sweep", rows)
