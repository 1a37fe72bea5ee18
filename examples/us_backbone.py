#!/usr/bin/env python3
"""The paper's flagship experiment: a 120-city US cISP (Fig 3).

Designs the full contiguous-US network at a 3,000-tower budget,
provisions 100 Gbps, prints the link map summary, the capacity-
augmentation census, and the cost breakdown — then sweeps the budget to
show the stretch curve of Fig 4(a).

Run:  python examples/us_backbone.py        (takes ~1 minute)
"""

from collections import Counter

from repro import design_network, get_scenario, greedy_sequence
from repro.core import CostModel


def main() -> None:
    print("Building the full US scenario (120 population centers)...")
    scenario = get_scenario("us")
    design_input = scenario.design_input()

    print("Designing at a 3,000-tower budget, provisioning 100 Gbps...")
    result = design_network(
        design_input,
        budget_towers=3_000,
        aggregate_gbps=100,
        catalog=scenario.catalog,
        registry=scenario.registry,
        ilp_refinement=False,
    )
    print(f"  mean stretch {result.mean_stretch:.3f} (paper: 1.05), "
          f"fiber baseline {result.fiber_mean_stretch:.2f} (paper: 1.93)")

    aug = result.augmentation
    census = Counter(aug.hop_census)
    print(f"  hop census: {dict(sorted(census.items()))} "
          "(paper: {0: 1660, 1: 552, 2: 86})")
    model = CostModel()
    print(f"  capex ${model.capex_usd(aug.n_hop_series, aug.n_new_towers) / 1e6:.0f}M, "
          f"5-yr opex ${model.opex_usd(aug.n_rented_towers) / 1e6:.0f}M "
          f"-> ${result.cost_per_gb_usd:.2f}/GB (paper: $0.81)")

    # The largest links, annotated like Fig 3's color coding.
    print("\n  largest-demand links:")
    top = sorted(aug.provisions, key=lambda p: -p.demand_gbps)[:8]
    for p in top:
        a, b = p.link
        print(
            f"    {scenario.sites[a].name:15s} <-> {scenario.sites[b].name:15s} "
            f"{p.demand_gbps:6.1f} Gbps -> {p.n_series} series, "
            f"{p.new_towers} new towers"
        )

    print("\nBudget sweep (Fig 4a):")
    steps = greedy_sequence(design_input, 8_000)
    for budget in (500, 1_000, 2_000, 3_000, 4_000, 6_000, 8_000):
        prefix = [s for s in steps if s.cumulative_cost <= budget]
        if prefix:
            print(f"  {budget:5d} towers -> stretch {prefix[-1].mean_stretch:.3f}")


if __name__ == "__main__":
    main()
