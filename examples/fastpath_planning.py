#!/usr/bin/env python3
"""Fast-path integration planning (paper §6.6 + §8).

An operator adopting cISP must decide which traffic earns a slot on the
bandwidth-scarce fast path.  This example designs a network, takes its
measured cost per GB, and fills its capacity with the most valuable
latency-sensitive traffic classes.

Run:  python examples/fastpath_planning.py
"""

from repro import design_network, get_scenario
from repro.apps import breakeven_capacity_gbps, plan_fast_path


def main() -> None:
    print("Designing a 30-city cISP at 1,000 towers / 50 Gbps...")
    scenario = get_scenario("us", sites=30)
    result = design_network(
        scenario.design_input(),
        budget_towers=1_000,
        aggregate_gbps=50,
        catalog=scenario.catalog,
        registry=scenario.registry,
        ilp_refinement=False,
    )
    cost = result.cost_per_gb_usd
    print(f"  stretch {result.mean_stretch:.3f}, cost ${cost:.2f}/GB\n")

    print("Filling the 50 Gbps fast path in value order (§6.6):")
    plan = plan_fast_path(capacity_gbps=50.0)
    print("  class             admitted     of its demand   $/GB")
    for alloc in plan.allocations:
        c = alloc.traffic_class
        print(
            f"  {c.name:16s} {alloc.admitted_gbps:6.1f} Gbps"
            f"   {alloc.fraction_admitted:12.0%}   ${c.value_per_gb:.2f}"
        )
    print(f"  total admitted: {plan.admitted_gbps():.1f} Gbps, "
          f"yearly value ${plan.value_per_year_usd / 1e6:.0f}M")

    breakeven = breakeven_capacity_gbps(cost)
    print(f"\nAt ${cost:.2f}/GB, up to {breakeven:.0f} Gbps of today's "
          "latency-sensitive traffic pays for its fast-path carriage —")
    print("the economic headroom behind the paper's cost-benefit argument.")


if __name__ == "__main__":
    main()
