#!/usr/bin/env python3
"""Quickstart: design a small speed-of-light network in one page.

Builds a 30-city US scenario (synthetic towers + terrain + fiber),
designs a hybrid MW/fiber topology under a 1,000-tower budget,
provisions it for 50 Gbps, and prints the headline numbers the paper
optimizes for: mean latency stretch and cost per gigabyte.

Run:  python examples/quickstart.py
"""

from repro import design_network, get_scenario
from repro.geo import c_latency_ms


def main() -> None:
    print("Building the substrate (synthetic towers, terrain, fiber)...")
    scenario = get_scenario("us", sites=30)
    print(
        f"  {scenario.n_sites} cities, {len(scenario.registry)} towers, "
        f"{scenario.hop_graph.n_edges} feasible microwave hops"
    )

    print("Designing the topology (1,000-tower budget)...")
    result = design_network(
        scenario.design_input(),
        budget_towers=1_000,
        aggregate_gbps=50,
        catalog=scenario.catalog,
        registry=scenario.registry,
        ilp_refinement=False,
    )

    print(f"  built {result.mw_link_count} microwave links "
          f"({result.towers_used:.0f} towers)")
    print(f"  mean stretch: {result.mean_stretch:.3f}x c-latency "
          f"(all-fiber baseline: {result.fiber_mean_stretch:.3f}x)")
    print(f"  cost: ${result.cost_per_gb_usd:.2f} per GB at 50 Gbps")

    # What does that mean for a concrete pair?
    sites = scenario.sites
    stretch = result.topology.stretch_matrix()
    a, b = 0, 1
    geodesic = sites[a].distance_km(sites[b])
    print(
        f"\n  {sites[a].name} <-> {sites[b].name}: {geodesic:.0f} km, "
        f"c-latency {c_latency_ms(geodesic):.1f} ms, "
        f"cISP latency {c_latency_ms(geodesic) * stretch[a, b]:.1f} ms "
        f"(stretch {stretch[a, b]:.2f})"
    )


if __name__ == "__main__":
    main()
