"""Golden netsim records: Fig 5 load curves and one failure reroute.

``tests/golden/netsim_load_curves.json`` pins, as canonical JSON, the
records of the fluid UDP and fluid TCP load curves, the packet load
curve under both capacity modes, and one failure-reroute experiment on
the small-US designed topology the other netsim tests build.  Any
change to the fluid solver, the kept-flow table, or the packet engine
that moves a single bit of these numbers fails here.

Regenerate (only for an intended numeric change) with::

    PYTHONPATH=src python tests/test_golden_netsim.py
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.exp.spec import canonical_json

GOLDEN = Path(__file__).parent / "golden" / "netsim_load_curves.json"
AGGREGATE_GBPS = 50.0
LOADS = (0.3, 0.6, 0.9, 1.2)


def designed_topology():
    from repro.core import solve_heuristic
    from repro.scenarios import get_scenario

    scenario = get_scenario("us", sites=20)
    return solve_heuristic(
        scenario.design_input(), 800.0, ilp_refinement=False
    ).topology


def golden_records(topology) -> dict:
    from repro.core import route_link_demands
    from repro.netsim import run_failure_reroute_experiment, run_load_curve

    demands = route_link_demands(topology, AGGREGATE_GBPS)
    busiest = max(demands, key=demands.get)
    reroute = run_failure_reroute_experiment(
        topology, AGGREGATE_GBPS, busiest, seed=3
    )
    return {
        "fluid_udp_design": run_load_curve(
            topology, AGGREGATE_GBPS, LOADS, engine="fluid"
        ),
        "fluid_tcp_users": run_load_curve(
            topology,
            AGGREGATE_GBPS,
            LOADS,
            engine="fluid",
            transport="tcp",
            demand_model="users",
            users_millions=2.0,
        ),
        "packet_k2": run_load_curve(
            topology, AGGREGATE_GBPS, LOADS, engine="packet",
            duration_s=0.2, capacity_mode="k2",
        ),
        "packet_tight": run_load_curve(
            topology, AGGREGATE_GBPS, LOADS, engine="packet",
            duration_s=0.2, capacity_mode="tight",
        ),
        "failure_reroute": {
            "failed_link": list(busiest),
            **dataclasses.asdict(reroute),
        },
    }


@pytest.fixture(scope="module")
def records():
    return golden_records(designed_topology())


def test_records_match_golden_file_exactly(records):
    assert canonical_json(records) + "\n" == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    text = canonical_json(golden_records(designed_topology())) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
