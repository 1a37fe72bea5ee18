"""Golden packet records: every flow's counters on a congested load point.

``tests/golden/packet_flowstats.json`` pins, as canonical JSON, each
flow's ``sent``/``received``/``dropped`` counts and the sha256 of its
delay list for one packet-engine run: the small-US designed topology
of ``test_golden_netsim``, tight provisioning with 300-packet queues,
pushed to 130% of the design load for 0.5 simulated seconds.  Drop-tail
queues overflow there, so the file pins the engine's scheduling, queue
occupancy and drop decisions flow by flow, not only the load-curve
aggregates.

Regenerate (only for an intended numeric change) with::

    PYTHONPATH=src python tests/test_golden_packet.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.exp.spec import canonical_json
from repro.netsim import FlowMonitor, Network, Simulator, UdpFlow
from repro.netsim.experiments import build_edge_specs, kept_flow_table

from test_golden_netsim import designed_topology

GOLDEN = Path(__file__).parent / "golden" / "packet_flowstats.json"
AGGREGATE_GBPS = 50.0
LOAD = 1.3
DURATION_S = 0.5
QUEUE_PACKETS = 300
RATE_SCALE = 2e-3
SEED = 7


def udp_workload(topology, aggregate_gbps, load, queue_packets=200):
    """Tight-provisioned edge specs and the ``(flow_id, path, rate_bps)``
    rows offering ``load`` times the design aggregate."""
    specs = build_edge_specs(
        topology, aggregate_gbps, rate_scale=RATE_SCALE,
        queue_packets=queue_packets, capacity_mode="tight",
    )
    node_names = {s.a for s in specs} | {s.b for s in specs}
    pool, path_ids, shares, kept_mass = kept_flow_table(
        topology.routed_paths(), topology.design.traffic, node_names, 2e-4
    )
    offered_bps = aggregate_gbps * 1e9 * RATE_SCALE * load
    flows = [
        (fid, pool.path_names(p), offered_bps * h / kept_mass)
        for fid, (p, h) in enumerate(zip(path_ids.tolist(), shares.tolist()))
    ]
    return specs, flows


def run_packets(specs, flows, duration_s) -> FlowMonitor:
    """Simulate every flow as a seeded Poisson UDP source."""
    sim = Simulator()
    net = Network.from_edges(sim, specs)
    monitor = FlowMonitor(sim)
    for link in net.links.values():
        monitor.watch_link(link)
    for fid, path, rate in flows:
        UdpFlow(
            sim, net, monitor, fid, path, rate_bps=rate,
            seed=SEED * 100_003 + fid,
        ).start()
    sim.run(until=duration_s)
    return monitor


def golden_records() -> dict:
    specs, flows = udp_workload(
        designed_topology(), AGGREGATE_GBPS, LOAD, QUEUE_PACKETS
    )
    monitor = run_packets(specs, flows, DURATION_S)
    return {
        str(fid): {
            "sent": stats.sent,
            "received": stats.received,
            "dropped": stats.dropped,
            "delays_sha256": hashlib.sha256(
                canonical_json(stats.delays).encode()
            ).hexdigest(),
        }
        for fid, stats in sorted(monitor.flows.items())
    }


@pytest.fixture(scope="module")
def records():
    return golden_records()


def test_records_match_golden_file_exactly(records):
    assert canonical_json(records) + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_workload_overflows_queues(records):
    assert sum(flow["dropped"] for flow in records.values()) > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    text = canonical_json(golden_records()) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
