"""E8 — Fig 6: TCP pacing fixes the speed mismatch at cISP ingress.

Ten sources feed a sink through one intermediate node M; the M-D link
is the cISP bottleneck.  When source links jump from bottleneck-rate to
10G-class, unpaced TCP bursts pile up at M; pacing restores the
bottleneck-rate queue profile without hurting flow completion times.

Two regimes are reported:

* *isolated flows* — one 100 KB transfer at a time.  This isolates the
  mechanism: at bottleneck-rate edges the ACK clock self-paces arrivals,
  at 10G-class edges every window arrives as an instantaneous burst.
* *Poisson at 70% load* — the paper's aggregate setting, where
  concurrent slow-starts add overlap-driven queueing on top.

Rates are scaled down uniformly (20 Mbps bottleneck for the paper's
100 Mbps; the 100x mismatch ratio is preserved).
"""

import numpy as np

from repro.netsim import (
    EdgeSpec,
    FlowMonitor,
    Network,
    QueueSampler,
    Simulator,
    TcpFlow,
)

from _support import report

BOTTLENECK_BPS = 20e6
FAST_EDGE_BPS = 2e9
FLOW_BYTES = 100_000
LOAD = 0.7


def _run(edge_rate_bps: float, pacing: bool, isolated: bool, seed: int = 11):
    sim = Simulator()
    edges = [
        EdgeSpec(f"S{i}", "M", edge_rate_bps, 0.002, queue_capacity=10**9)
        for i in range(10)
    ] + [EdgeSpec("M", "D", BOTTLENECK_BPS, 0.018, queue_capacity=10**9)]
    net = Network.from_edges(sim, edges)
    monitor = FlowMonitor(sim)
    sampler = QueueSampler(sim, net.link("M", "D"), interval_s=0.0005)
    sampler.start()
    rng = np.random.default_rng(seed)
    flows = []
    sim_s = 8.0
    if isolated:
        # One flow at a time: generous fixed spacing.
        starts = np.arange(0.0, sim_s, 0.25)
    else:
        gaps = rng.exponential(
            FLOW_BYTES * 8 / (LOAD * BOTTLENECK_BPS), size=2000
        )
        starts = np.cumsum(gaps)
        starts = starts[starts < sim_s]
    for fid, t in enumerate(starts):
        flow = TcpFlow(
            sim,
            net,
            monitor,
            fid,
            (f"S{fid % 10}", "M", "D"),
            FLOW_BYTES,
            pacing=pacing,
            rwnd_packets=90,
        )
        flow.start(at=float(t))
        flows.append(flow)
    sim.run(until=sim_s + 4.0)
    fcts = np.array(
        [f.stats.fct_s for f in flows if f.stats.fct_s is not None]
    )
    return sampler, fcts


def bench_fig6_pacing():
    configs = [
        ("bottleneck-rate edge, no pacing", BOTTLENECK_BPS, False),
        ("10G-class edge,       no pacing", FAST_EDGE_BPS, False),
        ("10G-class edge,       pacing", FAST_EDGE_BPS, True),
    ]
    rows = []
    key_q = {}
    for regime, isolated in (("isolated flows", True), ("poisson 70% load", False)):
        rows.append(f"--- {regime} ---")
        rows.append(
            "config                            q_median  q_95th  q_max  fct_median_ms"
        )
        for label, rate, pacing in configs:
            sampler, fcts = _run(rate, pacing, isolated)
            rows.append(
                f"{label:32s}  {sampler.median():8.1f}  {sampler.percentile(95):6.1f}"
                f"  {max(sampler.samples):5d}  {np.median(fcts) * 1000:13.1f}"
            )
            if isolated:
                key_q[(label, "q95")] = float(max(sampler.samples))
    burst = key_q[("10G-class edge,       no pacing", "q95")]
    paced = key_q[("10G-class edge,       pacing", "q95")]
    slow = key_q[("bottleneck-rate edge, no pacing", "q95")]
    rows.append(
        f"isolated-flow peak queue: bottleneck-rate {slow:.0f}, 10G burst {burst:.0f}, "
        f"10G paced {paced:.0f} packets"
    )
    rows.append(
        "shape: bursts queue at the speed mismatch; pacing restores the "
        "bottleneck-rate profile (paper Fig 6a) with comparable FCTs (Fig 6b)"
    )
    report("fig6_pacing", rows)
