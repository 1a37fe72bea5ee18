"""Per-flow and per-link measurement (FlowMonitor equivalent, §5).

The paper uses ns-3's FlowMonitor for delay and loss and adds a custom
module for link utilization.  :class:`FlowMonitor` aggregates per-flow
sent/received counts and delay statistics; :class:`QueueSampler` records
queue occupancy over time for percentile reporting (Fig 6a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Simulator
from .links import Link
from .packets import Packet


@dataclass(slots=True)
class FlowStats:
    """Counters for one flow."""

    sent: int = 0
    received: int = 0
    dropped: int = 0
    bytes_received: int = 0
    delays: list[float] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0

    @property
    def mean_delay_s(self) -> float:
        return float(np.mean(self.delays)) if self.delays else 0.0

    def throughput_bps(self, elapsed_s: float) -> float:
        """Delivered goodput over ``elapsed_s`` seconds."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.bytes_received * 8 / elapsed_s


class FlowMonitor:
    """Network-wide delay/loss bookkeeping."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.flows: dict[int, FlowStats] = {}

    def stats_for(self, flow_id: int) -> FlowStats:
        """The (mutable) stats record for one flow, created on demand.

        Hot-path sources (UDP flows at millions of packets per run) may
        hold this record and bump its counters directly instead of
        calling :meth:`record_sent` per packet; the record is the same
        object either way.
        """
        stats = self.flows.get(flow_id)
        if stats is None:
            stats = self.flows[flow_id] = FlowStats()
        return stats

    def record_sent(self, packet: Packet) -> None:
        self.stats_for(packet.flow_id).sent += 1

    def record_delivered(self, packet: Packet) -> None:
        stats = self.stats_for(packet.flow_id)
        stats.received += 1
        stats.bytes_received += packet.size_bytes
        stats.delays.append(self.sim.now - packet.created_at)

    def record_dropped(self, packet: Packet) -> None:
        self.stats_for(packet.flow_id).dropped += 1

    def watch_link(self, link: Link) -> None:
        """Count this link's drops against the owning flows."""
        link.on_drop(self.record_dropped)

    # -- aggregates ------------------------------------------------------
    @property
    def total_sent(self) -> int:
        return sum(s.sent for s in self.flows.values())

    @property
    def total_dropped(self) -> int:
        return sum(s.dropped for s in self.flows.values())

    def overall_loss_rate(self) -> float:
        sent = self.total_sent
        return self.total_dropped / sent if sent else 0.0

    def mean_delay_s(self) -> float:
        all_delays = [d for s in self.flows.values() for d in s.delays]
        return float(np.mean(all_delays)) if all_delays else 0.0

    def mean_flow_throughput_bps(self, elapsed_s: float) -> float:
        """Mean per-flow delivered goodput (the fluid-parity metric)."""
        if not self.flows:
            return 0.0
        return float(
            np.mean([s.throughput_bps(elapsed_s) for s in self.flows.values()])
        )


class QueueSampler:
    """Periodic queue-occupancy sampling for a link."""

    def __init__(self, sim: Simulator, link: Link, interval_s: float = 0.01) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.link = link
        self.interval_s = interval_s
        self.samples: list[int] = []
        self._armed = False

    def start(self) -> None:
        if not self._armed:
            self._armed = True
            self.sim.post(0.0, self._tick)

    def _tick(self) -> None:
        self.samples.append(self.link.queue_length)
        self.sim.post(self.interval_s, self._tick)

    def percentile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        return float(np.percentile(self.samples, q))

    def median(self) -> float:
        return self.percentile(50.0)
