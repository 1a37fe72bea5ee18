"""Tests for the overhauled netsim kernel: event cancellation,
commit-on-arrival drop-tail semantics, and the fluid-approximation
engine."""

import pytest

from repro.netsim import (
    EdgeSpec,
    FlowMonitor,
    FluidNetwork,
    Network,
    Packet,
    Simulator,
    TcpFlow,
    UdpFlow,
    run_udp_experiment,
    solve_fluid,
)

from fluid_reference import FluidFlow, flows_to_table, max_min_rates


class TestEventCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        event.cancel()
        sim.run()
        assert fired == ["b"]

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        sim.run()
        event.cancel()
        event.cancel()
        assert fired == [1]
        assert sim.pending_events == 0

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.post(3.0, lambda: None)
        assert sim.pending_events == 3
        drop.cancel()
        assert sim.pending_events == 2
        assert not keep.cancelled
        sim.run()
        assert sim.pending_events == 0

    def test_rearm_pattern_fires_once_at_latest_deadline(self):
        # The TCP RTO pattern: cancel + re-schedule must leave exactly
        # one live timer, firing at the newest deadline.
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, "stale")
        timer.cancel()
        sim.schedule(2.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]
        assert sim.now == 2.0

    def test_post_args_passed_through(self):
        sim = Simulator()
        got = []
        sim.post(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_tcp_completion_leaves_no_live_events(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 10e6, 0.01)])
        mon = FlowMonitor(sim)
        flow = TcpFlow(sim, net, mon, 1, ("A", "B"), total_bytes=50_000)
        flow.start()
        sim.run(until=30.0)
        assert flow.stats.fct_s is not None
        # The RTO timer was cancelled at completion, not left to fire
        # as a ghost event.
        assert sim.pending_events == 0


class TestCommitOnArrivalQueue:
    def test_mid_service_arrival_sees_exact_occupancy(self):
        # rate 1e6, 1250 B packets -> 10 ms serialization each.
        sim = Simulator()
        net = Network.from_edges(
            sim, [EdgeSpec("A", "B", 1e6, 0.0, queue_capacity=2)]
        )
        link = net.link("A", "B")
        deliveries = []
        net.nodes["B"].on_deliver(lambda p: deliveries.append((p.seq, sim.now)))

        def inject(seq):
            net.nodes["A"].inject(
                Packet(1, "A", "B", 1250, ("A", "B"), sim.now, seq=seq)
            )

        for seq in range(3):
            inject(seq)  # one in service + two committed waiting
        # At t=25ms packet 2 is in service, nothing waits: two more fit,
        # a third must drop.
        sim.schedule_at(0.025, inject, 3)
        sim.schedule_at(0.025, inject, 4)
        sim.schedule_at(0.025, inject, 5)
        sim.run()
        assert link.dropped_packets == 1
        assert [seq for seq, _ in deliveries] == [0, 1, 2, 3, 4]
        # Serialization stays back-to-back: 10 ms per packet.
        assert [t for _, t in deliveries] == pytest.approx(
            [0.01, 0.02, 0.03, 0.04, 0.05]
        )

    def test_set_down_drops_committed_waiting_and_rolls_back_stats(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 1e5, 0.0)])
        link = net.link("A", "B")
        dropped = []
        link.on_drop(dropped.append)
        for seq in range(5):
            net.nodes["A"].inject(
                Packet(1, "A", "B", 500, ("A", "B"), 0.0, seq=seq)
            )
        assert link.tx_packets == 5  # all committed on arrival
        link.set_down()
        # The in-service packet survives; the four waiting are dropped
        # and their transmission accounting is rolled back.
        assert link.dropped_packets == 4
        assert link.tx_packets == 1
        assert link.tx_bits == 500 * 8
        assert [p.seq for p in dropped] == [1, 2, 3, 4]
        sim.run()
        assert net.nodes["B"].delivered == 1

    def test_queue_length_tracks_service_progress(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 1e6, 0.0)])
        link = net.link("A", "B")
        for seq in range(4):
            net.nodes["A"].inject(
                Packet(1, "A", "B", 1250, ("A", "B"), 0.0, seq=seq)
            )
        observed = []
        for t in (0.005, 0.015, 0.025, 0.035):
            sim.schedule_at(t, lambda: observed.append(link.queue_length))
        sim.run()
        assert observed == [3, 2, 1, 0]


class TestFluidEngine:
    def test_two_flows_share_bottleneck_equally(self):
        capacities = {("A", "B"): 10.0, ("B", "C"): 10.0}
        flows = [
            FluidFlow(1, ("A", "B", "C"), 8.0),
            FluidFlow(2, ("A", "B", "C"), 8.0),
        ]
        rates = max_min_rates(capacities, flows)
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)

    def test_demand_limited_flow_frees_share(self):
        capacities = {("A", "B"): 10.0}
        flows = [
            FluidFlow(1, ("A", "B"), 2.0),
            FluidFlow(2, ("A", "B"), 100.0),
        ]
        rates = max_min_rates(capacities, flows)
        assert rates[1] == pytest.approx(2.0)
        assert rates[2] == pytest.approx(8.0)

    def test_underloaded_flows_get_offered_rate(self):
        specs = [EdgeSpec("A", "B", 1e6, 0.001), EdgeSpec("B", "C", 1e6, 0.002)]
        result = solve_fluid(
            FluidNetwork.from_specs(specs),
            flows_to_table([FluidFlow(1, ("A", "B", "C"), 3e5)]),
        )
        assert result.rates_by_flow()[1] == pytest.approx(3e5)
        assert result.loss_rate == 0.0
        assert result.max_link_utilization == pytest.approx(0.3)

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError):
            max_min_rates({("A", "B"): 1.0}, [FluidFlow(1, ("A", "X"), 1.0)])

    def test_packet_vs_fluid_parity_three_nodes(self):
        """Fluid mean throughput within 10% of the packet engine on a
        congested 3-node chain."""
        specs = [
            EdgeSpec("A", "B", 2e6, 0.002, queue_capacity=50),
            EdgeSpec("B", "C", 1e6, 0.003, queue_capacity=50),
        ]
        offered = [("A", "B", "C", 8e5), ("A", "B", 6e5), ("B", "C", 7e5)]
        sim = Simulator()
        net = Network.from_edges(sim, specs)
        mon = FlowMonitor(sim)
        for link in net.links.values():
            mon.watch_link(link)
        fluid_flows = []
        for fid, spec in enumerate(offered):
            *path, rate = spec
            UdpFlow(sim, net, mon, fid, tuple(path), rate_bps=rate,
                    seed=fid + 1).start()
            fluid_flows.append(FluidFlow(fid, tuple(path), rate))
        duration = 5.0
        sim.run(until=duration)
        packet_mean = mon.mean_flow_throughput_bps(duration)
        fluid_mean = solve_fluid(
            FluidNetwork.from_specs(specs), flows_to_table(fluid_flows)
        ).mean_rate_bps
        assert fluid_mean == pytest.approx(packet_mean, rel=0.10)


class TestEngineSelector:
    @pytest.fixture(scope="class")
    def topology(self):
        from repro.core import solve_heuristic
        from repro.scenarios import us_scenario

        scenario = us_scenario(n_sites=15)
        return solve_heuristic(
            scenario.design_input(), 600.0, ilp_refinement=False
        ).topology

    def test_unknown_engine_rejected(self, topology):
        with pytest.raises(ValueError):
            run_udp_experiment(topology, 50.0, 0.5, engine="quantum")

    def test_fluid_engine_matches_packet_shape(self, topology):
        packet = run_udp_experiment(
            topology, 50.0, 0.5, duration_s=0.3, engine="packet"
        )
        fluid = run_udp_experiment(
            topology, 50.0, 0.5, duration_s=0.3, engine="fluid"
        )
        assert fluid.input_rate_fraction == packet.input_rate_fraction
        assert fluid.loss_rate == pytest.approx(packet.loss_rate, abs=0.02)
        assert fluid.max_link_utilization == pytest.approx(
            packet.max_link_utilization, abs=0.15
        )
        assert fluid.mean_delay_ms == pytest.approx(
            packet.mean_delay_ms, rel=0.5
        )

    def test_fluid_mean_throughput_within_10pct_of_packet(self, topology):
        """Past the loss onset (tight links at 130% load) the fluid
        engine's mean per-flow throughput stays within 10% of the
        packet engine's on the same flows."""
        from test_golden_packet import run_packets, udp_workload

        specs, flows = udp_workload(topology, 50.0, 1.3)
        packet_mean = run_packets(specs, flows, 1.0).mean_flow_throughput_bps(1.0)
        fluid = solve_fluid(
            FluidNetwork.from_specs(specs),
            flows_to_table([FluidFlow(fid, path, rate) for fid, path, rate in flows]),
        )
        assert fluid.mean_rate_bps == pytest.approx(packet_mean, rel=0.10)

    def test_fluid_loss_appears_beyond_capacity(self, topology):
        overloaded = run_udp_experiment(
            topology, 50.0, 1.5, engine="fluid", capacity_mode="tight"
        )
        assert overloaded.loss_rate > 0.0
        assert overloaded.max_link_utilization == pytest.approx(1.0)
