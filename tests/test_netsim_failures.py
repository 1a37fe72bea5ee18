"""Tests for runtime link failures and the failure-reroute experiment."""

import pytest

from repro.core import route_link_demands, solve_heuristic
from repro.netsim import (
    EdgeSpec,
    FlowMonitor,
    Network,
    Packet,
    Simulator,
    UdpFlow,
    run_failure_reroute_experiment,
)


class TestLinkUpDown:
    def test_down_link_drops_everything(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 1e6, 0.001)])
        link = net.link("A", "B")
        link.set_down()
        assert not link.is_up
        net.nodes["A"].inject(Packet(1, "A", "B", 500, ("A", "B"), 0.0))
        sim.run()
        assert net.nodes["B"].delivered == 0
        assert link.dropped_packets == 1

    def test_down_drains_queue(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 1e5, 0.0)])
        link = net.link("A", "B")
        for seq in range(5):
            net.nodes["A"].inject(Packet(1, "A", "B", 500, ("A", "B"), 0.0, seq=seq))
        assert link.queue_length > 0
        link.set_down()
        assert link.queue_length == 0
        assert link.dropped_packets == 4  # one was already in service

    def test_restore_resumes_delivery(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 1e6, 0.001)])
        mon = FlowMonitor(sim)
        link = net.link("A", "B")
        mon.watch_link(link)
        flow = UdpFlow(sim, net, mon, 1, ("A", "B"), rate_bps=2e5, seed=1)
        flow.start()
        sim.schedule_at(0.5, link.set_down)
        sim.schedule_at(1.0, link.set_up)
        sim.run(until=2.0)
        stats = mon.flows[1]
        assert stats.dropped > 0
        assert stats.received > 0
        # ~25% of the run was dark.
        assert stats.loss_rate == pytest.approx(0.25, abs=0.1)

    def test_drop_callback_fires_on_down_link(self):
        sim = Simulator()
        net = Network.from_edges(sim, [EdgeSpec("A", "B", 1e6, 0.0)])
        link = net.link("A", "B")
        dropped = []
        link.on_drop(dropped.append)
        link.set_down()
        net.nodes["A"].inject(Packet(1, "A", "B", 500, ("A", "B"), 0.0))
        assert len(dropped) == 1


class TestFailureReroute:
    @pytest.fixture(scope="class")
    def designed(self, small_us_scenario):
        sc = small_us_scenario
        topo = solve_heuristic(sc.design_input(), 800.0, ilp_refinement=False).topology
        demands = route_link_demands(topo, 50.0)
        busiest = max(demands, key=demands.get)
        return topo, busiest

    # The session-scoped fixture must be visible here.
    @pytest.fixture(scope="class")
    def small_us_scenario(self):
        from repro.scenarios import get_scenario

        return get_scenario("us", sites=20)

    def test_outage_then_recovery(self, designed):
        topo, busiest = designed
        r = run_failure_reroute_experiment(topo, 50.0, busiest, seed=3)
        assert r.loss_before < 0.01
        assert r.loss_during_outage > 0.05
        # Centralized reroute restores most of the traffic (§6.1).
        assert r.loss_after_reroute < r.loss_during_outage / 2
        assert r.flows_rerouted > 0

    def test_unbuilt_link_rejected(self, designed):
        topo, _ = designed
        with pytest.raises(ValueError):
            run_failure_reroute_experiment(topo, 50.0, (0, 1) if (0, 1) not in topo.mw_links else (0, 2))

    def test_bad_timing_rejected(self, designed):
        topo, busiest = designed
        with pytest.raises(ValueError):
            run_failure_reroute_experiment(
                topo, 50.0, busiest, fail_at_s=1.0, reroute_delay_s=1.0, duration_s=1.5
            )
