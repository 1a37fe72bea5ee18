"""Tests for budget evolution, graded degradation, and fast-path planning."""

import numpy as np
import pytest

from repro.apps import (
    DEFAULT_CLASSES,
    TrafficClass,
    breakeven_capacity_gbps,
    plan_fast_path,
)
from repro.core import (
    Topology,
    budget_evolution,
    fiber_only_topology,
    greedy_sequence,
    mw_shares,
    solve_heuristic,
)
from repro.weather import YearlyWeatherEvaluator, sample_interval_days

from weather_reference import graded_capacity_fraction


class TestMwShares:
    def test_fiber_only_all_fiber(self, toy_design_8):
        topo = fiber_only_topology(toy_design_8)
        traffic_on_mw, distance_share = mw_shares(topo)
        assert traffic_on_mw == 0.0
        assert distance_share == 0.0

    def test_shares_grow_with_links(self, toy_design_10):
        few = solve_heuristic(toy_design_10, 100.0, ilp_refinement=False).topology
        many = solve_heuristic(toy_design_10, 500.0, ilp_refinement=False).topology
        few_share = mw_shares(few)[1]
        many_share = mw_shares(many)[1]
        assert many_share >= few_share

    def test_shares_are_fractions(self, toy_design_10):
        topo = solve_heuristic(toy_design_10, 300.0, ilp_refinement=False).topology
        t, d = mw_shares(topo)
        assert 0.0 <= t <= 1.0
        assert 0.0 <= d <= 1.0


class TestBudgetEvolution:
    def test_evolution_table(self, toy_design_10):
        steps = greedy_sequence(toy_design_10, 500.0)
        points = budget_evolution(toy_design_10, steps, [0.0, 150.0, 500.0])
        assert len(points) == 3
        # Mostly-fiber at 0, mostly-MW at the top: the paper's animation.
        assert points[0].distance_share_mw == 0.0
        assert points[-1].distance_share_mw > points[0].distance_share_mw
        stretches = [p.mean_stretch for p in points]
        assert stretches == sorted(stretches, reverse=True)

    def test_budget_respected(self, toy_design_10):
        steps = greedy_sequence(toy_design_10, 500.0)
        for p in budget_evolution(toy_design_10, steps, [100.0, 300.0]):
            assert p.towers_used <= p.budget_towers


class TestGradedDegradation:
    def test_capacity_fraction_regions(self):
        assert graded_capacity_fraction(5.0) == 1.0
        assert graded_capacity_fraction(18.0) == 1.0
        assert graded_capacity_fraction(50.0) == 0.0
        mid = graded_capacity_fraction(21.0)  # one 3 dB step
        assert mid == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        values = [graded_capacity_fraction(a) for a in np.linspace(0, 45, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            graded_capacity_fraction(10.0, soft_margin_db=0.0)
        with pytest.raises(ValueError):
            graded_capacity_fraction(10.0, soft_margin_db=30.0, hard_margin_db=20.0)

    def test_graded_never_worse_than_binary(self, small_us_scenario):
        sc = small_us_scenario
        topo = solve_heuristic(sc.design_input(), 800.0, ilp_refinement=False).topology
        evaluator = YearlyWeatherEvaluator(topo, sc.catalog, sc.registry)
        days = sample_interval_days(5, 40)
        binary = evaluator.binary_year(days)
        graded, capacity_loss = evaluator.graded_year(days)
        # Graded links only fail above the (higher) hard margin, so
        # latency statistics can only improve.
        assert np.median(graded.max(axis=0)) <= np.median(binary.worst) + 1e-9
        graded_p99 = np.percentile(graded, 99, axis=0)
        assert np.median(graded_p99) <= np.median(binary.p99) + 1e-9
        assert 0.0 <= capacity_loss <= 1.0


class TestFastPathPlanning:
    def test_value_order_admission(self):
        plan = plan_fast_path(10.0)
        # The highest-value class (rtb-and-finance) is fully admitted
        # before anything else.
        first = plan.allocations[0]
        assert first.traffic_class.name == "rtb-and-finance"
        assert first.fraction_admitted == 1.0

    def test_capacity_respected(self):
        for cap in (5.0, 30.0, 100.0):
            plan = plan_fast_path(cap)
            assert plan.admitted_gbps() <= cap + 1e-9

    def test_insensitive_traffic_never_admitted(self):
        plan = plan_fast_path(10_000.0)
        names = {a.traffic_class.name for a in plan.allocations}
        assert "bulk-transfer" not in names
        assert "video-streaming" not in names

    def test_value_floor(self):
        plan = plan_fast_path(10_000.0, min_value_per_gb=3.0)
        names = {a.traffic_class.name for a in plan.allocations}
        assert "search" not in names  # $1.84 < $3.00 floor

    def test_more_capacity_more_value(self):
        small = plan_fast_path(10.0)
        large = plan_fast_path(80.0)
        assert large.value_per_year_usd > small.value_per_year_usd

    def test_breakeven_capacity(self):
        # At the paper's $0.81/GB, all latency-sensitive default classes
        # are worth carrying.
        sensitive_total = sum(
            c.volume_gbps for c in DEFAULT_CLASSES if c.latency_sensitive
        )
        assert breakeven_capacity_gbps(0.81) == pytest.approx(sensitive_total)
        # At an absurd $5/GB, only the premium classes pay.
        assert breakeven_capacity_gbps(5.0) < sensitive_total

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_fast_path(0.0)
        with pytest.raises(ValueError):
            TrafficClass("x", volume_gbps=-1.0, value_per_gb=1.0)
        with pytest.raises(ValueError):
            breakeven_capacity_gbps(-1.0)
