"""Tests for capacity augmentation (Step 3) and the cost model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CostModel,
    Topology,
    augment_capacity,
    route_link_demands,
    series_needed,
    solve_heuristic,
)


class TestSeriesNeeded:
    def test_paper_breakpoints(self):
        # <1 Gbps -> 1 series; 1-4 -> 2; 4-9 -> 3 (k^2 rule, §3.3).
        assert series_needed(0.2) == 1
        assert series_needed(1.0) == 1
        assert series_needed(1.5) == 2
        assert series_needed(4.0) == 2
        assert series_needed(4.1) == 3
        assert series_needed(9.0) == 3
        assert series_needed(63.9) == 8

    def test_zero_demand_one_series(self):
        assert series_needed(0.0) == 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            series_needed(-1.0)

    @given(st.floats(0.0, 1000.0))
    @settings(max_examples=60)
    def test_capacity_covers_demand(self, demand):
        k = series_needed(demand)
        assert k * k >= demand or demand <= 1.0

    @given(st.floats(0.1, 1000.0))
    @settings(max_examples=60)
    def test_minimality(self, demand):
        k = series_needed(demand)
        if k > 1:
            assert (k - 1) ** 2 < demand


class TestCostModel:
    def test_paper_defaults(self):
        m = CostModel()
        assert m.link_cost_1gbps_usd == 150_000.0
        assert m.new_tower_cost_usd == 100_000.0
        assert 25_000.0 <= m.tower_rent_usd_per_year <= 50_000.0
        assert m.amortization_years == 5.0

    def test_capex(self):
        m = CostModel()
        assert m.capex_usd(10, 2) == 10 * 150_000 + 2 * 100_000

    def test_opex(self):
        m = CostModel()
        assert m.opex_usd(100) == 100 * 37_500 * 5

    def test_gb_carried_100gbps(self):
        m = CostModel()
        gb = m.gb_carried(100.0)
        # 100 Gbps for 5 years is ~2e9 GB.
        assert gb == pytest.approx(100 / 8 * 5 * 365.25 * 86400, rel=1e-9)

    def test_cost_per_gb_scales_inversely_with_throughput(self):
        m = CostModel()
        low = m.cost_per_gb(1000, 10, 500, aggregate_gbps=10.0)
        high = m.cost_per_gb(1000, 10, 500, aggregate_gbps=100.0)
        assert low == pytest.approx(10.0 * high)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(amortization_years=0.0)
        with pytest.raises(ValueError):
            CostModel(new_tower_cost_usd=-5.0)
        m = CostModel()
        with pytest.raises(ValueError):
            m.gb_carried(0.0)
        with pytest.raises(ValueError):
            m.gb_carried(10.0, utilization=1.5)


class TestRouteLinkDemands:
    def test_demand_conservation_single_link(self, toy_design_8):
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        demands = route_link_demands(topo, 100.0)
        assert set(demands) == {(0, 1)}
        # The direct pair's demand is at least routed over the link
        # whenever the MW link is shorter than its fiber.
        if toy_design_8.mw_km[0, 1] < toy_design_8.fiber_km[0, 1]:
            assert demands[(0, 1)] >= 100.0 * toy_design_8.traffic[0, 1] - 1e-9

    def test_total_demand_bounded_by_aggregate_times_links(self, toy_design_10):
        res = solve_heuristic(toy_design_10, 300.0, ilp_refinement=False)
        demands = route_link_demands(res.topology, 50.0)
        assert all(d >= 0 for d in demands.values())

    def test_bad_aggregate_raises(self, toy_design_8):
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            route_link_demands(topo, 0.0)


class TestAugmentation:
    @pytest.fixture(scope="class")
    def designed(self, small_us_scenario):
        sc = small_us_scenario
        design = sc.design_input()
        res = solve_heuristic(design, 800.0, ilp_refinement=False)
        return sc, res.topology

    def test_census_sums_to_hops(self, designed):
        sc, topo = designed
        aug = augment_capacity(topo, sc.catalog, sc.registry, 100.0)
        assert sum(aug.hop_census.values()) == sum(
            p.n_hops for p in aug.provisions
        )

    def test_higher_aggregate_needs_more_series(self, designed):
        sc, topo = designed
        low = augment_capacity(topo, sc.catalog, sc.registry, 10.0)
        high = augment_capacity(topo, sc.catalog, sc.registry, 500.0)
        assert high.n_hop_series >= low.n_hop_series
        assert high.n_new_towers >= low.n_new_towers

    def test_cost_per_gb_decreases_with_throughput(self, designed):
        """Fig 4(c): amortized $/GB falls as aggregate throughput rises."""
        sc, topo = designed
        costs = [
            augment_capacity(topo, sc.catalog, sc.registry, g).cost_per_gb()
            for g in (10.0, 100.0, 500.0)
        ]
        assert costs[0] > costs[1] > costs[2]

    def test_series_match_demands(self, designed):
        sc, topo = designed
        aug = augment_capacity(topo, sc.catalog, sc.registry, 200.0)
        for p in aug.provisions:
            assert p.n_series == series_needed(p.demand_gbps)

    def test_rented_towers_positive(self, designed):
        sc, topo = designed
        aug = augment_capacity(topo, sc.catalog, sc.registry, 100.0)
        assert aug.n_rented_towers > 0

    def test_cost_model_is_not_an_argument(self, designed):
        # It was accepted and silently discarded; the result is priced
        # by AugmentationResult.cost_per_gb.
        sc, topo = designed
        with pytest.raises(TypeError, match="cost_model"):
            augment_capacity(
                topo, sc.catalog, sc.registry, 100.0,
                cost_model=CostModel(new_tower_cost_usd=1e7),
            )
