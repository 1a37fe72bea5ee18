"""Integration tests: scenario assembly and end-to-end design."""

import numpy as np
import pytest

from repro.core import design_network, fiber_only_topology
from repro.scenarios import (
    dc_dc_traffic,
    dc_indices,
    interdc_scenario,
    us_scenario,
)


class TestSmallUsScenario:
    def test_substrate_sizes(self, small_us_scenario):
        sc = small_us_scenario
        assert sc.n_sites == 20
        assert len(sc.registry) > 200
        assert sc.hop_graph.n_edges > 500

    def test_fiber_slower_than_mw(self, small_us_scenario):
        sc = small_us_scenario
        finite = np.isfinite(sc.catalog.mw_km) & (sc.geodesic_km > 0)
        # MW links are close to geodesic; fiber is ~1.9x.
        assert np.median(sc.catalog.mw_km[finite] / sc.geodesic_km[finite]) < 1.3
        assert np.nanmean(sc.fiber_km[finite] / sc.geodesic_km[finite]) > 1.6

    def test_design_input_roundtrip(self, small_us_scenario):
        di = small_us_scenario.design_input()
        assert di.n_sites == 20
        assert np.triu(di.traffic, 1).sum() == pytest.approx(1.0)

    def test_end_to_end_design(self, small_us_scenario):
        sc = small_us_scenario
        di = sc.design_input()
        res = design_network(
            di,
            budget_towers=600.0,
            aggregate_gbps=50.0,
            catalog=sc.catalog,
            registry=sc.registry,
            ilp_refinement=False,
        )
        fiber = fiber_only_topology(di).mean_stretch()
        assert res.mean_stretch < fiber
        assert res.mean_stretch >= 1.0
        assert res.towers_used <= 600.0
        assert res.cost_per_gb_usd is not None
        assert 0.01 < res.cost_per_gb_usd < 100.0

    def test_missing_catalog_raises(self, small_us_scenario):
        di = small_us_scenario.design_input()
        with pytest.raises(ValueError):
            design_network(di, 100.0, aggregate_gbps=10.0)

    def test_stretch_percentiles(self, small_us_scenario):
        sc = small_us_scenario
        res = design_network(
            sc.design_input(), budget_towers=600.0, ilp_refinement=False
        )
        pct = res.stretch_percentiles((50, 99))
        assert 1.0 <= pct[50] <= pct[99]


class TestInterdcScenario:
    def test_six_sites(self):
        sc = interdc_scenario()
        assert sc.n_sites == 6
        assert dc_indices(sc) == list(range(6))

    def test_dc_traffic_uniform(self):
        sc = interdc_scenario()
        h = dc_dc_traffic(sc)
        vals = h[np.triu_indices(6, 1)]
        assert np.allclose(vals, vals[0])

    def test_design_runs(self):
        sc = interdc_scenario()
        res = design_network(
            sc.design_input(dc_dc_traffic(sc)),
            budget_towers=400.0,
            aggregate_gbps=30.0,
            catalog=sc.catalog,
            registry=sc.registry,
            ilp_refinement=False,
        )
        assert res.mean_stretch < res.fiber_mean_stretch

    def test_default_traffic_is_equal_demand(self):
        """Zero-population site lists fall back to uniform demand, so
        ``design_input()`` works for inter-DC scenarios (the CLI and the
        orchestration layer's design stage call it with no matrix)."""
        sc = interdc_scenario()
        h = sc.design_input().traffic
        assert np.array_equal(h, dc_dc_traffic(sc))


class TestScenarioCaching:
    def test_cache_returns_same_object(self):
        a = us_scenario(n_sites=20)
        b = us_scenario(n_sites=20)
        assert a is b


class TestSiteCountBound:
    """A site count beyond the US city list fails loudly, by name: it
    was silently truncated, so two counts built one substrate twice."""

    def test_spec_rejects_more_sites_than_cities(self):
        from repro.exp import ScenarioSpec

        for name in ("us", "city_dc"):
            ScenarioSpec(name=name, sites=120)
            with pytest.raises(
                ValueError,
                match=r"^scenario\.sites must be an integer in \[2, 120\], got 121$",
            ):
                ScenarioSpec(name=name, sites=121)

    def test_dispatcher_rejects_more_sites_than_cities(self):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match=r"^scenario\.sites must be"):
            get_scenario("us", sites=121)

    def test_builders_name_their_own_parameter(self):
        from repro.scenarios import city_dc_scenario

        with pytest.raises(
            ValueError, match=r"^n_sites must be in \[2, 120\], got 121$"
        ):
            us_scenario(n_sites=121)
        with pytest.raises(
            ValueError, match=r"^n_cities must be in \[2, 120\], got 150$"
        ):
            city_dc_scenario(n_cities=150)
