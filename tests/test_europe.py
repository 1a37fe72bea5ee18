"""Integration tests for the European scenario (§6.2)."""

import numpy as np
import pytest

from repro.core import solve_heuristic
from repro.scenarios import EU_FIBER_STRETCH, get_scenario


@pytest.fixture(scope="module")
def europe():
    # The substrate stage's call: experiment runs on Europe in the same
    # session then reuse this build instead of making their own.
    return get_scenario("europe")


@pytest.fixture(scope="module")
def europe_design(europe):
    return solve_heuristic(europe.design_input(), 1500.0, ilp_refinement=False)


class TestEuropeScenario:
    def test_sites_above_population_floor(self, europe):
        assert all(s.population >= 300_000 for s in europe.sites)
        assert europe.n_sites >= 50

    def test_flat_fiber_assumption(self, europe):
        """The paper reuses the US-measured ~1.9x latency inflation."""
        geo = europe.geodesic_km
        mask = geo > 0
        ratio = europe.fiber_km[mask] / geo[mask]
        assert np.allclose(ratio, EU_FIBER_STRETCH)
        assert europe.fiber is None  # no conduit graph in this mode

    def test_substrate_built(self, europe):
        assert len(europe.registry) > 1000
        assert europe.hop_graph.n_edges > 5000

    def test_mw_links_exist_across_continent(self, europe):
        finite = np.isfinite(europe.catalog.mw_km)
        np.fill_diagonal(finite, False)
        # The overwhelming majority of pairs get a feasible MW chain.
        assert finite.mean() > 0.5

    def test_design_beats_fiber_substantially(self, europe_design):
        # Design must recover most of the fiber-vs-c gap, as in the US.
        assert europe_design.objective < 1.35
        assert europe_design.objective >= 1.0

    def test_weather_stage_rains_european_storms(self, europe, europe_design):
        """Regression: Europe's weather year used the US storm climate.

        US storm cells never come near Europe, so every sampled day was
        dry and no link ever failed; under the European climate some of
        the 120 sampled days at 30 dB fail a link.
        """
        from repro.exp import ExperimentSpec, ScenarioSpec, WeatherSpec
        from repro.exp.stages import STAGES

        spec = ExperimentSpec(
            scenario=ScenarioSpec(name="europe"), weather=WeatherSpec()
        )
        rows = STAGES["weather"].run(
            spec, {"substrate": europe, "design": europe_design}
        )
        solver = rows[-1]
        assert solver["series"] == "solver"
        assert solver["full_solves"] + solver["delta_solves"] > 0

    def test_terrain_is_european(self, europe):
        from repro.geo import GeoPoint

        alps = europe.terrain.point_elevation_m(GeoPoint(46.5, 9.5))
        po_valley = europe.terrain.point_elevation_m(GeoPoint(45.1, 10.5))
        assert alps > po_valley
