"""Integration tests: packet simulation over designed topologies."""

import numpy as np
import pytest

from repro.core import solve_heuristic
from repro.netsim import build_edge_specs, run_load_curve
from repro.traffic import mixed_matrix, perturbed_population_matrix


@pytest.fixture(scope="module")
def designed_20(small_us_scenario):
    sc = small_us_scenario
    topo = solve_heuristic(sc.design_input(), 800.0, ilp_refinement=False).topology
    return sc, topo


# Make the session fixture visible at module scope.
@pytest.fixture(scope="module")
def small_us_scenario():
    from repro.scenarios import get_scenario

    return get_scenario("us", sites=20)


def load_point(topo, load, **kwargs) -> dict:
    """The one row of a single-load curve at 50 Gbps design capacity."""
    (row,) = run_load_curve(topo, 50.0, [load], **kwargs)
    return row


class TestEdgeSpecs:
    def test_specs_cover_all_mw_links(self, designed_20):
        _, topo = designed_20
        specs = build_edge_specs(topo, 50.0)
        names = {(s.a, s.b) for s in specs}
        for a, b in topo.mw_links:
            assert (str(a), str(b)) in names

    def test_delays_match_distances(self, designed_20):
        _, topo = designed_20
        specs = build_edge_specs(topo, 50.0)
        by_name = {(s.a, s.b): s for s in specs}
        for a, b in topo.mw_links:
            spec = by_name[(str(a), str(b))]
            expected = topo.design.mw_km[a, b] / 299_792.458
            assert spec.delay_s == pytest.approx(expected)

    def test_rate_scale_validation(self, designed_20):
        # Both experiments build their links here, so one check covers
        # them; a bool is rejected, never read as 1.0.
        _, topo = designed_20
        for value in (0.0, -1e-4, float("nan"), float("inf"), True):
            message = f"rate_scale must be a finite number > 0, got {value!r}"
            with pytest.raises(ValueError) as info:
                build_edge_specs(topo, 50.0, rate_scale=value)
            assert str(info.value) == message
            with pytest.raises(ValueError) as info:
                run_load_curve(topo, 50.0, [0.5], rate_scale=value)
            assert str(info.value) == message


class TestUdpExperiments:
    def test_low_load_near_zero_loss(self, designed_20):
        _, topo = designed_20
        r = load_point(topo, 0.3, duration_s=0.5)
        assert r["loss_rate"] < 0.01
        assert r["mean_delay_ms"] > 0.0

    def test_matched_traffic_high_load_low_loss(self, designed_20):
        """§5: with matching traffic, 95% load runs with near-zero loss."""
        _, topo = designed_20
        r = load_point(topo, 0.95, duration_s=0.5)
        assert r["loss_rate"] < 0.02

    def test_delay_monotone_in_load(self, designed_20):
        _, topo = designed_20
        delays = [
            row["mean_delay_ms"]
            for row in run_load_curve(topo, 50.0, [0.2, 0.9], duration_s=0.5)
        ]
        assert delays[1] >= delays[0] - 0.5

    def test_perturbed_traffic_low_load_ok(self, designed_20):
        """Fig 5: perturbations cost little until high load."""
        sc, topo = designed_20
        pert = perturbed_population_matrix(list(sc.sites), gamma=0.5, seed=7)
        base = load_point(topo, 0.5, duration_s=0.5)
        shaken = load_point(topo, 0.5, offered_traffic=pert, duration_s=0.5)
        assert shaken["loss_rate"] < 0.02
        assert abs(shaken["mean_delay_ms"] - base["mean_delay_ms"]) < 5.0

    def test_mixed_traffic_runs(self, designed_20):
        sc, topo = designed_20
        h = topo.design.traffic
        rng_m = np.zeros_like(h)
        rng_m[0, 1] = rng_m[1, 0] = 1.0
        mix = mixed_matrix([(h, 4.0), (rng_m, 1.0)])
        r = load_point(topo, 0.4, offered_traffic=mix, duration_s=0.3)
        assert r["loss_rate"] < 0.05

    def test_bad_fraction_raises(self, designed_20):
        _, topo = designed_20
        with pytest.raises(ValueError):
            load_point(topo, 0.0)


def _bad_input(name: str, value, expected: str):
    return pytest.param(name, value, f"^{name} must be {expected}, got {value!r}$", id=f"{name}={value!r}")


class TestParameterValidation:
    """Library input fails loudly, naming the parameter; a bool or a
    numeric string is never converted."""

    CASES = [
        _bad_input("input_rate_fraction", True, r"a finite number in \(0, 1\.5\]"),
        _bad_input("input_rate_fraction", "0.5", r"a finite number in \(0, 1\.5\]"),
        _bad_input("engine", "x", "one of packet, fluid"),
        _bad_input("demand_model", "x", "one of design, users"),
        _bad_input("transport", "x", "one of udp, tcp"),
    ]

    @pytest.mark.parametrize("name, value, message", CASES)
    def test_run_load_curve(self, designed_20, name, value, message):
        _, topo = designed_20
        kwargs = {"loads": [value]} if name == "input_rate_fraction" else {"loads": [0.5], name: value}
        with pytest.raises(ValueError, match=message):
            run_load_curve(topo, 50.0, **kwargs)

    def test_every_load_checked_before_any_point_runs(self, designed_20, monkeypatch):
        from repro.netsim import experiments

        _, topo = designed_20
        points = []
        real = experiments._run_point

        def counting(*args):
            points.append(args[1])
            return real(*args)

        monkeypatch.setattr(experiments, "_run_point", counting)
        with pytest.raises(ValueError) as info:
            run_load_curve(topo, 50.0, [0.5, 0.9, 2.0], engine="fluid")
        assert str(info.value) == "input_rate_fraction must be a finite number in (0, 1.5], got 2.0"
        assert points == []
        # A valid curve still runs every point.
        run_load_curve(topo, 50.0, [0.5, 0.9], engine="fluid")
        assert points == [0.5, 0.9]


class TestDeterminism:
    def test_same_seed_identical_results(self, designed_20):
        """Two runs with one seed reproduce delivery/loss exactly."""
        _, topo = designed_20
        first = load_point(topo, 0.6, duration_s=0.5, seed=3)
        second = load_point(topo, 0.6, duration_s=0.5, seed=3)
        assert first == second

    def test_seed_changes_arrivals(self, designed_20):
        """Different seeds draw different Poisson arrival processes."""
        _, topo = designed_20
        a = load_point(topo, 0.6, duration_s=0.5, seed=3)
        b = load_point(topo, 0.6, duration_s=0.5, seed=4)
        # Same load, same topology — only the arrival randomness moves.
        assert (a["mean_delay_ms"], a["loss_rate"]) != (b["mean_delay_ms"], b["loss_rate"])
