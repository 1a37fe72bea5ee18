"""Tests for attenuation physics, storm fields, failures, loss traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.weather import (
    PrecipitationYear,
    US_CLIMATE,
    effective_path_km,
    graded_yearly_comparison,
    hop_fails,
    path_attenuation_db,
    rain_coefficients,
    specific_attenuation_db_per_km,
    synthesize_hft_trace,
)


@pytest.fixture(scope="module")
def topology(small_us_scenario):
    """An 800-tower design on the 20-city US scenario."""
    from repro.core import solve_heuristic

    sc = small_us_scenario
    return solve_heuristic(sc.design_input(), 800.0, ilp_refinement=False).topology


class TestCoefficients:
    def test_known_10ghz_values(self):
        k, alpha = rain_coefficients(10.0)
        assert k == pytest.approx(0.01217, rel=1e-3)
        assert alpha == pytest.approx(1.2571, rel=1e-3)

    def test_interpolation_between_table_rows(self):
        k10, _ = rain_coefficients(10.0)
        k11, _ = rain_coefficients(11.0)
        k12, _ = rain_coefficients(12.0)
        assert k10 < k11 < k12

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            rain_coefficients(1.0)
        with pytest.raises(ValueError):
            rain_coefficients(99.0)


class TestSpecificAttenuation:
    def test_zero_rain_zero_attenuation(self):
        assert specific_attenuation_db_per_km(0.0) == 0.0

    def test_realistic_magnitude(self):
        # Heavy rain (50 mm/h) at 11 GHz is a ~2 dB/km event.
        gamma = specific_attenuation_db_per_km(50.0, 11.0)
        assert 1.0 < gamma < 4.0

    @given(st.floats(0.1, 150.0), st.floats(0.1, 150.0))
    @settings(max_examples=50)
    def test_monotone_in_rain(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert specific_attenuation_db_per_km(lo) <= specific_attenuation_db_per_km(hi)

    def test_negative_rain_raises(self):
        with pytest.raises(ValueError):
            specific_attenuation_db_per_km(-1.0)

    def test_vectorized(self):
        rates = np.array([0.0, 10.0, 50.0])
        gammas = specific_attenuation_db_per_km(rates)
        assert gammas.shape == (3,)
        assert gammas[0] == 0.0


class TestEffectivePath:
    def test_shorter_than_physical(self):
        assert effective_path_km(50.0, 30.0) < 50.0

    def test_heavier_rain_shorter_effective_path(self):
        assert effective_path_km(50.0, 80.0) < effective_path_km(50.0, 10.0)

    def test_zero_hop(self):
        assert effective_path_km(0.0, 50.0) == 0.0


class TestHopFailure:
    def test_dry_hop_never_fails(self):
        assert not hop_fails(100.0, 0.0)

    def test_extreme_rain_fails_long_hop(self):
        assert hop_fails(80.0, 100.0, fade_margin_db=30.0)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            hop_fails(50.0, 10.0, fade_margin_db=0.0)

    def test_longer_hop_fails_first(self):
        rain = 45.0
        short = path_attenuation_db(10.0, rain)
        long = path_attenuation_db(90.0, rain)
        assert long > short


class TestPrecipitation:
    def test_deterministic_per_day(self):
        year = PrecipitationYear(seed=5)
        a = year.storms_for_day(180)
        b = year.storms_for_day(180)
        assert a == b

    def test_different_days_differ(self):
        year = PrecipitationYear(seed=5)
        assert year.storms_for_day(10) != year.storms_for_day(200)

    def test_rates_non_negative_and_bounded(self):
        year = PrecipitationYear()
        lats = np.linspace(25, 49, 40)
        lons = np.linspace(-120, -70, 40)
        for day in (15, 100, 200, 300):
            rate = year.rain_rate_mm_h(day, lats, lons)
            assert np.all(rate >= 0.0)
            assert np.all(rate <= 150.0)

    def test_summer_has_more_storms_than_winter(self):
        year = PrecipitationYear(seed=3)
        summer = np.mean([len(year.storms_for_day(d)) for d in range(190, 220)])
        winter = np.mean([len(year.storms_for_day(d)) for d in range(5, 35)])
        assert summer > winter

    def test_wet_bias_region_rainier(self):
        year = PrecipitationYear(seed=9)
        southeast, west = [], []
        for day in range(1, 366, 3):
            southeast.append(
                float(year.rain_rate_mm_h(day, [32.0], [-88.0])[0])
            )
            west.append(float(year.rain_rate_mm_h(day, [40.0], [-118.0])[0]))
        assert np.mean(southeast) > np.mean(west)

    def test_invalid_day_raises(self):
        with pytest.raises(ValueError):
            PrecipitationYear().storms_for_day(0)

    def test_storm_rate_peaks_at_cell_center(self):
        year = PrecipitationYear(seed=11)
        cells = year.storms_for_day(200)
        assert cells, "expected storms on a summer day"
        cell = max(cells, key=lambda c: c.peak_mm_h)
        at_center = year.rain_rate_mm_h(200, [cell.lat], [cell.lon])[0]
        far = year.rain_rate_mm_h(
            200, [cell.lat + 8.0 if cell.lat < 42 else cell.lat - 8.0], [cell.lon]
        )[0]
        assert at_center >= far


class TestYearlyAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, small_us_scenario, topology):
        from repro.weather import yearly_stretch_analysis

        sc = small_us_scenario
        return yearly_stretch_analysis(
            topology, sc.catalog, sc.registry, n_intervals=80, seed=3
        )

    def test_ordering_best_p99_worst(self, analysis):
        assert np.all(analysis.best <= analysis.p99 + 1e-9)
        assert np.all(analysis.p99 <= analysis.worst + 1e-9)

    def test_worst_never_exceeds_fiber(self, analysis):
        """Failures reroute over fiber at worst, never worse than it."""
        assert np.all(analysis.worst <= analysis.fiber + 1e-9)

    def test_p99_close_to_best(self, analysis):
        """Fig 7's headline: 99th-percentile ~ fair-weather stretch."""
        assert np.median(analysis.p99) < np.median(analysis.best) * 1.25

    def test_fiber_clearly_worse(self, analysis):
        assert np.median(analysis.fiber) > 1.5 * np.median(analysis.best)

    def test_some_weather_impact_exists(self, analysis):
        assert analysis.links_failed_per_interval.sum() > 0


class TestLossTraces:
    def test_paper_headline_statistics(self):
        trace = synthesize_hft_trace()
        # Mean 16.1%, median 1.4% in the paper; synthetic trace must
        # land in the neighborhood.
        assert 0.10 < trace.mean < 0.25
        assert 0.005 < trace.median < 0.04

    def test_trace_length(self):
        assert len(synthesize_hft_trace().loss_rates) == 2743

    def test_rates_are_probabilities(self):
        trace = synthesize_hft_trace()
        assert np.all(trace.loss_rates >= 0.0)
        assert np.all(trace.loss_rates <= 1.0)

    def test_hurricane_segment_is_worse(self):
        trace = synthesize_hft_trace(hurricane_days=4)
        cut = len(trace.loss_rates) - 4 * 390
        fair = trace.loss_rates[:cut]
        storm = trace.loss_rates[cut:]
        assert storm.mean() > 5 * fair.mean()

    def test_deterministic(self):
        a = synthesize_hft_trace(seed=1)
        b = synthesize_hft_trace(seed=1)
        assert np.array_equal(a.loss_rates, b.loss_rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_hft_trace(n_minutes=0)


class TestCriticalRainRate:
    """The inverted failure thresholds must classify exactly like the rule."""

    def test_classification_matches_attenuation_rule(self):
        from repro.weather import critical_rain_rates, path_attenuation_db_many

        hops = np.array([0.5, 2.0, 8.0, 20.0, 45.0, 80.0])
        rains = np.concatenate(
            [np.linspace(0.0, 150.0, 1201),
             np.random.default_rng(0).lognormal(1.7, 1.25, 500)]
        )
        for margin in (20.0, 30.0, 40.0):
            for freq in (7.0, 11.0, 15.0):
                crit = critical_rain_rates(hops, margin, freq)
                for i, hop in enumerate(hops):
                    att = path_attenuation_db_many(hop, rains, freq)
                    per_hop = type(crit)(
                        rise=crit.rise[i], dip=crit.dip[i], recovery=crit.recovery[i]
                    )
                    assert np.array_equal(per_hop.failed(rains), att > margin), (
                        f"hop {hop} km, margin {margin} dB, {freq} GHz"
                    )

    def test_classification_in_the_nonmonotone_dip(self):
        """Attenuation peaks below the 100 mm/h cap, dips, then rises.

        Regression: a single threshold misclassifies rains in the dip
        (e.g. a 34 km hop at 13 GHz straddles a 40 dB margin there);
        the piecewise rise/dip/recovery thresholds must match the
        direct rule on a dense grid through the whole band.
        """
        from repro.weather import critical_rain_rates, path_attenuation_db_many

        rains = np.concatenate(
            [np.linspace(60.0, 160.0, 40001), np.linspace(0.0, 60.0, 2001)]
        )
        cases = [
            (34.15, 40.0, 13.0),
            (40.0, 30.875, 11.0),
            (80.0, 35.0, 11.0),
            (60.0, 38.0, 13.0),
        ]
        for hop, margin, freq in cases:
            crit = critical_rain_rates(np.array([hop]), margin, freq)
            att = path_attenuation_db_many(hop, rains, freq)
            direct = att > margin
            assert np.array_equal(crit.failed(rains), direct), (
                f"hop {hop} km, margin {margin} dB, {freq} GHz: "
                f"{(crit.failed(rains) != direct).sum()} misclassified"
            )

    def test_vectorized_attenuation_bitwise_equals_scalar(self):
        from repro.weather import path_attenuation_db_many

        rng = np.random.default_rng(3)
        hops = rng.uniform(0.1, 90.0, 64)
        rains = rng.lognormal(1.7, 1.25, 64)
        many = path_attenuation_db_many(hops, rains, 11.0)
        for h, r, a in zip(hops, rains, many):
            assert a == path_attenuation_db(float(h), float(r), 11.0)

    def test_unfailable_hop_never_fails(self):
        from repro.weather import critical_rain_rates

        crit = critical_rain_rates(np.array([0.0, 0.05]), 40.0)
        assert not crit.failed(np.linspace(0.0, 900.0, 500)[:, None]).any()

    def test_margin_validation(self):
        from repro.weather import critical_rain_rates

        with pytest.raises(ValueError):
            critical_rain_rates(np.array([10.0]), 0.0)
        # NaN compares false against every rain rate: a silently
        # perfect year, so non-finite margins are rejected too.
        for margin in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                critical_rain_rates(np.array([10.0]), margin)


class TestBulkRain:
    def test_many_matches_stacked_single_days(self):
        year = PrecipitationYear(seed=5)
        lats = np.linspace(28, 47, 25)
        lons = np.linspace(-118, -72, 25)
        days = [10, 100, 100, 250, 10]
        bulk = year.rain_rate_mm_h_many(days, lats, lons)
        assert bulk.shape == (5, 25)
        for row, day in zip(bulk, days):
            assert np.array_equal(row, year.rain_rate_mm_h(day, lats, lons))

    def test_year_has_365_days(self):
        from repro.weather import DAYS_PER_YEAR

        year = PrecipitationYear()
        assert DAYS_PER_YEAR == 365
        assert year.storms_for_day(365) is not None
        with pytest.raises(ValueError):
            year.storms_for_day(366)
        with pytest.raises(ValueError):
            year.rain_rate_mm_h_many([1, 366], [30.0], [-90.0])


class TestIntervalSampler:
    def test_shared_sampler_recipe(self):
        from repro.weather import sample_interval_days

        days = sample_interval_days(7, 120)
        assert days.shape == (120,)
        assert days.min() >= 1 and days.max() <= 365
        assert len(np.unique(days)) == 120  # no replacement within a year
        assert np.array_equal(days, sample_interval_days(7, 120))

    def test_oversampling_replaces(self):
        from repro.weather import sample_interval_days

        days = sample_interval_days(1, 400)
        assert days.shape == (400,)
        assert days.max() <= 365

    def test_validation(self):
        from repro.weather import sample_interval_days

        with pytest.raises(ValueError):
            sample_interval_days(7, 0)

    def test_strided_grid(self):
        from repro.weather import strided_interval_days

        daily = strided_interval_days(1)
        assert np.array_equal(daily, np.arange(1, 366))
        weekly = strided_interval_days(7)
        assert weekly[0] == 1 and np.all(np.diff(weekly) == 7)
        for bad in (0, 366, -1):
            with pytest.raises(ValueError):
                strided_interval_days(bad)


class TestWeatherEvaluator:
    def test_binary_year_bitwise_matches_reference_loop(
        self, small_us_scenario, topology
    ):
        from repro.weather import (
            YearlyWeatherEvaluator,
            link_hop_segments,
            sample_interval_days,
        )
        from repro.weather.failures import distances_with_failures, failed_links

        sc = small_us_scenario
        precipitation = PrecipitationYear()
        days = sample_interval_days(3, 40)
        segments = link_hop_segments(topology, sc.catalog, sc.registry)
        # delta_k=0 pins the memo-only route, whose matrices are
        # bit-identical to the reference loop; the delta route is gated
        # to <= 1e-9 separately (test below, plus bench_storm_track).
        evaluator = YearlyWeatherEvaluator(
            topology, sc.catalog, sc.registry, precipitation=precipitation,
            delta_k=0,
        )
        result = evaluator.binary_year(days, fade_margin_db=30.0)
        geo = topology.design.geodesic_km
        iu = np.triu_indices(topology.design.n_sites, k=1)
        valid = geo[iu] > 0
        for k, day in enumerate(days):
            failed = failed_links(segments, precipitation, int(day))
            assert result.links_failed_per_interval[k] == len(failed)
            expected = (
                distances_with_failures(topology, failed)[iu] / geo[iu]
            )[valid]
            row = evaluator.stretches_for(frozenset(failed))
            assert np.array_equal(row, expected)

    def test_graded_year_bitwise_matches_scalar_per_hop_rule(
        self, small_us_scenario, topology
    ):
        """The graded pass equals the per-link scalar rule: one storm
        field per link and day, one attenuation per hop, and a link's
        capacity is its weakest hop's."""
        from repro.weather import (
            YearlyWeatherEvaluator,
            graded_capacity_fraction,
            link_hop_segments,
        )
        from repro.weather.failures import distances_with_failures

        sc = small_us_scenario
        precipitation = PrecipitationYear()
        # A dry day, a day with downshifts only, and days on which one,
        # two and six links fail.
        days = np.array([1, 14, 33, 78, 236])
        evaluator = YearlyWeatherEvaluator(
            topology, sc.catalog, sc.registry, precipitation=precipitation,
            delta_k=0,
        )
        per_interval, capacity_loss = evaluator.graded_year(days)

        segments = link_hop_segments(topology, sc.catalog, sc.registry)
        geo = topology.design.geodesic_km
        iu = np.triu_indices(topology.design.n_sites, k=1)
        valid = geo[iu] > 0
        best = (topology.effective_distance_matrix()[iu] / geo[iu])[valid]
        losses, downshifts, failures = [], 0, 0
        for k, day in enumerate(days):
            failed = set()
            for link, hops in segments.items():
                if not hops:
                    continue
                lats = np.array([h[0] for h in hops])
                lons = np.array([h[1] for h in hops])
                rain = precipitation.rain_rate_mm_h(int(day), lats, lons)
                fraction = min(
                    graded_capacity_fraction(
                        path_attenuation_db(hop_km, float(r)), 18.0, 40.0
                    )
                    for (_, _, hop_km), r in zip(hops, rain)
                )
                losses.append(1.0 - fraction)
                if fraction <= 0.0:
                    failed.add(link)
                elif fraction < 1.0:
                    downshifts += 1
            failures += len(failed)
            expected = (
                (distances_with_failures(topology, failed)[iu] / geo[iu])[valid]
                if failed
                else best
            )
            assert np.array_equal(per_interval[k], expected)
        assert downshifts > 0 and failures > 0
        assert abs(capacity_loss - float(np.mean(losses))) <= 1e-12

    @pytest.mark.parametrize(
        "cache_mb",
        [float("nan"), float("inf"), 0, -1.0, "256", True],
        ids=["nan", "inf", "zero", "negative", "str", "bool"],
    )
    def test_cache_mb_must_be_a_finite_positive_number(
        self, small_us_scenario, topology, cache_mb
    ):
        # NaN used to pass the `<= 0` check and act as a zero budget.
        from repro.weather import YearlyWeatherEvaluator

        sc = small_us_scenario
        with pytest.raises(
            ValueError, match="^cache_mb must be a finite number > 0, got "
        ):
            YearlyWeatherEvaluator(
                topology, sc.catalog, sc.registry, cache_mb=cache_mb
            )

    def test_default_delta_evaluator_matches_reference_to_1e9(
        self, small_us_scenario, topology
    ):
        """The default (delta-reuse) evaluator stays within 1e-9 relative."""
        from repro.weather import (
            YearlyWeatherEvaluator,
            link_hop_segments,
            sample_interval_days,
        )
        from repro.weather.failures import distances_with_failures, failed_links

        sc = small_us_scenario
        precipitation = PrecipitationYear()
        days = sample_interval_days(3, 40)
        segments = link_hop_segments(topology, sc.catalog, sc.registry)
        evaluator = YearlyWeatherEvaluator(
            topology, sc.catalog, sc.registry, precipitation=precipitation
        )
        evaluator.binary_year(days, fade_margin_db=30.0)
        geo = topology.design.geodesic_km
        iu = np.triu_indices(topology.design.n_sites, k=1)
        valid = geo[iu] > 0
        for day in days:
            failed = failed_links(segments, precipitation, int(day))
            expected = (
                distances_with_failures(topology, failed)[iu] / geo[iu]
            )[valid]
            row = evaluator.stretches_for(frozenset(failed))
            np.testing.assert_allclose(row, expected, rtol=1e-9, atol=1e-9)

    def test_failure_set_memoization(self, small_us_scenario, topology):
        from repro.weather import YearlyWeatherEvaluator, sample_interval_days

        sc = small_us_scenario
        evaluator = YearlyWeatherEvaluator(topology, sc.catalog, sc.registry)
        days = sample_interval_days(3, 50)
        first = evaluator.binary_year(days)
        stats = evaluator.solver.stats()
        # Queries that required computation; a union solve rides on its
        # query's fallback and is not a query of its own.
        solves = stats["full_solves"] + stats["delta_solves"] - stats["union_solves"]
        assert solves <= (first.links_failed_per_interval > 0).sum()
        # A repeated pass re-serves every interval from the cache ...
        second = evaluator.binary_year(days)
        assert evaluator.solver.stats() == stats
        # ... with bit-identical distance matrices (the same arrays).
        assert np.array_equal(first.p99, second.p99)
        assert np.array_equal(first.worst, second.worst)
        for failure_set in evaluator.solver.cached_failure_sets():
            assert evaluator.distances_for(failure_set) is evaluator.distances_for(
                failure_set
            )

    def test_graded_elementwise_never_worse_than_binary(
        self, small_us_scenario, topology
    ):
        """The paper's claim, per pair: graded can only improve the numbers."""
        sc = small_us_scenario
        cmp = graded_yearly_comparison(
            topology, sc.catalog, sc.registry, n_intervals=60, seed=11
        )
        assert np.all(cmp.graded_p99 <= cmp.binary_p99 + 1e-12)
        assert np.all(cmp.graded_worst <= cmp.binary_worst + 1e-12)

    def test_graded_binary_pass_shares_sampler_and_frequency(
        self, small_us_scenario, topology
    ):
        """Regression: binary-inside-graded == standalone binary, bitwise."""
        from repro.weather import yearly_stretch_analysis

        sc = small_us_scenario
        for freq in (7.0, 15.0):
            cmp = graded_yearly_comparison(
                topology, sc.catalog, sc.registry,
                n_intervals=30, seed=9, frequency_ghz=freq,
            )
            solo = yearly_stretch_analysis(
                topology, sc.catalog, sc.registry,
                n_intervals=30, seed=9, frequency_ghz=freq,
            )
            assert np.array_equal(cmp.binary_p99, solo.p99)
            assert np.array_equal(cmp.binary_worst, solo.worst)
            assert np.all(cmp.graded_p99 <= cmp.binary_p99 + 1e-12)
            assert np.all(cmp.graded_worst <= cmp.binary_worst + 1e-12)

    def test_frequency_threads_through_both_models(
        self, small_us_scenario, topology
    ):
        """Regression: the graded physics follow the carrier frequency."""
        from repro.weather import yearly_stretch_analysis

        sc = small_us_scenario
        low = graded_yearly_comparison(
            topology, sc.catalog, sc.registry,
            n_intervals=40, seed=3, frequency_ghz=7.0,
        )
        high = graded_yearly_comparison(
            topology, sc.catalog, sc.registry,
            n_intervals=40, seed=3, frequency_ghz=15.0,
        )
        # More attenuation at 15 GHz: more capacity lost to downshifts
        # and at least as many binary failures.
        assert high.capacity_loss_fraction > low.capacity_loss_fraction
        low_fail = yearly_stretch_analysis(
            topology, sc.catalog, sc.registry,
            n_intervals=40, seed=3, frequency_ghz=7.0,
        ).links_failed_per_interval.sum()
        high_fail = yearly_stretch_analysis(
            topology, sc.catalog, sc.registry,
            n_intervals=40, seed=3, frequency_ghz=15.0,
        ).links_failed_per_interval.sum()
        assert high_fail >= low_fail


class TestDailyResolution:
    """The strided-day grid and the solver counters in stage records."""

    def test_daily_year_end_to_end(self, small_us_scenario, topology):
        """A full 365-interval year runs through the analysis entry point."""
        from repro.weather import yearly_stretch_analysis

        sc = small_us_scenario
        result = yearly_stretch_analysis(
            topology, sc.catalog, sc.registry, sample_interval_days=1
        )
        assert result.links_failed_per_interval.shape == (365,)
        assert np.all(result.best <= result.p99 + 1e-9)
        assert np.all(result.worst <= result.fiber + 1e-9)

    def test_stride_overrides_random_sampling(
        self, small_us_scenario, topology
    ):
        from repro.weather import yearly_stretch_analysis

        sc = small_us_scenario
        # seed/n_intervals are ignored once the stride is set: two
        # different seeds give identical (deterministic-grid) results.
        a = yearly_stretch_analysis(
            topology, sc.catalog, sc.registry,
            n_intervals=5, seed=1, sample_interval_days=30,
        )
        b = yearly_stretch_analysis(
            topology, sc.catalog, sc.registry,
            n_intervals=9, seed=2, sample_interval_days=30,
        )
        assert a.links_failed_per_interval.shape[0] == len(range(1, 366, 30))
        assert np.array_equal(a.p99, b.p99)
        assert np.array_equal(a.worst, b.worst)

    def test_stage_records_report_solver_counters(
        self, small_us_scenario, topology
    ):
        from repro.weather import weather_stage_records

        sc = small_us_scenario
        rows = weather_stage_records(
            topology, sc.catalog, sc.registry, sample_interval_days=7
        )
        series = [row["series"] for row in rows]
        assert series == ["best", "p99", "worst", "fiber", "solver"]
        solver = rows[-1]
        assert solver["intervals"] == len(range(1, 366, 7))
        for key in (
            "full_solves", "delta_solves", "memo_hits",
            "cached_sets", "cache_bytes", "evictions",
        ):
            assert solver[key] >= 0
        # Every distinct non-empty set was solved somehow, and the
        # dry/repeat days all hit the memo.
        assert solver["full_solves"] + solver["delta_solves"] >= 1
        assert solver["memo_hits"] >= 1
        # Route totals account for every distances_for() lookup.
        lookups = (
            solver["full_solves"]
            + solver["delta_solves"]
            + solver["memo_hits"]
        )
        assert lookups >= 1

    def test_memo_only_and_delta_stage_records_agree(
        self, small_us_scenario, topology
    ):
        """The stage's default (delta) evaluator agrees with the
        memo-only one to 1e-9 on every per-pair series of the year."""
        from repro.weather import YearlyWeatherEvaluator, strided_interval_days

        sc = small_us_scenario
        days = strided_interval_days(7)
        delta = YearlyWeatherEvaluator(
            topology, sc.catalog, sc.registry, delta_k=2
        )
        memo = YearlyWeatherEvaluator(
            topology, sc.catalog, sc.registry, delta_k=0
        )
        got = delta.binary_year(days)
        want = memo.binary_year(days)
        for series in ("best", "p99", "worst", "fiber"):
            np.testing.assert_allclose(
                getattr(got, series), getattr(want, series), rtol=1e-9
            )
        assert memo.solver.stats()["delta_solves"] == 0


class TestSharedStormRows:
    """One process-wide store of storm-field rows, keyed by value."""

    DAYS = np.array([5, 40, 40, 200, 5, 364])

    @staticmethod
    def fresh_store(monkeypatch, budget_bytes=None):
        """Swap in an empty process-wide store (default budget)."""
        from repro.graph import ByteBudgetLRU
        from repro.weather import evaluation

        store = ByteBudgetLRU(budget_bytes or evaluation.STORM_ROWS_BYTES)
        monkeypatch.setattr(evaluation, "_storm_rows", store)
        return store

    @pytest.fixture
    def built(self, monkeypatch):
        """Start from an empty store; count the days each build asks for."""
        self.fresh_store(monkeypatch)
        calls: list[list[int]] = []
        original = PrecipitationYear.rain_rate_mm_h_many

        def counting(self, days, lats, lons):
            calls.append([int(d) for d in days])
            return original(self, days, lats, lons)

        monkeypatch.setattr(PrecipitationYear, "rain_rate_mm_h_many", counting)
        return calls

    @staticmethod
    def evaluator(scenario, topology, precipitation=None):
        from repro.weather import YearlyWeatherEvaluator

        return YearlyWeatherEvaluator(
            topology, scenario.catalog, scenario.registry,
            precipitation=precipitation,
        )

    @staticmethod
    def direct(evaluator, days):
        """A fresh computation that bypasses the store."""
        year = evaluator.precipitation
        return np.array(
            [year.rain_rate_mm_h(int(d), evaluator.hops.lat, evaluator.hops.lon)
             for d in days]
        )

    def test_second_evaluator_builds_no_rows(
        self, small_us_scenario, topology, built
    ):
        first = self.evaluator(small_us_scenario, topology, PrecipitationYear())
        rain = first.rain_for_days(self.DAYS)
        assert built == [[5, 40, 200, 364]]
        # Same topology and year, a new evaluator and a new year object.
        second = self.evaluator(small_us_scenario, topology, PrecipitationYear())
        shared = second.rain_for_days(self.DAYS)
        assert len(built) == 1
        assert shared.shape == (self.DAYS.size, second.hops.lat.size)
        assert np.array_equal(shared, self.direct(second, self.DAYS))
        assert np.array_equal(shared, rain)
        # A graded pass on the same evaluator reuses the rows too.
        second.graded_year(self.DAYS)
        assert len(built) == 1

    @pytest.mark.parametrize("differs_in", ["climate", "seed", "class", "hops"])
    def test_evaluators_differing_in_one_key_part_build_their_own(
        self, small_us_scenario, topology, built, differs_in
    ):
        from repro.core import solve_heuristic
        from repro.weather import EU_CLIMATE

        class SameStormsYear(PrecipitationYear):
            pass

        sc = small_us_scenario
        base = self.evaluator(sc, topology, PrecipitationYear())
        base.rain_for_days(self.DAYS)
        year = {
            "climate": PrecipitationYear(EU_CLIMATE),
            "seed": PrecipitationYear(seed=2016),
            "class": SameStormsYear(),
            "hops": PrecipitationYear(),
        }[differs_in]
        if differs_in == "hops":
            topology = solve_heuristic(
                sc.design_input(), 400.0, ilp_refinement=False
            ).topology
        other = self.evaluator(sc, topology, year)
        if differs_in == "hops":
            assert not np.array_equal(other.hops.lat, base.hops.lat)
        rain = other.rain_for_days(self.DAYS)
        assert built == [[5, 40, 200, 364]] * 2
        assert np.array_equal(rain, self.direct(other, self.DAYS))

    def test_tiny_budget_still_returns_correct_rows(
        self, small_us_scenario, topology, monkeypatch, built
    ):
        from repro.weather import DAYS_PER_YEAR

        ev = self.evaluator(small_us_scenario, topology)
        store = self.fresh_store(monkeypatch, 3 * ev.hops.lat.nbytes)
        year = np.arange(1, DAYS_PER_YEAR + 1)
        rain = ev.rain_for_days(year)
        assert np.array_equal(rain, self.direct(ev, year))
        assert len(store) <= 4
        # Evicted days are rebuilt on demand, still exactly.
        again = ev.rain_for_days(year[:10])
        assert np.array_equal(again, rain[:10])

    def test_stored_rows_are_read_only(self, small_us_scenario, topology, built):
        from repro.weather import evaluation

        ev = self.evaluator(small_us_scenario, topology)
        rain = ev.rain_for_days(self.DAYS)
        store = evaluation._storm_rows
        stored = [store.peek(key) for key in store.keys()]
        assert len(stored) == 4
        for row in stored:
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0
        # Callers get a fresh, writable array: scribbling on it leaves
        # the store (and the next caller's rows) untouched.
        rain[:] = -1.0
        assert np.array_equal(
            ev.rain_for_days(self.DAYS), self.direct(ev, self.DAYS)
        )

    def test_sweep_points_share_rows_in_any_order(
        self, tmp_path, monkeypatch, built
    ):
        """A fade-margin sweep builds each day once, with unchanged records."""
        from repro.exp import (
            ArtifactStore,
            DesignSpec,
            ExperimentSpec,
            ScenarioSpec,
            SweepService,
            WeatherSpec,
        )

        spec = ExperimentSpec(
            scenario=ScenarioSpec(name="us", sites=8, seed=42),
            design=DesignSpec(
                budget_towers=300.0, solver_opts={"ilp_refinement": False}
            ),
            weather=WeatherSpec(sample_interval_days=5, graded=True),
        )

        def sweep(name, margins, on_point=None):
            result = SweepService(
                spec, axes={"weather.fade_margin_db": margins},
                store=ArtifactStore(tmp_path / name), jobs=1,
            ).run(on_point=on_point)
            by_margin: dict[float, list[dict]] = {}
            for row in result.records:
                if row["stage"] == "weather":
                    row = {k: v for k, v in row.items() if k != "point"}
                    margin = row["weather.fade_margin_db"]
                    by_margin.setdefault(margin, []).append(row)
            return by_margin

        def empty_store(index=None, rows=None):
            self.fresh_store(monkeypatch)

        forward = sweep("forward", [20.0, 30.0])
        assert len(built) == 1
        empty_store()
        backward = sweep("backward", [30.0, 20.0])
        assert len(built) == 2
        empty_store()
        isolated = sweep("isolated", [20.0, 30.0], on_point=empty_store)
        assert len(built) == 4
        assert forward == backward == isolated
        assert forward[20.0] != forward[30.0]
