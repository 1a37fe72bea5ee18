"""Tests for gaming, web page-load, and cost-benefit models."""

import numpy as np
import pytest

from repro.apps import (
    PacmanState,
    all_estimates,
    compare_corpus,
    ecommerce_value,
    econ_records,
    fast_fraction_from_topology,
    fat_client_latency_ms,
    frame_time_curve,
    gaming_value,
    load_page,
    simulate_thin_client,
    synthesize_page,
    synthesize_pages,
    web_search_value,
)


class TestPacman:
    def test_moves(self):
        s = PacmanState(x=10, y=10)
        assert s.apply("up").y == 9
        assert s.apply("down").y == 11
        assert s.apply("left").x == 9
        assert s.apply("right").x == 11

    def test_toroidal_wrap(self):
        s = PacmanState(x=0, y=0)
        assert s.apply("left").x == 19
        assert s.apply("up").y == 19

    def test_score_accumulates(self):
        s = PacmanState()
        for _ in range(30):
            s = s.apply("right")
        assert s.score > 0


class TestThinClient:
    def test_augmentation_cuts_frame_time(self):
        """Fig 12: the augmented line sits well below conventional."""
        for lat in (60.0, 150.0, 300.0):
            aug = simulate_thin_client(lat, use_augmentation=True, seed=1)
            conv = simulate_thin_client(lat, use_augmentation=False, seed=1)
            assert aug.mean_frame_time_ms < 0.6 * conv.mean_frame_time_ms

    def test_frame_time_grows_with_latency(self):
        curve = frame_time_curve([0.0, 100.0, 200.0, 300.0], use_augmentation=True)
        means = [p.mean_frame_time_ms for p in curve]
        assert means == sorted(means)

    def test_zero_latency_dominated_by_render(self):
        stats = simulate_thin_client(0.0, use_augmentation=True)
        assert stats.mean_frame_time_ms < 20.0

    def test_speculation_hit_rate_high(self):
        stats = simulate_thin_client(200.0, use_augmentation=True)
        assert stats.speculation_hit_rate > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_thin_client(-1.0)
        with pytest.raises(ValueError):
            simulate_thin_client(100.0, fast_fraction=0.0)

    def test_fat_client(self):
        assert fat_client_latency_ms(90.0) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            fat_client_latency_ms(-5.0)


class TestFastFractionFromDesign:
    def test_fiber_only_is_one(self, toy_design_8):
        from repro.core import fiber_only_topology

        assert fast_fraction_from_topology(
            fiber_only_topology(toy_design_8)
        ) == pytest.approx(1.0)

    def test_designs_shrink_the_fraction(self, toy_design_10):
        from repro.core import solve_heuristic

        few = solve_heuristic(toy_design_10, 100.0, ilp_refinement=False).topology
        many = solve_heuristic(toy_design_10, 500.0, ilp_refinement=False).topology
        f_few = fast_fraction_from_topology(few)
        f_many = fast_fraction_from_topology(many)
        assert 0.0 < f_many <= f_few <= 1.0
        # Feeding the derived fraction into the gaming model works
        # end-to-end (the kernel-backed stretch drives the curve).
        stats = simulate_thin_client(80.0, fast_fraction=f_many, n_inputs=50)
        assert stats.mean_frame_time_ms > 0


class TestWebModel:
    def test_page_structure(self):
        page = synthesize_page(seed=1)
        assert page.objects[0].parent is None
        for obj in page.objects[1:]:
            assert obj.parent is not None
            assert obj.parent < obj.obj_id
        assert all(0 <= o.origin < len(page.origin_rtts_ms) for o in page.objects)

    def test_pages_deterministic(self):
        a = synthesize_page(seed=4)
        b = synthesize_page(seed=4)
        assert a == b

    def test_corpus_size(self):
        assert len(synthesize_pages(80)) == 80
        with pytest.raises(ValueError):
            synthesize_pages(0)

    def test_load_page_scaling_reduces_plt(self):
        page = synthesize_page(seed=7)
        base = load_page(page)
        fast = load_page(page, c2s_scale=1 / 3, s2c_scale=1 / 3)
        assert fast.plt_ms < base.plt_ms

    def test_compute_floor(self):
        # Even at near-zero latency, PLT cannot drop below client compute.
        page = synthesize_page(seed=7)
        tiny = load_page(page, c2s_scale=1e-6, s2c_scale=1e-6)
        assert tiny.plt_ms >= page.onload_compute_ms

    def test_selective_between_baseline_and_full(self):
        page = synthesize_page(seed=9)
        base = load_page(page).plt_ms
        full = load_page(page, c2s_scale=1 / 3, s2c_scale=1 / 3).plt_ms
        sel = load_page(page, c2s_scale=1 / 3, s2c_scale=1.0).plt_ms
        assert full <= sel <= base

    def test_invalid_scales(self):
        page = synthesize_page(seed=1)
        with pytest.raises(ValueError):
            load_page(page, c2s_scale=0.0)

    def test_corpus_comparison_shapes(self):
        cmp = compare_corpus(synthesize_pages(12, seed=3))
        assert cmp.baseline_plts.shape == (12,)
        assert len(cmp.baseline_olts) == len(cmp.small_object_mask)

    def test_fig13_shape(self):
        """Fig 13 + §7.2 headline numbers, as shape targets."""
        cmp = compare_corpus(synthesize_pages(80, seed=1))
        plt_red = cmp.median_plt_reduction("cisp")
        sel_red = cmp.median_plt_reduction("selective")
        olt_red = cmp.median_olt_reduction()
        small_red = cmp.median_olt_reduction(small_only=True)
        assert 0.2 < plt_red < 0.45  # paper: 31%
        assert 0.0 < sel_red < plt_red  # selective helps, less than full
        assert olt_red > plt_red  # objects improve more than pages
        assert small_red > olt_red - 0.02  # small objects improve most
        assert cmp.upstream_byte_fraction < 0.15  # paper: 8.5%

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            compare_corpus([])


class TestEconomics:
    def test_web_search_matches_paper(self):
        est = web_search_value()
        assert est.low_usd_per_gb == pytest.approx(1.84, abs=0.05)
        assert est.high_usd_per_gb == pytest.approx(3.74, abs=0.08)

    def test_ecommerce_matches_paper(self):
        est = ecommerce_value()
        assert est.low_usd_per_gb == pytest.approx(3.26, abs=0.15)
        assert est.high_usd_per_gb == pytest.approx(22.82, abs=0.6)

    def test_gaming_matches_paper(self):
        est = gaming_value()
        assert est.low_usd_per_gb == pytest.approx(3.7, abs=0.2)

    def test_all_exceed_cost(self):
        """§8's conclusion: value >> $0.81/GB everywhere."""
        for est in all_estimates():
            assert est.exceeds_cost(0.81)

    def test_value_summary(self):
        """§8's value summary, as the econ stage's table."""
        rows = econ_records(cost_per_gb=0.81)
        assert [row["scenario"] for row in rows] == ["web-search", "e-commerce", "gaming"]
        assert all(row["justifies"] for row in rows)
        assert all(row["cost_per_gb"] == 0.81 for row in rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            ecommerce_value(cisp_byte_fraction=0.0)
        with pytest.raises(ValueError):
            gaming_value(hours_per_day=0.0)
