"""Tests for the probabilistic tower-acquisition model (§6.5)."""

import numpy as np
import pytest

from repro.core.pipeline import HopPipeline
from repro.geo import flat_terrain
from repro.datasets.sites import Site
from repro.towers import LosChecker, Tower, TowerRegistry
from repro.towers.acquisition import (
    AcquisitionModel,
    acquisition_study,
    refine_with_confirmations,
    sample_acquisitions,
)


@pytest.fixture(scope="module")
def dense_world():
    """Two sites joined by a 3-chain tower lattice."""
    site_a = Site("A", 40.0, -100.0, 1_000_000)
    site_b = Site("B", 40.0, -96.0, 1_000_000)
    towers = []
    tid = 0
    for row in range(3):
        lon = -100.0
        while lon <= -96.0:
            towers.append(Tower(tid, 40.0 + 0.12 * row, lon, 250.0, source="rental"))
            tid += 1
            lon += 0.5
    reg = TowerRegistry(towers)
    hg = HopPipeline(LosChecker(flat_terrain(0.0))).enumerate_hops(reg)
    return site_a, site_b, reg, hg


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            AcquisitionModel(rental_acquire_prob=1.5)
        with pytest.raises(ValueError):
            AcquisitionModel(min_height_fraction=0.0)
        with pytest.raises(ValueError):
            AcquisitionModel(min_height_fraction=0.9, max_height_fraction=0.5)


class TestSampling:
    def test_confirmed_overrides(self, dense_world):
        _, _, reg, _ = dense_world
        rng = np.random.default_rng(0)
        model = AcquisitionModel(rental_acquire_prob=0.0)
        mask = sample_acquisitions(reg, model, rng, confirmed={3: True})
        assert mask[3]
        assert mask.sum() == 1

    def test_probability_extremes(self, dense_world):
        _, _, reg, _ = dense_world
        rng = np.random.default_rng(0)
        all_yes = sample_acquisitions(
            reg, AcquisitionModel(rental_acquire_prob=1.0), rng
        )
        assert all_yes.all()


class TestStudy:
    def test_high_probability_always_feasible(self, dense_world):
        a, b, reg, hg = dense_world
        study = acquisition_study(
            a, b, reg, hg,
            model=AcquisitionModel(rental_acquire_prob=0.98),
            n_draws=40,
        )
        assert study.feasible_fraction > 0.8
        assert study.stretch_percentile(50) >= 1.0

    def test_low_probability_often_infeasible(self, dense_world):
        a, b, reg, hg = dense_world
        study = acquisition_study(
            a, b, reg, hg,
            model=AcquisitionModel(rental_acquire_prob=0.15),
            n_draws=40,
        )
        assert study.feasible_fraction < 0.8

    def test_uncertainty_widens_stretch(self, dense_world):
        """Acquisition risk forces detours: sampled paths are longer
        than the unconstrained shortest path."""
        a, b, reg, hg = dense_world
        sure = acquisition_study(
            a, b, reg, hg,
            model=AcquisitionModel(rental_acquire_prob=1.0),
            n_draws=5,
        )
        risky = acquisition_study(
            a, b, reg, hg,
            model=AcquisitionModel(rental_acquire_prob=0.6),
            n_draws=60,
        )
        assert risky.stretch_percentile(90) >= sure.stretch_percentile(90) - 1e-9

    def test_deterministic(self, dense_world):
        a, b, reg, hg = dense_world
        s1 = acquisition_study(a, b, reg, hg, n_draws=20, seed=3)
        s2 = acquisition_study(a, b, reg, hg, n_draws=20, seed=3)
        assert [p.mw_km for p in s1.paths] == [p.mw_km for p in s2.paths]

    def test_validation(self, dense_world):
        a, b, reg, hg = dense_world
        with pytest.raises(ValueError):
            acquisition_study(a, b, reg, hg, n_draws=0)
        with pytest.raises(ValueError):
            acquisition_study(a, a, reg, hg)


class TestRefinement:
    def test_refinement_narrows_uncertainty(self, dense_world):
        a, b, reg, hg = dense_world
        model = AcquisitionModel(rental_acquire_prob=0.6)
        study = acquisition_study(a, b, reg, hg, model=model, n_draws=60, seed=2)
        refined, confirmed = refine_with_confirmations(
            study, a, b, reg, hg, model=model, n_draws=60
        )
        assert confirmed
        assert refined.feasible_fraction >= study.feasible_fraction - 0.05

    def test_refine_infeasible_raises(self, dense_world):
        a, b, reg, hg = dense_world
        empty = acquisition_study(
            a, b, reg, hg,
            model=AcquisitionModel(rental_acquire_prob=0.01, fcc_acquire_prob=0.01),
            n_draws=3,
        )
        if not empty.paths:
            with pytest.raises(ValueError):
                refine_with_confirmations(empty, a, b, reg, hg)
