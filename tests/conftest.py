"""Shared fixtures: small deterministic design problems and substrates."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro.core.topology import DesignInput
from repro.datasets.sites import Site


def make_toy_design(n: int, seed: int = 0) -> DesignInput:
    """A small, random-but-deterministic design problem.

    MW links are cheap and straight (1.02-1.2x geodesic), fiber is slow
    (metric closure of 1.7-2.3x geodesic), traffic is population-product
    — structurally the same problem the paper solves.
    """
    rng = np.random.default_rng(seed)
    lats = rng.uniform(30.0, 45.0, n)
    lons = rng.uniform(-120.0, -75.0, n)
    pops = rng.integers(100_000, 5_000_000, n)
    sites = tuple(
        Site(name=f"s{i}", lat=float(lats[i]), lon=float(lons[i]), population=int(pops[i]))
        for i in range(n)
    )
    from repro.geo import pairwise_distance_matrix

    geo = pairwise_distance_matrix(lats, lons)
    mw = geo * rng.uniform(1.02, 1.2, (n, n))
    mw = (mw + mw.T) / 2.0
    np.fill_diagonal(mw, np.inf)
    cost = np.ceil(mw / 35.0)
    np.fill_diagonal(cost, np.inf)
    fiber = geo * rng.uniform(1.7, 2.3, (n, n))
    fiber = (fiber + fiber.T) / 2.0
    np.fill_diagonal(fiber, 0.0)
    # repro: allow[dense-fw-ban] -- fixture builds the fiber metric closure without importing the kernel under test
    fiber = shortest_path(fiber, method="FW", directed=False)
    h = np.outer(pops, pops).astype(float)
    np.fill_diagonal(h, 0.0)
    h /= np.triu(h, 1).sum()
    return DesignInput(
        sites=sites,
        traffic=h,
        geodesic_km=geo,
        mw_km=mw,
        cost_towers=cost,
        fiber_km=fiber,
    )


def los_verdicts(checker, towers_a, towers_b) -> np.ndarray:
    """LoS verdicts for aligned tower lists, through ``checker.feasible_arrays``."""

    def columns(towers):
        return [
            np.array([getattr(t, field) for t in towers], dtype=float)
            for field in ("lat", "lon", "height_m")
        ]

    return checker.feasible_arrays(*columns(towers_a), *columns(towers_b))


def point_elevation_m(terrain, point) -> float:
    """Terrain elevation at one ``GeoPoint``, metres."""
    return float(terrain.elevation_m([point.lat], [point.lon])[0])


@pytest.fixture(autouse=True)
def _isolated_artifact_store(monkeypatch, tmp_path_factory):
    """Point the experiment artifact store at a per-session temp dir.

    Tests must never read or write the user-level cache: stale artifacts
    could mask regressions, and test runs should not pollute it.  One
    shared session directory still lets CLI tests reuse substrates.
    """
    root = tmp_path_factory.getbasetemp() / "artifact-store"
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(root))


@pytest.fixture
def toy_design_8():
    return make_toy_design(8, seed=8)


@pytest.fixture
def toy_design_10():
    return make_toy_design(10, seed=10)


@pytest.fixture(scope="session")
def lint_tree_paths():
    """What ``repro lint`` checks by default: src, tests and benchmarks."""
    root = Path(__file__).resolve().parent.parent
    return [
        root / name
        for name in ("src", "tests", "benchmarks")
        if (root / name).is_dir()
    ]


@pytest.fixture(scope="session")
def tree_lint(lint_tree_paths):
    """One lint run over the whole tree, shared by every test that only
    reads its result: each run parses every file."""
    from repro.analysis import run_lint

    return run_lint(lint_tree_paths)


@pytest.fixture(scope="session")
def current_entries():
    """The lockfile entries of the tree as it stands, computed once: each
    computation fingerprints every versioned component's call graph."""
    from repro.analysis import compute_entries

    return compute_entries()


@pytest.fixture(scope="session")
def small_us_scenario():
    """A cached 20-city US scenario for integration tests."""
    from repro.scenarios import get_scenario

    return get_scenario("us", sites=20)
