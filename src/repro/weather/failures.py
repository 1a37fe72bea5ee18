"""Weather-driven link failures and yearly latency analysis (§6.1, Fig 7).

For each sampled interval, every hop of every built MW link is checked
against the precipitation field: a hop whose rain attenuation exceeds
the fade margin fails, failing its whole link (the paper's conservative
binary rule).  Traffic then reroutes over surviving MW links and fiber,
and per-pair stretch is recomputed.

The yearly analysis reproduces Fig 7's CDFs: per city pair, the best
(fair-weather) stretch, the 99th-percentile and worst stretch over the
year, and the fiber-only baseline.  The heavy lifting — vectorized
failure detection against precomputed critical rain rates, one storm
field per day, one solve per *distinct* failure set — lives in the
shared :class:`~repro.weather.evaluation.YearlyWeatherEvaluator`;
:func:`failed_links` and :func:`distances_with_failures` below are the
single-interval reference path it is gated against.
"""

from __future__ import annotations

import numpy as np

from ..core.topology import Topology
from ..links.builder import LinkCatalog
from ..towers.registry import TowerRegistry
from .attenuation import path_attenuation_db
from .evaluation import YearlyStretchResult, YearlyWeatherEvaluator, select_days
from .precipitation import PrecipitationYear


def failed_links(
    segments: dict[tuple[int, int], list[tuple[float, float, float]]],
    precipitation: PrecipitationYear,
    day_of_year: int,
    fade_margin_db: float = 30.0,
    frequency_ghz: float = 11.0,
) -> set[tuple[int, int]]:
    """Links with at least one hop exceeding the fade margin today."""
    failed: set[tuple[int, int]] = set()
    # Vectorize the rain query across all hops of all links at once.
    all_links = list(segments)
    lats, lons, lens, owner = [], [], [], []
    for idx, link in enumerate(all_links):
        for lat, lon, hop_km in segments[link]:
            lats.append(lat)
            lons.append(lon)
            lens.append(hop_km)
            owner.append(idx)
    if not lats:
        return failed
    rain = precipitation.rain_rate_mm_h(day_of_year, np.array(lats), np.array(lons))
    for r, hop_km, idx in zip(rain, lens, owner):
        link = all_links[idx]
        if link in failed:
            continue
        if path_attenuation_db(hop_km, float(r), frequency_ghz) > fade_margin_db:
            failed.add(link)
    return failed


def distances_with_failures(
    topology: Topology, failed: set[tuple[int, int]]
) -> np.ndarray:
    """Effective distance matrix with the failed links removed.

    Each failed MW link reverts to the always-available direct fiber.
    This is the single-shot reference path: a fresh
    :class:`~repro.graph.GraphView`, one :meth:`set_edge` per failed
    link, one exact full solve — the path the evaluator is gated
    against.  With no failures the topology's memoized distances are
    reused as-is.  The returned array is read-only.
    """
    design = topology.design
    if not failed:
        return topology.effective_distance_matrix()
    view = topology.graph_view()
    for a, b in topology.mw_links:
        if (a, b) in failed:
            view.set_edge(a, b, design.fiber_km[a, b])
    return view.distances()


def yearly_stretch_analysis(
    topology: Topology,
    catalog: LinkCatalog,
    registry: TowerRegistry,
    precipitation: PrecipitationYear | None = None,
    n_intervals: int = 365,
    fade_margin_db: float = 30.0,
    seed: int = 7,
    frequency_ghz: float = 11.0,
    sample_interval_days: int | None = None,
) -> YearlyStretchResult:
    """Reproduce Fig 7: stretch across all pairs over a sampled year.

    One randomly placed 30-minute interval per day is emulated by one
    storm-field sample per day (our fields are daily); ``n_intervals``
    days are drawn uniformly from the 365-day year by
    :func:`sample_interval_days`.

    Args:
        frequency_ghz: MW carrier frequency for the rain-fade physics.
        sample_interval_days: when set, replace the random day sample
            with the deterministic every-Nth-day grid of
            :func:`strided_interval_days` (``1`` = the full
            daily-resolution year); ``n_intervals`` and ``seed`` are
            then ignored.
    """
    days = select_days(n_intervals, seed, sample_interval_days)
    evaluator = YearlyWeatherEvaluator(
        topology, catalog, registry, precipitation, frequency_ghz
    )
    return evaluator.binary_year(days, fade_margin_db=fade_margin_db)
