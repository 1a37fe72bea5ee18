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
shared :class:`~repro.weather.evaluation.YearlyWeatherEvaluator`; the
single-interval reference path it is gated against (the per-hop scalar
failure rule and one full solve per failure set) lives with the tests,
in ``tests/weather_reference.py``.
"""

from __future__ import annotations

from ..core.topology import Topology
from ..links.builder import LinkCatalog
from ..towers.registry import TowerRegistry
from .evaluation import YearlyStretchResult, YearlyWeatherEvaluator, select_days
from .precipitation import PrecipitationYear


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
