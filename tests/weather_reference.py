"""The weather evaluator's single-interval references (tests only).

:class:`~repro.weather.evaluation.YearlyWeatherEvaluator` finds a day's
failed links with one vectorized threshold comparison over all hops and
answers failure sets through the delta-reuse
:class:`~repro.graph.FailureSetSolver`.  Tests pin it to the scalar
path kept here: :func:`failed_links` applies the attenuation rule hop
by hop, :func:`distances_with_failures` solves each failure set from
scratch, and :func:`graded_capacity_fraction` is the per-hop graded
(modulation-downshift) rule the graded pass evaluates over arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.topology import Topology
from repro.graph import GraphKernel
from repro.weather.attenuation import path_attenuation_db
from repro.weather.precipitation import PrecipitationYear


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
    This is the single-shot reference path: the hybrid weights with
    each failed link at its fiber length, one exact full solve of a
    fresh :class:`~repro.graph.GraphKernel` — the path the evaluator is
    gated against.  With no failures the topology's memoized distances
    are reused as-is.  The returned array is read-only.
    """
    design = topology.design
    if not failed:
        return topology.effective_distance_matrix()
    weights = np.array(topology.hybrid_weight_matrix())
    for a, b in topology.mw_links:
        if (a, b) in failed:
            weights[a, b] = weights[b, a] = design.fiber_km[a, b]
    return GraphKernel(weights).distances()


def graded_capacity_fraction(
    attenuation_db: float, soft_margin_db: float = 18.0, hard_margin_db: float = 40.0
) -> float:
    """Remaining capacity fraction under rain fade.

    At or below the soft margin the link runs at full rate; above the
    hard margin it is down; in between, every 3 dB costs one modulation
    step, halving throughput (256-QAM downshifting).
    """
    if soft_margin_db <= 0 or hard_margin_db <= soft_margin_db:
        raise ValueError("need 0 < soft margin < hard margin")
    if attenuation_db <= soft_margin_db:
        return 1.0
    if attenuation_db >= hard_margin_db:
        return 0.0
    steps = (attenuation_db - soft_margin_db) / 3.0
    return float(0.5**steps)
