"""The shared yearly-weather evaluation engine (§6.1, Fig 7).

Every yearly analysis — the binary failure model and the graded
(modulation-downshift) refinement, in the orchestration layer's weather
stage, the Fig 7 scripts and the examples — runs through one
:class:`YearlyWeatherEvaluator`: build it on a design and call
:meth:`~YearlyWeatherEvaluator.binary_year` or
:meth:`~YearlyWeatherEvaluator.graded_year` on the days of
:func:`sample_interval_days` (or :func:`select_days`, which takes a
stride).  Four properties make the sampled-year loop scale:

* **one sampler** — :func:`sample_interval_days` is the only place the
  §6.1 interval days are drawn, so the binary and graded passes can
  never desynchronize their sampled days (they previously duplicated
  the RNG recipe);
* **vectorized failures** — the fade margin is inverted once per hop
  into :class:`~repro.weather.attenuation.CriticalRainRates`
  (:func:`~repro.weather.attenuation.critical_rain_rates`), so a
  day's failed-link set is one vectorized threshold comparison over
  all hops with no attenuation evaluation; storm fields are built once
  per day for all hops via
  :meth:`PrecipitationYear.rain_rate_mm_h_many`, never once per link;
* **shared storm rows** — a day's rain row over a design's hops is a
  pure function of the precipitation year and the hop midpoints, so
  one process-wide store keeps every built row for every evaluator in
  the process (see :meth:`YearlyWeatherEvaluator.rain_for_days`).  A
  fade-margin x frequency sweep over one design, and the binary and
  graded passes of one point, build each day once between them;
* **failure-set reuse** — each interval's failed links are
  canonicalized to a frozenset and routed through a
  :class:`~repro.graph.FailureSetSolver`: repeated sets are memo hits,
  sets within ``delta_k`` links of a previously solved neighbor are
  derived compositionally (exact edge-insertion restorations plus an
  affected-source Dijkstra restart for the removals), and only
  genuinely new neighborhoods pay a full
  :func:`~repro.graph.whatif.distances_with_edges_removed` solve.  The
  solver holds the topology's own memoized
  :meth:`~repro.core.topology.Topology.graph_kernel` and pins its
  distances as the healthy base, so the base is solved once per
  topology, not once per evaluator.
  Storm tracks — where one or two links flap between consecutive days —
  ride the delta route, which is what makes daily-resolution
  (365-interval) years affordable at continental scale.  Cached
  matrices, stretch rows and storm rows each live in a byte-budgeted
  :class:`~repro.cache.LruCache`, so long runs cannot exhaust memory.

Every caller builds the default evaluator (``delta_k=2``, 256 MiB).  An evaluator built with ``delta_k=0``
reproduces the per-interval re-solve bit-identically
(``tests/test_weather.py`` pins the binary year to it and the graded
year to the scalar per-hop rule of ``tests/weather_reference.py``, and
its script form checks every failure set of a flagship year); the
delta route is checked to <= 1e-9 against it by
``tests/test_weather.py`` and ``benchmarks/bench_storm_track.py``.
Route selection is deterministic,
so two identically configured evaluators fed the same query sequence
return bitwise-identical arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..core.topology import Topology
from ..cache import LruCache
from ..graph import FailureSetSolver
from ..links.builder import LinkCatalog
from ..towers.registry import TowerRegistry
from .attenuation import (
    CriticalRainRates,
    critical_rain_rates,
    path_attenuation_db_many,
)
from .precipitation import DAYS_PER_YEAR, PrecipitationYear

#: Byte budget of the process-wide storm-row store: one flagship year
#: (365 days over 2,678 hops) is 7.5 MiB, so this holds several
#: designs' full years.
STORM_ROWS_BYTES = 64 * 2**20

# Storm-field rows keyed by value: (precipitation class, climate, seed,
# hop lat bytes, hop lon bytes, day) -> read-only rain row.
_storm_rows = LruCache(STORM_ROWS_BYTES, size_of=attrgetter("nbytes"))


def sample_interval_days(seed: int, n_intervals: int) -> np.ndarray:
    """The §6.1 sampled days of year: one 30-minute interval per draw.

    Days are drawn uniformly from the 365-day synthetic year (without
    replacement while ``n_intervals`` fits in one year).  This is the
    *only* sampler: the binary and graded passes of every caller
    consume it, so one seed always means one shared day sequence
    across passes.
    """
    if n_intervals <= 0:
        raise ValueError("need at least one interval")
    rng = np.random.default_rng(seed)
    return rng.choice(
        np.arange(1, DAYS_PER_YEAR + 1),
        size=n_intervals,
        replace=n_intervals > DAYS_PER_YEAR,
    )


def strided_interval_days(sample_interval_days: int) -> np.ndarray:
    """A deterministic day grid over the year: every Nth day, in order.

    ``sample_interval_days=1`` is the full daily-resolution year (365
    intervals) — the storm-track delta solver's home turf, since
    consecutive days differ by the few links a moving storm flips.
    Replaces :func:`sample_interval_days`'s random draw when an
    analysis asks for it (no seed involved).
    """
    step = int(sample_interval_days)
    if not (1 <= step <= DAYS_PER_YEAR):
        raise ValueError(
            f"sample_interval_days must be in [1, {DAYS_PER_YEAR}], got {step}"
        )
    return np.arange(1, DAYS_PER_YEAR + 1, step, dtype=int)


def select_days(n_intervals: int, seed: int, stride: int | None) -> np.ndarray:
    """The days a yearly analysis evaluates.

    The every-``stride``-th-day grid of :func:`strided_interval_days`
    when ``stride`` is set (``n_intervals`` and ``seed`` are then
    ignored), else ``n_intervals`` random days from
    :func:`sample_interval_days`.
    """
    if stride is not None:
        return strided_interval_days(stride)
    return sample_interval_days(seed, n_intervals)


@dataclass(frozen=True)
class YearlyStretchResult:
    """Per-pair stretch statistics over a sampled year.

    All arrays are flattened over the site pairs (i < j) with finite
    geodesic separation.

    Attributes:
        best: fair-weather stretch per pair.
        p99: 99th-percentile stretch per pair across intervals.
        worst: worst stretch per pair.
        fiber: fiber-only stretch per pair.
        links_failed_per_interval: number of failed MW links per
            sampled interval.
    """

    best: np.ndarray
    p99: np.ndarray
    worst: np.ndarray
    fiber: np.ndarray
    links_failed_per_interval: np.ndarray


def link_hop_segments(
    topology: Topology, catalog: LinkCatalog, registry: TowerRegistry
) -> dict[tuple[int, int], list[tuple[float, float, float]]]:
    """Per built link: (mid_lat, mid_lon, hop_km) of each tower hop."""
    segments: dict[tuple[int, int], list[tuple[float, float, float]]] = {}
    for link in sorted(topology.mw_links):
        cand = catalog.link(*link)
        if cand is None:
            raise ValueError(f"link {link} missing from catalog")
        hops = []
        path = cand.tower_path
        for u, v in zip(path[:-1], path[1:]):
            a, b = registry[u], registry[v]
            hops.append(
                (
                    (a.lat + b.lat) / 2.0,
                    (a.lon + b.lon) / 2.0,
                    a.point.distance_km(b.point),
                )
            )
        segments[link] = hops
    return segments


@dataclass(frozen=True)
class LinkHopArrays:
    """The hop geometry of every built link, flattened to arrays.

    Hops appear in link order (links sorted ascending) and, within a
    link, tower-path order — the same order the per-link segment dict
    iterates, so rain queries over these arrays reproduce the scalar
    path bit-for-bit.

    Attributes:
        links: the built links, sorted ascending.
        lat / lon: hop midpoint coordinates, shape ``(n_hops,)``.
        hop_km: hop lengths, shape ``(n_hops,)``.
        link_index: for each hop, its link's index into ``links``.
    """

    links: tuple[tuple[int, int], ...]
    lat: np.ndarray
    lon: np.ndarray
    hop_km: np.ndarray
    link_index: np.ndarray


def link_hop_arrays(
    topology: Topology, catalog: LinkCatalog, registry: TowerRegistry
) -> LinkHopArrays:
    """Flatten :func:`link_hop_segments` into vectorization-ready arrays."""
    segments = link_hop_segments(topology, catalog, registry)
    lats: list[float] = []
    lons: list[float] = []
    lens: list[float] = []
    owner: list[int] = []
    for idx, hops in enumerate(segments.values()):
        for lat, lon, hop_km in hops:
            lats.append(lat)
            lons.append(lon)
            lens.append(hop_km)
            owner.append(idx)
    return LinkHopArrays(
        links=tuple(segments),
        lat=np.array(lats, dtype=float),
        lon=np.array(lons, dtype=float),
        hop_km=np.array(lens, dtype=float),
        link_index=np.array(owner, dtype=np.intp),
    )


class YearlyWeatherEvaluator:
    """Vectorized, memoized engine behind every yearly weather analysis.

    One evaluator pins one ``(topology, precipitation, frequency)``
    context; the binary and graded passes share its failure-set solver,
    so e.g. a binary and a graded pass over the same days pay each
    distinct failure set only once between them.  Per-day storm fields are
    shared more widely, by every evaluator in the process
    (:meth:`rain_for_days`).

    Args:
        delta_k: the failure-set solver's neighbor radius — a query
            within ``delta_k`` links (symmetric difference) of a
            previously solved set is derived compositionally instead of
            fully solved.  ``0`` reproduces the memo-only path (one
            full solve per distinct set) bit-identically.
        cache_mb: LRU byte budget (MiB), applied separately to the
            solver's distance matrices and the per-set stretch rows.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: LinkCatalog,
        registry: TowerRegistry,
        precipitation: PrecipitationYear | None = None,
        frequency_ghz: float = 11.0,
        delta_k: int = 2,
        cache_mb: float = 256.0,
    ) -> None:
        if not (
            isinstance(cache_mb, numbers.Real)
            and not isinstance(cache_mb, bool)
            and math.isfinite(cache_mb)
            and cache_mb > 0
        ):
            raise ValueError(f"cache_mb must be a finite number > 0, got {cache_mb!r}")
        self.topology = topology
        self.precipitation = precipitation or PrecipitationYear()
        self.frequency_ghz = float(frequency_ghz)
        self.delta_k = int(delta_k)
        self.cache_mb = float(cache_mb)
        self.hops = link_hop_arrays(topology, catalog, registry)
        design = topology.design
        geo = design.geodesic_km
        self._iu = np.triu_indices(design.n_sites, k=1)
        self._valid = geo[self._iu] > 0
        self._geo_flat = geo[self._iu]
        self._fiber_km = design.fiber_km
        self._solver: FailureSetSolver | None = None
        self._stretch_cache = LruCache(self.cache_mb * 2**20, size_of=attrgetter("nbytes"))
        self._stretch_cache.pin(frozenset())
        self._critical_cache: dict[float, CriticalRainRates] = {}

    @property
    def solver(self) -> FailureSetSolver:
        """The failure-set solver (built on first use).

        A failed MW link reverts to its always-available direct fiber,
        so the solver's failed weight for link ``(a, b)`` is
        ``fiber_km[a, b]``.  The solver runs on the topology's memoized
        kernel, whose distances are the healthy entry (no second solve).
        """
        if self._solver is None:
            fiber = self._fiber_km
            self._solver = FailureSetSolver(
                self.topology.graph_kernel(),
                fail_weight=lambda a, b: float(fiber[a, b]),
                delta_k=self.delta_k,
                cache_bytes=self.cache_mb * 2**20,
            )
        return self._solver

    # -- per-day rain over all hops ------------------------------------

    def rain_for_days(self, days) -> np.ndarray:
        """Rain at every hop midpoint for each day, ``(n_days, n_hops)``.

        Rows are shared per process: every evaluator reads one
        process-wide store and builds, in one
        :meth:`PrecipitationYear.rain_rate_mm_h_many` call, only the
        days it lacks.  Sharing is exact because a row depends on
        nothing but the precipitation year and the hop midpoints, and
        the store's key holds exactly those values — the
        precipitation's class, ``climate`` and ``seed``, the bytes of
        the hop ``lat``/``lon`` arrays, and the day — never an object
        identity.  So the fade margins and frequencies of a sweep, the
        binary and graded passes, and any two evaluators on one design
        and year build each day once between them.  Stored rows are
        read-only and live in an LRU bounded by
        :data:`STORM_ROWS_BYTES` (64 MiB, several flagship years); the
        returned array is always a fresh copy, and ``days`` may repeat.
        """
        days = np.atleast_1d(np.asarray(days, dtype=int))
        p = self.precipitation
        storm = (
            type(p), p.climate, p.seed,
            self.hops.lat.tobytes(), self.hops.lon.tobytes(),
        )
        rows = {
            day: _storm_rows.get((storm, day)) for day in np.unique(days).tolist()
        }
        missing = [day for day, row in rows.items() if row is None]
        if missing:
            built = p.rain_rate_mm_h_many(missing, self.hops.lat, self.hops.lon)
            for day, row in zip(missing, built):
                # A copy, so an evicted row frees its memory instead of
                # keeping the whole call's block alive.
                row = row.copy()
                row.flags.writeable = False
                _storm_rows.put((storm, day), row)
                rows[day] = row
        if not days.size:
            return np.empty((0, self.hops.hop_km.size))
        return np.array([rows[day] for day in days.tolist()])

    # -- failure detection ---------------------------------------------

    def critical_rain(self, fade_margin_db: float) -> CriticalRainRates:
        """Per-hop inverted failure thresholds (cached per margin)."""
        key = float(fade_margin_db)
        if key not in self._critical_cache:
            self._critical_cache[key] = critical_rain_rates(
                self.hops.hop_km, key, self.frequency_ghz
            )
        return self._critical_cache[key]

    def _links_from_hop_mask(self, mask: np.ndarray) -> frozenset:
        if not mask.any():
            return frozenset()
        failed = np.unique(self.hops.link_index[mask])
        return frozenset(self.hops.links[i] for i in failed)

    # -- memoized solves ------------------------------------------------

    def distances_for(self, failed: frozenset) -> np.ndarray:
        """All-pairs distances with ``failed`` MW links down (read-only).

        Each failed link reverts to its always-available direct fiber.
        The query routes through the failure-set solver: repeats are
        bit-identical memo hits, near-repeats (within ``delta_k``
        links of a cached set) are derived compositionally, and only
        new neighborhoods pay a full batch solve.
        """
        return self.solver.distances_for(failed)

    def _stretches(self, dist: np.ndarray) -> np.ndarray:
        return (dist[self._iu] / self._geo_flat)[self._valid]

    def stretches_for(self, failed: frozenset) -> np.ndarray:
        """Per-pair stretch row under a failure set (memoized, LRU)."""
        key = frozenset(failed)
        cached = self._stretch_cache.get(key)
        if cached is None:
            cached = self._stretches(self.distances_for(key))
            self._stretch_cache.put(key, cached)
        return cached

    # -- the two passes -------------------------------------------------

    def binary_year(self, days, fade_margin_db: float = 30.0) -> YearlyStretchResult:
        """The paper's binary failure model over the given sampled days."""
        days = np.atleast_1d(np.asarray(days, dtype=int))
        rain = self.rain_for_days(days)
        critical = self.critical_rain(fade_margin_db)
        best = self.stretches_for(frozenset())
        fiber = self._stretches(self._fiber_km)
        per_interval = np.empty((days.size, int(self._valid.sum())))
        n_failed = np.zeros(days.size, dtype=int)
        for k in range(days.size):
            failed = self._links_from_hop_mask(critical.failed(rain[k]))
            n_failed[k] = len(failed)
            per_interval[k] = self.stretches_for(failed) if failed else best
        return YearlyStretchResult(
            best=best,
            p99=np.percentile(per_interval, 99, axis=0),
            worst=per_interval.max(axis=0),
            fiber=fiber,
            links_failed_per_interval=n_failed,
        )

    def graded_year(
        self,
        days,
        soft_margin_db: float = 18.0,
        hard_margin_db: float = 40.0,
    ) -> tuple[np.ndarray, float]:
        """The graded (modulation-downshift) model over the sampled days.

        Links degrade between the soft and hard margins (each 3 dB
        over soft halves throughput) and only drop above the hard
        margin, so the latency statistics are elementwise no worse
        than the binary model's.

        Returns:
            ``(per_interval, capacity_loss_fraction)``: the per-pair
            stretch rows (one per day) and the mean fraction of MW
            capacity lost to downshifts across all (day, link) samples.
        """
        if soft_margin_db <= 0 or hard_margin_db <= soft_margin_db:
            raise ValueError("need 0 < soft margin < hard margin")
        days = np.atleast_1d(np.asarray(days, dtype=int))
        rain = self.rain_for_days(days)
        attenuation = path_attenuation_db_many(
            self.hops.hop_km, rain, self.frequency_ghz
        )
        steps = (attenuation - soft_margin_db) / 3.0
        fractions = np.where(
            attenuation <= soft_margin_db,
            1.0,
            np.where(attenuation >= hard_margin_db, 0.0, 0.5**steps),
        )
        best = self.stretches_for(frozenset())
        per_interval = np.empty((days.size, int(self._valid.sum())))
        # A link's capacity is its weakest hop's; links without hops
        # (nothing to fade) are excluded from the capacity statistic,
        # matching the per-link scalar path.
        hop_of_link = self.hops.link_index
        if hop_of_link.size:
            starts = np.flatnonzero(np.r_[True, np.diff(hop_of_link) != 0])
            link_fractions = np.minimum.reduceat(fractions, starts, axis=1)
        else:
            link_fractions = np.empty((days.size, 0))
        for k in range(days.size):
            # A hop's fraction is 0 iff its attenuation reaches the
            # hard margin — the attenuation array is already in hand,
            # so the failure rule is applied to it directly.
            failed = self._links_from_hop_mask(
                attenuation[k] >= hard_margin_db
            )
            per_interval[k] = self.stretches_for(failed) if failed else best
        capacity_loss = (
            float(np.mean(1.0 - link_fractions))
            if link_fractions.size
            else float("nan")
        )
        return per_interval, capacity_loss
