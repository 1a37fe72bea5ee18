"""The candidate-hop pipeline: spatial pruning -> cached, chunked LoS.

Feasible-hop enumeration is the scale bottleneck of the whole system:
the paper's US instantiation checks hundreds of thousands of candidate
tower pairs against terrain profiles.  This module stages that work so
each part is only done when (and once) it must be:

1. **Spatial pruning** — a :class:`~repro.geo.spatial.GridIndex` over
   the tower field discards every pair beyond
   ``RadioProfile.max_range_km`` before any terrain is sampled; only
   same-cell and neighbor-cell pairs are even distance-checked.
2. **Chunked LoS** — survivors flow through the vectorized batch
   checker in bounded chunks (memory stays flat no matter how many
   candidates), grouped by per-pair sample count so every hop gets its
   deterministic fidelity.
3. **Terrain-profile reuse** — a :class:`CachingLosChecker` memoizes
   terrain profiles and tower-base elevations in two entry-counted
   :class:`~repro.cache.LruCache` instances keyed by quantized
   endpoints, so re-enumerations over the same tower field (parameter
   sweeps over usable height, radio range, clutter...) skip the
   terrain model entirely.  Keying is array work: each batch is
   quantized (``np.rint``), direction-canonicalized and turned into
   keys in one NumPy pass, and probed and filled through the cache's
   batched ``get_many``/``put_many``, leaving the same contents,
   recency order and counters as keying one row at a time.

:func:`shared_pipeline` is the front door: its pipelines share the
terrain caches per terrain model.  ``HopPipeline(checker)`` builds one
over caller-owned caches.
"""

from __future__ import annotations

from itertools import compress, repeat

import numpy as np

from ..cache import LruCache
from ..geo.coords import haversine_km
from ..geo.terrain import TerrainModel
from ..towers.los import LosChecker, LosConfig, check_aligned
from ..towers.registry import TowerRegistry

#: LRU capacity: cached terrain profiles (one row per hop).  The
#: tower-base cache holds four times as many elevations.
PROFILE_CAPACITY = 200_000

#: Endpoint quantization for cache keys, degrees (~11 m).  Two
#: endpoints closer than this share cached terrain.
QUANT_DEG = 1e-4


class CachingLosChecker(LosChecker):
    """A :class:`LosChecker` that memoizes all terrain sampling.

    Terrain profiles are cached per hop, keyed by quantized endpoints
    and sample count; tower-base elevations are cached per point.  Hop
    keys are canonicalized (endpoint order does not matter — the
    reverse hop reuses the same profile, flipped), so A->B and B->A
    share one entry.

    The cache stores terrain heights, never feasibility, so every
    radio/height/clutter parameter still applies fresh.  Verdicts match
    the plain checker's up to the endpoint quantization: towers closer
    than :data:`QUANT_DEG` (~11 m) share cached terrain, so a marginal
    hop between near-coincident towers can resolve from the
    first-sampled tower's profile.  Real tower fields keep distinct
    towers far apart relative to this tolerance.
    """

    def __init__(self, terrain: TerrainModel, config: LosConfig | None = None):
        super().__init__(terrain, config)
        self._profiles = LruCache(PROFILE_CAPACITY)
        self._grounds = LruCache(4 * PROFILE_CAPACITY)

    @staticmethod
    def _quantize(degrees: np.ndarray) -> np.ndarray:
        """Integer cache codes: ``int(round(x / QUANT_DEG))`` per element."""
        return np.rint(degrees / QUANT_DEG).astype(np.int64)

    def cache_stats(self) -> dict[str, int]:
        """Profile/ground cache sizes and hit/miss counters."""
        return {
            "profile_entries": len(self._profiles),
            "profile_hits": self._profiles.hits,
            "profile_misses": self._profiles.misses,
            "ground_entries": len(self._grounds),
            "ground_hits": self._grounds.hits,
            "ground_misses": self._grounds.misses,
        }

    def profile_terrain_m(self, lat_a, lon_a, lat_b, lon_b, m: int) -> np.ndarray:
        check_aligned("endpoint", lat_a=lat_a, lon_a=lon_a, lat_b=lat_b, lon_b=lon_b)
        lat_a, lon_a, lat_b, lon_b = (
            np.asarray(v, dtype=float) for v in (lat_a, lon_a, lat_b, lon_b)
        )
        ya, xa, yb, xb = (self._quantize(v) for v in (lat_a, lon_a, lat_b, lon_b))
        # Canonical endpoint order, (lat, lon) lexicographic; the
        # interior sample grid is symmetric, so the reverse hop's
        # profile is the flip.
        flipped = (yb < ya) | ((yb == ya) & (xb < xa))
        ya, yb = np.where(flipped, yb, ya), np.where(flipped, ya, yb)
        xa, xb = np.where(flipped, xb, xa), np.where(flipped, xa, xb)
        keys = list(zip(
            zip(ya.tolist(), xa.tolist()), zip(yb.tolist(), xb.tolist()), repeat(m)
        ))
        hit, cached = self._profiles.get_many(keys)
        out = np.empty((len(keys), m), dtype=float)
        if cached:
            out[hit] = np.stack(cached)
            back = hit & flipped
            out[back] = out[back, ::-1]
        if not hit.all():
            miss = ~hit
            fresh = super().profile_terrain_m(
                lat_a[miss], lon_a[miss], lat_b[miss], lon_b[miss], m
            )
            out[miss] = fresh
            canonical = np.where(flipped[miss][:, None], fresh[:, ::-1], fresh)
            self._profiles.put_many(list(compress(keys, miss.tolist())), canonical)
        return out

    def ground_keys(self, lats, lons) -> tuple[np.ndarray, np.ndarray]:
        # The cache key: towers in one quantization cell share one ground
        # lookup per feasible_arrays call, so the first-asked tower's
        # elevation serves the cell, as if each endpoint were probed alone.
        return self._quantize(lats), self._quantize(lons)

    def ground_elevation_m(self, lats, lons) -> np.ndarray:
        check_aligned("coordinate", lats=lats, lons=lons)
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        keys = list(zip(self._quantize(lats).tolist(), self._quantize(lons).tolist()))
        hit, cached = self._grounds.get_many(keys)
        out = np.empty(len(keys), dtype=float)
        if cached:
            out[hit] = cached
        if not hit.all():
            miss = ~hit
            fresh = super().ground_elevation_m(lats[miss], lons[miss])
            out[miss] = fresh
            self._grounds.put_many(list(compress(keys, miss.tolist())), fresh.tolist())
        return out


class HopPipeline:
    """Reusable spatial-pruning + cached-LoS hop enumerator.

    One pipeline instance owns a checker (usually a
    :class:`CachingLosChecker`) whose terrain caches persist across
    :meth:`enumerate_hops` calls — the second enumeration over the same
    tower field is mostly cache hits.

    Args:
        checker: the LoS checker to drive.
    """

    def __init__(self, checker: LosChecker):
        self.checker = checker

    def candidate_pairs(self, registry: TowerRegistry) -> tuple[np.ndarray, np.ndarray]:
        """Spatially pruned tower pairs within radio range, (a, b) with a < b.

        The registry enumerates them on its own grid index and memoizes
        them per max range (:meth:`TowerRegistry.pairs_within`), so
        pipelines that differ only in usable height, clutter or profile
        sampling enumerate a registry's pairs once per process.  The
        arrays are read-only.
        """
        return registry.pairs_within(self.checker.config.radio.max_range_km)

    def feasible_mask(
        self,
        registry: TowerRegistry,
        cand_a: np.ndarray,
        cand_b: np.ndarray,
    ) -> np.ndarray:
        """LoS verdicts for candidate pair arrays, chunked and cached.

        Each verdict is the one its pair gets when checked alone: pairs
        are grouped by their deterministic per-pair sample count, so
        batch composition never changes an answer.
        """
        if len(cand_a) != len(cand_b):
            raise ValueError("candidate arrays must be aligned")
        if len(cand_a) == 0:
            return np.zeros(0, dtype=bool)
        lats, lons = registry.coordinates()
        heights = np.array([t.height_m for t in registry])
        return self.checker.feasible_arrays(
            lats[cand_a], lons[cand_a], heights[cand_a],
            lats[cand_b], lons[cand_b], heights[cand_b],
        )

    def enumerate_hops(self, registry: TowerRegistry):
        """The feasible hop graph for a registry.

        Returns a :class:`~repro.towers.hops.HopGraph`; equivalent to
        checking every O(n^2) pair but only terrain-samples pairs the
        spatial index cannot rule out.
        """
        from ..towers.hops import HopGraph

        cand_a, cand_b = self.candidate_pairs(registry)
        ok = self.feasible_mask(registry, cand_a, cand_b)
        edges_a, edges_b = cand_a[ok], cand_b[ok]
        # Sort edges for a canonical, order-independent graph.
        if len(edges_a):
            order = np.lexsort((edges_b, edges_a))
            edges_a, edges_b = edges_a[order], edges_b[order]
        lats, lons = registry.coordinates()
        lengths = (
            haversine_km(lats[edges_a], lons[edges_a], lats[edges_b], lons[edges_b])
            if len(edges_a)
            else np.zeros(0)
        )
        return HopGraph(
            n_towers=len(registry),
            edges_a=edges_a,
            edges_b=edges_b,
            lengths_km=np.atleast_1d(lengths),
        )


#: Shared terrain caches, keyed by terrain model.  TerrainModel is a
#: frozen value type, so equal terrains share caches even across
#: separately constructed instances.
_SHARED_TERRAIN_CACHES: dict[TerrainModel, tuple[LruCache, LruCache]] = {}


def shared_pipeline(terrain: TerrainModel, config: LosConfig | None = None) -> HopPipeline:
    """A pipeline whose terrain caches are shared per terrain model.

    Scenario assembly (:func:`repro.scenarios.build_scenario`) uses this
    so parameter sweeps (usable height fraction, radio range, clutter...)
    over the same geography reuse every terrain profile and tower-base
    elevation already sampled.  The two caches live for the process, one
    pair per terrain, compared by value; they store terrain heights only,
    which are config-independent, while each returned pipeline still
    applies its own :class:`LosConfig` to the verdicts.  Candidate pairs are
    memoized on the registry instead (:meth:`HopPipeline.candidate_pairs`).
    """
    checker = CachingLosChecker(terrain, config)
    checker._profiles, checker._grounds = _SHARED_TERRAIN_CACHES.setdefault(
        terrain, (checker._profiles, checker._grounds)
    )
    return HopPipeline(checker)
