"""Line-of-sight hop feasibility (paper §3.1 and §6.5).

A microwave hop between two towers is feasible when the sight line
between the two antennae clears, at every interior sample point,

    terrain + clutter + Earth-bulge + first-Fresnel-zone radius.

Antennae are mounted at ``usable_height_fraction`` of the tower height
(§6.5 explores fractions below 1.0 when the tower top is unavailable).
Hops longer than the radio's maximum range are infeasible outright.

The batch checker vectorizes the profile sampling across many candidate
pairs at once, which is what makes continental-scale hop enumeration
tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo.coords import EARTH_RADIUS_KM, haversine_km
from ..geo.fresnel import RadioProfile
from ..geo.terrain import TerrainModel

#: Ground clutter allowance (trees, low buildings) on top of bare
#: terrain, metres.  The paper's NASA dataset embeds canopy height; we
#: carry it as an explicit constant.
DEFAULT_CLUTTER_M = 12.0

#: Pairs per vectorized LoS batch: bounds the (pairs, samples) arrays
#: no matter how many candidates one call checks.
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class LosConfig:
    """Feasibility-check parameters.

    Attributes:
        radio: physical-layer constants (frequency, K-factor, range).
        usable_height_fraction: fraction of the tower height available
            for mounting (1.0 = the top; §6.5 tests 0.85/0.65/0.45).
        clutter_m: clutter allowance added to terrain.
        sample_spacing_km: terrain sampling interval along the profile.
        min_samples: minimum interior profile samples per hop.
        max_samples: cap on per-hop samples (memory bound in batches).
    """

    radio: RadioProfile = RadioProfile()
    usable_height_fraction: float = 1.0
    clutter_m: float = DEFAULT_CLUTTER_M
    sample_spacing_km: float = 3.0
    min_samples: int = 9
    max_samples: int = 48

    def __post_init__(self) -> None:
        if not 0.0 < self.usable_height_fraction <= 1.0:
            raise ValueError("usable height fraction must be in (0, 1]")
        if self.clutter_m < 0:
            raise ValueError("clutter must be non-negative")
        if self.min_samples < 3:
            raise ValueError("need at least 3 samples")


def check_aligned(what: str, **arrays) -> None:
    """Raise a ``ValueError`` giving each array's length (or its shape,
    if not 1-D) unless all are 1-D of one length.

    ``what`` names the arrays in the message, and each keyword its
    argument: misaligned arrays would otherwise broadcast to a wrong
    shape or fail deep inside NumPy indexing.
    """
    shapes = {name: np.shape(v) for name, v in arrays.items()}
    first = next(iter(shapes.values()))
    if len(first) != 1 or any(s != first for s in shapes.values()):
        got = ", ".join(
            f"{name}={s[0]}" if len(s) == 1 else f"{name}=shape {s}"
            for name, s in shapes.items()
        )
        raise ValueError(f"{what} arrays must be 1-D and of one length, got {got}")


def _unit_vectors(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """(n, 3) unit vectors on the sphere for coordinate arrays."""
    phi = np.radians(lats)
    lam = np.radians(lons)
    return np.stack(
        [np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=-1
    )


def profile_sample_points(
    lat_a: np.ndarray,
    lon_a: np.ndarray,
    lat_b: np.ndarray,
    lon_b: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Interior great-circle sample coordinates for aligned endpoint arrays.

    Returns (sample_lats, sample_lons), each of shape (n, m).  Fractions
    exclude the endpoints (towers clear themselves); interpolation is
    spherical (slerp), exact on the sphere.
    """
    lat_a = np.atleast_1d(np.asarray(lat_a, dtype=float))
    lon_a = np.atleast_1d(np.asarray(lon_a, dtype=float))
    lat_b = np.atleast_1d(np.asarray(lat_b, dtype=float))
    lon_b = np.atleast_1d(np.asarray(lon_b, dtype=float))
    d = np.atleast_1d(haversine_km(lat_a, lon_a, lat_b, lon_b))
    t_frac = np.linspace(0.0, 1.0, m + 2)[1:-1]
    va = _unit_vectors(lat_a, lon_a)
    vb = _unit_vectors(lat_b, lon_b)
    omega = d / EARTH_RADIUS_KM
    sin_omega = np.sin(omega)
    sin_omega = np.where(sin_omega < 1e-12, 1.0, sin_omega)
    wa = np.sin((1.0 - t_frac)[None, :] * omega[:, None]) / sin_omega[:, None]
    wb = np.sin(t_frac[None, :] * omega[:, None]) / sin_omega[:, None]
    pts = wa[..., None] * va[:, None, :] + wb[..., None] * vb[:, None, :]
    norm = np.linalg.norm(pts, axis=-1, keepdims=True)
    pts = pts / np.where(norm > 0, norm, 1.0)
    sample_lats = np.degrees(np.arcsin(np.clip(pts[..., 2], -1.0, 1.0)))
    sample_lons = np.degrees(np.arctan2(pts[..., 1], pts[..., 0]))
    return sample_lats, sample_lons


class LosChecker:
    """Vectorized line-of-sight feasibility for tower pairs.

    Terrain access goes through :meth:`profile_terrain_m` and
    :meth:`ground_elevation_m`, which subclasses may override — the
    candidate-hop pipeline's :class:`~repro.core.pipeline.CachingLosChecker`
    memoizes them so repeated enumerations (parameter sweeps, reruns)
    skip the terrain sampling entirely.
    """

    def __init__(self, terrain: TerrainModel, config: LosConfig | None = None):
        self.terrain = terrain
        self.config = config or LosConfig()

    def sample_count(self, distance_km) -> np.ndarray:
        """Interior profile samples for hops of the given length(s).

        Deterministic per pair (independent of batch composition), so a
        hop's verdict is the same whether it is checked alone or inside
        any batch.
        """
        cfg = self.config
        d = np.asarray(distance_km, dtype=float)
        return np.clip(
            np.ceil(d / cfg.sample_spacing_km), cfg.min_samples, cfg.max_samples
        ).astype(int)

    def profile_terrain_m(
        self,
        lat_a: np.ndarray,
        lon_a: np.ndarray,
        lat_b: np.ndarray,
        lon_b: np.ndarray,
        m: int,
    ) -> np.ndarray:
        """Terrain heights at the m interior samples of each hop, (n, m)."""
        check_aligned("endpoint", lat_a=lat_a, lon_a=lon_a, lat_b=lat_b, lon_b=lon_b)
        sample_lats, sample_lons = profile_sample_points(lat_a, lon_a, lat_b, lon_b, m)
        n = sample_lats.shape[0]
        return self.terrain.elevation_m(
            sample_lats.ravel(), sample_lons.ravel()
        ).reshape(n, m)

    def ground_elevation_m(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Terrain heights at tower bases, (n,)."""
        check_aligned("coordinate", lats=lats, lons=lons)
        return self.terrain.elevation_m(lats, lons)

    def ground_keys(self, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-tower-base ``(y, x)`` keys: equal keys share one ground lookup.

        :meth:`feasible_arrays` looks each distinct key up once per
        call.  Here the key is the exact coordinate pair; a caching
        subclass keys by its cache key instead.
        """
        return lats, lons

    def feasible_arrays(
        self,
        lat_a: np.ndarray,
        lon_a: np.ndarray,
        h_a: np.ndarray,
        lat_b: np.ndarray,
        lon_b: np.ndarray,
        h_b: np.ndarray,
    ) -> np.ndarray:
        """Feasibility mask for aligned endpoint coordinate/height arrays.

        Pairs beyond the radio range are infeasible.  The rest are
        grouped by their deterministic per-pair :meth:`sample_count`
        and checked in vectorized batches of at most :data:`CHUNK_SIZE`
        pairs, so verdicts are batch-invariant (a pair checked alone or
        inside any batch gets the same answer) and memory stays flat on
        huge candidate sets.

        Tower-base elevations are looked up once per distinct
        :meth:`ground_keys` key, in one :meth:`ground_elevation_m` call
        ordered as the chunk loop first reaches each key (a chunk's
        a-ends, then its b-ends), and gathered per pair.  The six arrays
        must be 1-D of one length, or a ``ValueError`` gives each length.
        """
        check_aligned(
            "endpoint", lat_a=lat_a, lon_a=lon_a, h_a=h_a, lat_b=lat_b, lon_b=lon_b, h_b=h_b
        )
        cfg = self.config
        dist = np.atleast_1d(haversine_km(lat_a, lon_a, lat_b, lon_b))
        n = len(dist)
        in_range = (dist <= cfg.radio.max_range_km) & (dist > 1e-6)
        result = np.zeros(n, dtype=bool)
        if not in_range.any():
            return result
        samples = self.sample_count(dist)
        chunks: list[tuple[int, np.ndarray]] = []
        for m in np.unique(samples[in_range]):
            idx = np.where(in_range & (samples == m))[0]
            chunks.extend(
                (int(m), idx[start : start + CHUNK_SIZE]) for start in range(0, len(idx), CHUNK_SIZE)
            )
        ground = self._chunk_grounds(lat_a, lon_a, lat_b, lon_b, [sl for _, sl in chunks])
        start = 0
        for m, sl in chunks:
            mid, stop = start + len(sl), start + 2 * len(sl)
            result[sl] = self._feasible_at_samples(
                lat_a[sl], lon_a[sl], h_a[sl], ground[start:mid],
                lat_b[sl], lon_b[sl], h_b[sl], ground[mid:stop],
                dist[sl], m,
            )
            start = stop
        return result

    def _chunk_grounds(self, lat_a, lon_a, lat_b, lon_b, chunks: list[np.ndarray]) -> np.ndarray:
        """Tower-base elevations of every chunk's a-ends, then its b-ends.

        One :meth:`ground_elevation_m` call over the distinct
        :meth:`ground_keys`, in the order this layout first reaches
        them, gathered back per end.
        """
        end_lat = np.concatenate([v[sl] for sl in chunks for v in (lat_a, lat_b)])
        end_lon = np.concatenate([v[sl] for sl in chunks for v in (lon_a, lon_b)])
        # A (y, x) key pair as one complex scalar: np.unique compares both parts.
        keys = np.empty(len(end_lat), dtype=complex)
        keys.real, keys.imag = self.ground_keys(end_lat, end_lon)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        asked = first[order]  # each key's first end, in ask order
        per_key = np.empty(len(first))
        per_key[order] = self.ground_elevation_m(end_lat[asked], end_lon[asked])
        return per_key[inverse]

    def _feasible_at_samples(
        self,
        lat_a: np.ndarray,
        lon_a: np.ndarray,
        h_a: np.ndarray,
        ground_a: np.ndarray,
        lat_b: np.ndarray,
        lon_b: np.ndarray,
        h_b: np.ndarray,
        ground_b: np.ndarray,
        d: np.ndarray,
        m: int,
    ) -> np.ndarray:
        """Verdicts for in-range pairs sharing one interior sample count."""
        cfg = self.config
        t_frac = np.linspace(0.0, 1.0, m + 2)[1:-1]
        terrain_m = self.profile_terrain_m(lat_a, lon_a, lat_b, lon_b, m)

        # Antenna altitudes at both ends.
        alt_a = ground_a + h_a * cfg.usable_height_fraction
        alt_b = ground_b + h_b * cfg.usable_height_fraction

        # Sight-line altitude at each sample (linear in along-path distance).
        sight = alt_a[:, None] + (alt_b - alt_a)[:, None] * t_frac[None, :]
        d1 = d[:, None] * t_frac[None, :]
        d2 = d[:, None] * (1.0 - t_frac[None, :])
        clearance = cfg.radio.clearance_m(d1, d2)
        obstruction = terrain_m + cfg.clutter_m + clearance
        return np.all(sight >= obstruction, axis=1)
