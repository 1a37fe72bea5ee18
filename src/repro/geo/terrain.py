"""Synthetic terrain elevation model (substitute for NASA SRTM/NED data).

The paper assesses microwave hop feasibility against the NASA SRTM/NED
elevation dataset (which includes ground clutter and tree canopy).  That
dataset is tens of gigabytes and unavailable offline, so we substitute a
deterministic procedural elevation field with the properties the
line-of-sight engine actually consumes:

* smooth multi-octave relief with realistic amplitudes (plains tens of
  metres, hills hundreds, mountain belts thousands);
* named mountain ridges placed where the real ones are (Rockies,
  Sierra Nevada, Appalachians, Alps, ...), so hop feasibility varies
  geographically the way the paper reports (e.g., the long
  Illinois-California link crosses the Rockies through low tower
  density);
* determinism: the same (lat, lon, seed) always yields the same
  elevation, so experiments are reproducible.

Elevations are metres above a nominal sea level and are never negative.

Large queries are evaluated in fixed blocks of ``_BLOCK_POINTS`` points.
Each value-noise pass of the formula (5 base octaves, then 3 per ridge:
17 passes for the US terrain) allocates dozens of 8-byte temporaries
the size of its input.  At LoS-batch sizes (up to ~135k points per
call) those stream through main memory, while a block's temporaries
stay in a core's L2 cache and cost about half as much per point.
Blocking is exact: every operation in the formula acts on each point
alone, with no reduction across points, so any partition of the points
yields the same bits.

Two more exact savings ride on the blocks.  A ridge adds
``crest * rough`` (``crest`` = height x envelope, ``0.55 <= rough <= 1``)
to the running elevation ``e``; where ``crest`` is below half an ulp of
a positive ``e`` the sum rounds back to ``e``, so the ridge's 3-octave
roughness noise is skipped there.  And when a block's value-noise
lattice box has no more cells than the block has points, the lattice
corners are hashed once into a table and gathered from it, instead of
hashing four corners per point; both read the same integer hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coords import GeoPoint, great_circle_points

#: Kilometres per degree of latitude (spherical Earth).
_KM_PER_DEG_LAT = 111.19

#: 8,192 points: each 64 KiB temporary stays in L2 at the fewest NumPy calls (fastest measured).
_BLOCK_POINTS = 8192

#: Lattice cells per point up to which value noise hashes a table of its
#: lattice box instead of four corners per point.  At 1 the table costs at
#: most a quarter of the per-point hashes; on the flagship LoS blocks 0.25,
#: 2 and 4 measured within noise of it.
_TABLE_CELLS_PER_POINT = 1.0


def _mix_hash(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic integer hash of lattice coordinates to [0, 1)."""
    seed_mix = np.uint64((seed * 0x165667B19E3779F9) % (1 << 64))
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ seed_mix
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


def _value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Bilinear-interpolated lattice value noise in [0, 1)."""
    x0 = np.floor(x)
    y0 = np.floor(y)
    tx = _smoothstep(x - x0)
    ty = _smoothstep(y - y0)
    ix0 = x0.astype(np.int64)
    iy0 = y0.astype(np.int64)
    if ix0.size:
        # Python ints: NaN coordinates cast to int64's minimum, whose box
        # would overflow int64 (and is far too large for a table).
        x_min, y_min = int(ix0.min()), int(iy0.min())
        width = int(ix0.max()) - x_min + 2
        cells = width * (int(iy0.max()) - y_min + 2)
    if ix0.size and cells <= _TABLE_CELLS_PER_POINT * ix0.size:
        row, col = np.divmod(np.arange(cells), width)
        table = _mix_hash(col + x_min, row + y_min, seed)
        at = (iy0 - y_min) * width + (ix0 - x_min)
        v00 = table[at]
        v10 = table[at + 1]
        v01 = table[at + width]
        v11 = table[at + width + 1]
    else:
        v00 = _mix_hash(ix0, iy0, seed)
        v10 = _mix_hash(ix0 + 1, iy0, seed)
        v01 = _mix_hash(ix0, iy0 + 1, seed)
        v11 = _mix_hash(ix0 + 1, iy0 + 1, seed)
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * ty


#: Per-octave amplitude and frequency factors of :func:`fractal_noise`.
NOISE_PERSISTENCE = 0.5
NOISE_LACUNARITY = 2.0


def fractal_noise(
    x: np.ndarray, y: np.ndarray, octaves: int = 5, seed: int = 0
) -> np.ndarray:
    """Multi-octave value noise normalized to [0, 1)."""
    total = np.zeros_like(np.asarray(x, dtype=float))
    amplitude = 1.0
    frequency = 1.0
    norm = 0.0
    for octave in range(octaves):
        total += amplitude * _value_noise(x * frequency, y * frequency, seed + octave)
        norm += amplitude
        amplitude *= NOISE_PERSISTENCE
        frequency *= NOISE_LACUNARITY
    return total / norm


@dataclass(frozen=True)
class MountainRidge:
    """A mountain belt modelled as a Gaussian wall along a polyline.

    Attributes:
        name: human-readable label (e.g., "Rockies").
        waypoints: polyline of (lat, lon) pairs tracing the ridge crest.
        height_m: peak crest height above the surrounding base level.
        width_km: e-folding half-width of the belt.
    """

    name: str
    waypoints: tuple[tuple[float, float], ...]
    height_m: float
    width_km: float

    def __post_init__(self) -> None:
        # A one-point polyline has no segment (distance inf: the ridge
        # vanishes), and a zero width or a non-finite height makes NaN
        # heights, which silently fail every LoS comparison.
        if len(self.waypoints) < 2:
            raise ValueError(
                f"MountainRidge {self.name!r}: waypoints needs at least 2 "
                f"(lat, lon) points, got {len(self.waypoints)}"
            )
        if not self.width_km > 0:
            raise ValueError(
                f"MountainRidge {self.name!r}: width_km must be > 0, got {self.width_km!r}"
            )
        if not (np.isfinite(self.height_m) and self.height_m >= 0):
            raise ValueError(
                f"MountainRidge {self.name!r}: height_m must be finite and >= 0, "
                f"got {self.height_m!r}"
            )

    def distance_km(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Approximate distance from query points to the ridge polyline.

        Uses a local equirectangular projection per segment, accurate to
        a few percent at the few-hundred-km scales that matter for the
        ridge envelope.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        best = np.full(lats.shape, np.inf)
        pts = self.waypoints
        for (lat_a, lon_a), (lat_b, lon_b) in zip(pts[:-1], pts[1:]):
            mean_lat = np.radians((lat_a + lat_b) / 2.0)
            kx = _KM_PER_DEG_LAT * np.cos(mean_lat)
            ax, ay = lon_a * kx, lat_a * _KM_PER_DEG_LAT
            bx, by = lon_b * kx, lat_b * _KM_PER_DEG_LAT
            px = lons * kx
            py = lats * _KM_PER_DEG_LAT
            dx, dy = bx - ax, by - ay
            seg_len_sq = dx * dx + dy * dy
            if seg_len_sq <= 0:
                t = np.zeros_like(px)
            else:
                t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len_sq, 0.0, 1.0)
            cx = ax + t * dx
            cy = ay + t * dy
            dist = np.hypot(px - cx, py - cy)
            best = np.minimum(best, dist)
        return best


@dataclass(frozen=True)
class TerrainModel:
    """Deterministic procedural elevation field.

    Attributes:
        seed: noise seed; the same seed reproduces the same terrain.
        base_m: mean elevation of the gently rolling base relief.
        relief_m: peak-to-peak amplitude of the base relief.
        noise_scale_deg: spatial scale (degrees per noise cell) of the
            base relief's lowest octave.
        ridges: mountain belts superimposed on the base relief.
    """

    seed: int = 7
    base_m: float = 120.0
    relief_m: float = 380.0
    noise_scale_deg: float = 1.6
    ridges: tuple[MountainRidge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.noise_scale_deg > 0:
            raise ValueError(
                f"TerrainModel: noise_scale_deg must be > 0, got {self.noise_scale_deg!r}"
            )
        # Non-finite levels make NaN elevations, which silently fail
        # every LoS comparison.
        if not np.isfinite(self.base_m):
            raise ValueError(f"TerrainModel: base_m must be finite, got {self.base_m!r}")
        if not (np.isfinite(self.relief_m) and self.relief_m >= 0):
            raise ValueError(
                f"TerrainModel: relief_m must be finite and >= 0, got {self.relief_m!r}"
            )

    def elevation_m(self, lats, lons) -> np.ndarray:
        """Elevation in metres at the query coordinates (vectorized).

        ``lats`` and ``lons`` broadcast against each other; the result
        has their broadcast shape, at least 1-D.  Points are evaluated
        in blocks of ``_BLOCK_POINTS`` (8,192: the fastest block size
        measured on LoS-batch-sized inputs, whose noise temporaries fit
        a core's L2 cache) into one preallocated output.  The formula
        works point by point, so the result is bit-identical to
        evaluating all points at once.
        """
        lats, lons = np.broadcast_arrays(
            np.atleast_1d(np.asarray(lats, dtype=float)),
            np.atleast_1d(np.asarray(lons, dtype=float)),
        )
        flat_lats = lats.ravel()
        flat_lons = lons.ravel()
        out = np.empty(flat_lats.size)
        for start in range(0, out.size, _BLOCK_POINTS):
            stop = start + _BLOCK_POINTS
            out[start:stop] = self._elevation_block(flat_lats[start:stop], flat_lons[start:stop])
        return out.reshape(lats.shape)

    def _elevation_block(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Elevation in metres at 1-D arrays of points, all at once."""
        x = lons / self.noise_scale_deg
        y = lats / self.noise_scale_deg
        elevation = self.base_m + self.relief_m * fractal_noise(x, y, octaves=5, seed=self.seed)
        for i, ridge in enumerate(self.ridges):
            dist = ridge.distance_km(lats, lons)
            crest = ridge.height_m * np.exp(-((dist / ridge.width_km) ** 2))
            # Adding crest * rough <= crest below half an ulp of a
            # positive elevation rounds back to it; NaN is never skipped.
            need = np.flatnonzero(~((crest < 0.5 * np.spacing(elevation)) & (elevation > 0)))
            # Ruggedness: crest height varies along the belt.
            rough = 0.55 + 0.45 * fractal_noise(
                x[need] * 3.0, y[need] * 3.0, octaves=3, seed=self.seed + 101 + i
            )
            elevation[need] = elevation[need] + crest[need] * rough
        return np.maximum(elevation, 0.0)

    def profile(
        self, p1: GeoPoint, p2: GeoPoint, n_samples: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Terrain profile along the great circle from ``p1`` to ``p2``.

        Returns (lats, lons, elevations_m), each of shape (n_samples,),
        including the endpoints.
        """
        lats, lons = great_circle_points(p1, p2, n_samples)
        return lats, lons, self.elevation_m(lats, lons)


def us_terrain(seed: int = 7) -> TerrainModel:
    """Terrain model for the contiguous United States."""
    return TerrainModel(
        seed=seed,
        base_m=150.0,
        relief_m=420.0,
        noise_scale_deg=1.7,
        ridges=(
            MountainRidge(
                "Rockies",
                ((48.8, -115.0), (44.5, -110.5), (39.5, -106.0), (35.5, -105.8)),
                height_m=2400.0,
                width_km=260.0,
            ),
            MountainRidge(
                "Sierra Nevada",
                ((40.5, -121.3), (37.5, -119.0), (35.8, -118.2)),
                height_m=2300.0,
                width_km=90.0,
            ),
            MountainRidge(
                "Cascades",
                ((48.8, -121.4), (44.0, -121.8), (41.5, -122.2)),
                height_m=1900.0,
                width_km=90.0,
            ),
            MountainRidge(
                "Appalachians",
                ((43.0, -73.2), (40.5, -77.5), (37.5, -80.5), (35.0, -83.5)),
                height_m=900.0,
                width_km=130.0,
            ),
        ),
    )


def europe_terrain(seed: int = 11) -> TerrainModel:
    """Terrain model for Europe."""
    return TerrainModel(
        seed=seed,
        base_m=120.0,
        relief_m=360.0,
        noise_scale_deg=1.5,
        ridges=(
            MountainRidge(
                "Alps",
                ((45.2, 6.0), (46.3, 8.5), (47.0, 11.0), (46.5, 13.8)),
                height_m=2600.0,
                width_km=130.0,
            ),
            MountainRidge(
                "Pyrenees",
                ((43.1, -1.8), (42.6, 0.8), (42.4, 2.8)),
                height_m=2000.0,
                width_km=70.0,
            ),
            MountainRidge(
                "Carpathians",
                ((49.3, 19.8), (48.0, 24.0), (45.7, 25.4)),
                height_m=1500.0,
                width_km=110.0,
            ),
            MountainRidge(
                "Scandes",
                ((59.5, 7.5), (63.0, 11.0), (67.5, 16.5)),
                height_m=1400.0,
                width_km=150.0,
            ),
            MountainRidge(
                "Apennines",
                ((44.4, 8.8), (42.5, 13.3), (40.5, 15.8)),
                height_m=1400.0,
                width_km=70.0,
            ),
        ),
    )


def flat_terrain(elevation_m: float = 0.0) -> TerrainModel:
    """A perfectly flat terrain (useful for tests and calibration)."""
    return TerrainModel(seed=0, base_m=elevation_m, relief_m=0.0, ridges=())
