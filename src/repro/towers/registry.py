"""Tower registry: storage, culling, and spatial queries.

Substitute for the FCC Antenna Structure Registration database plus the
commercial rental-company databases (American Towers, Crown Castle, ...)
used in §4.  A :class:`TowerRegistry` holds towers and implements the
paper's culling rules:

* rental-company towers are always kept ("typically suitable for use");
* FCC towers are kept only above a height threshold (paper: 100 m);
* when density exceeds a cap per 0.5-degree grid cell, towers are
  randomly sampled down to the cap.

A simple uniform grid index provides radius queries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..geo.coords import GeoPoint
from ..geo.spatial import KM_PER_DEG_LAT, GridIndex

#: Paper's FCC height cutoff, metres.
DEFAULT_MIN_FCC_HEIGHT_M = 100.0

#: Paper's density cap: 50 towers per 0.5-degree square grid cell.
DEFAULT_DENSITY_CAP = 50
DEFAULT_DENSITY_CELL_DEG = 0.5

#: Cell edge of the registry's spatial index, degrees of latitude.
INDEX_CELL_DEG = 0.5


@dataclass(frozen=True)
class Tower:
    """A transmission tower.

    Attributes:
        tower_id: unique integer id within a registry.
        lat: latitude, degrees.
        lon: longitude, degrees.
        height_m: structural height above ground.
        source: provenance tag, "fcc" or "rental".
    """

    tower_id: int
    lat: float
    lon: float
    height_m: float
    source: str = "fcc"

    def __post_init__(self) -> None:
        if self.height_m <= 0:
            raise ValueError("tower height must be positive")
        if self.source not in ("fcc", "rental", "city"):
            raise ValueError(f"unknown tower source {self.source!r}")

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


class TowerRegistry:
    """An indexed collection of towers with the paper's culling rules.

    Pair enumerations are memoized per range (:meth:`pairs_within`).
    The memo is derived data: pickles and deep copies leave it out.
    """

    def __init__(self, towers: list[Tower]):
        self._towers = list(towers)
        self._index: GridIndex | None = None
        if self._towers:
            lats = np.array([t.lat for t in self._towers])
            lons = np.array([t.lon for t in self._towers])
            self._index = GridIndex(lats, lons, radius_km=INDEX_CELL_DEG * KM_PER_DEG_LAT)
        self._pairs: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def __getstate__(self) -> dict:
        # The pair memo is derived data: keep it out of pickles (the
        # artifact store serializes scenarios) and deep copies.
        state = dict(self.__dict__)
        state.pop("_pairs", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pairs = {}

    def pairs_within(self, max_range_km: float) -> tuple[np.ndarray, np.ndarray]:
        """Tower pairs within ``max_range_km``, as (a, b) arrays with a < b.

        Enumerated once per range on the registry's grid index (queries
        at radii other than the build radius remain exact) and memoized,
        so hop enumerations that share a radio range share the pairs.
        The arrays are read-only.
        """
        key = float(max_range_km)
        pairs = self._pairs.get(key)
        if pairs is None:
            if self._index is None:
                pairs = (np.zeros(0, dtype=int), np.zeros(0, dtype=int))
            else:
                pairs = self._index.pairs_within(key)
            for arr in pairs:
                arr.setflags(write=False)
            self._pairs[key] = pairs
        return pairs

    def __len__(self) -> int:
        return len(self._towers)

    def __iter__(self):
        return iter(self._towers)

    def __getitem__(self, tower_id: int) -> Tower:
        return self._towers[tower_id]

    @property
    def towers(self) -> list[Tower]:
        return list(self._towers)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(lats, lons) arrays over all towers, in registry order."""
        lats = np.array([t.lat for t in self._towers])
        lons = np.array([t.lon for t in self._towers])
        return lats, lons

    def near(self, point: GeoPoint, radius_km: float) -> list[Tower]:
        """All towers within ``radius_km`` of ``point``."""
        if radius_km < 0:
            raise ValueError("radius must be non-negative")
        if self._index is None:
            return []
        idx = self._index.query_radius(point.lat, point.lon, radius_km)
        return [self._towers[i] for i in sorted(idx)]

    def count_near(self, point: GeoPoint, radius_km: float) -> int:
        """Number of towers within ``radius_km`` of ``point``."""
        return len(self.near(point, radius_km))


@dataclass(frozen=True)
class CullingPolicy:
    """The paper's database-culling parameters (§4).

    Attributes:
        min_fcc_height_m: keep FCC towers only above this height.
        density_cap: max towers kept per grid cell.
        density_cell_deg: grid cell edge, degrees.
        seed: RNG seed for the random down-sampling step.
    """

    min_fcc_height_m: float = DEFAULT_MIN_FCC_HEIGHT_M
    density_cap: int = DEFAULT_DENSITY_CAP
    density_cell_deg: float = DEFAULT_DENSITY_CELL_DEG
    seed: int = 0


def cull_towers(towers: list[Tower], policy: CullingPolicy | None = None) -> list[Tower]:
    """Apply the paper's culling rules and return the surviving towers.

    Ids are re-assigned contiguously so the result can seed a fresh
    :class:`TowerRegistry`.
    """
    policy = policy or CullingPolicy()
    eligible = [
        t
        for t in towers
        if t.source in ("rental", "city") or t.height_m >= policy.min_fcc_height_m
    ]
    cells: dict[tuple[int, int], list[Tower]] = defaultdict(list)
    for t in eligible:
        key = (
            int(np.floor(t.lat / policy.density_cell_deg)),
            int(np.floor(t.lon / policy.density_cell_deg)),
        )
        cells[key].append(t)
    rng = np.random.default_rng(policy.seed)
    kept: list[Tower] = []
    for key in sorted(cells):
        group = cells[key]
        if len(group) > policy.density_cap:
            chosen = rng.choice(len(group), size=policy.density_cap, replace=False)
            group = [group[i] for i in sorted(chosen)]
        kept.extend(group)
    return [
        Tower(tower_id=i, lat=t.lat, lon=t.lon, height_m=t.height_m, source=t.source)
        for i, t in enumerate(kept)
    ]
