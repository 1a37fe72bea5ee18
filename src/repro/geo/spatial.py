"""Grid-bucket spatial index for lat/lon point sets.

Continental-scale hop enumeration must avoid the O(n^2) pairwise
distance scan: with tens of thousands of towers only a tiny fraction of
pairs are within radio range.  :class:`GridIndex` buckets points into a
uniform lat/lon grid whose cell edge is matched to the query radius, so
radius queries and all-pairs-within-range enumeration only touch
neighboring cells.

The index is exact, not approximate: candidate sets from the grid are
always post-filtered by true great-circle distance, so callers get
precisely the pairs a brute-force scan would find (see
:func:`brute_force_pairs_within`, the oracle the test suite compares
against).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .coords import haversine_km

#: Kilometres per degree of latitude (spherical Earth).
KM_PER_DEG_LAT = 110.0

#: Smallest permitted grid cell, degrees (guards against degenerate
#: cells when the query radius is tiny).
MIN_CELL_DEG = 0.05


class GridIndex:
    """A uniform lat/lon grid over a fixed set of points.

    The cell edge is sized so that any two points within ``radius_km``
    of each other fall in the same or adjacent cells (with the
    longitude reach widened at high latitude, where meridians
    converge).

    Args:
        lats: point latitudes, degrees, shape (n,).
        lons: point longitudes, degrees, shape (n,).
        radius_km: the query radius the grid is tuned for.  Queries at
            larger radii remain correct but scan more cells.
    """

    def __init__(self, lats, lons, radius_km: float):
        if radius_km <= 0:
            raise ValueError("radius must be positive")
        self.lats = np.atleast_1d(np.asarray(lats, dtype=float))
        self.lons = np.atleast_1d(np.asarray(lons, dtype=float))
        if self.lats.shape != self.lons.shape:
            raise ValueError("lat/lon arrays must be aligned")
        self.radius_km = float(radius_km)
        self.cell_deg = max(radius_km / KM_PER_DEG_LAT, MIN_CELL_DEG)
        self._buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
        ci = np.floor(self.lats / self.cell_deg).astype(int)
        cj = np.floor(self.lons / self.cell_deg).astype(int)
        for k in range(len(self.lats)):
            self._buckets[(int(ci[k]), int(cj[k]))].append(k)
        self._cell_i = ci
        self._cell_j = cj

    def __len__(self) -> int:
        return len(self.lats)

    def _lon_reach(self, radius_km: float, at_lat: float) -> int:
        """Cells of longitude reach covering ``radius_km`` at a latitude."""
        cos_lat = max(np.cos(np.radians(min(abs(at_lat), 85.0))), 0.1)
        return int(np.ceil(radius_km / (KM_PER_DEG_LAT * cos_lat * self.cell_deg)))

    def query_radius(self, lat: float, lon: float, radius_km: float | None = None) -> np.ndarray:
        """Indices of all points within ``radius_km`` of (lat, lon).

        Defaults to the radius the index was built for.  Exact: grid
        candidates are filtered by true great-circle distance.
        """
        r = self.radius_km if radius_km is None else float(radius_km)
        if r < 0:
            raise ValueError("radius must be non-negative")
        lat_reach = int(np.ceil(r / (KM_PER_DEG_LAT * self.cell_deg)))
        lon_reach = self._lon_reach(r, lat)
        ci = int(np.floor(lat / self.cell_deg))
        cj = int(np.floor(lon / self.cell_deg))
        cand: list[int] = []
        for di in range(-lat_reach, lat_reach + 1):
            for dj in range(-lon_reach, lon_reach + 1):
                cand.extend(self._buckets.get((ci + di, cj + dj), ()))
        if not cand:
            return np.zeros(0, dtype=int)
        idx = np.array(cand, dtype=int)
        dist = haversine_km(lat, lon, self.lats[idx], self.lons[idx])
        return idx[np.atleast_1d(dist) <= r]

    def pairs_within(self, max_range_km: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """All point pairs within ``max_range_km``, as aligned (a, b) arrays.

        Returns exactly the pairs a brute-force O(n^2) scan would find,
        with a < b, but only examines same-cell and neighboring-cell
        candidates.  Pair order within the arrays is unspecified.
        """
        r = self.radius_km if max_range_km is None else float(max_range_km)
        if r < 0:
            raise ValueError("range must be non-negative")
        n = len(self.lats)
        if n == 0:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        lat_reach = int(np.ceil(r / (KM_PER_DEG_LAT * self.cell_deg)))
        max_abs_lat = min(float(np.abs(self.lats).max()) + 1.0, 85.0)
        lon_reach = self._lon_reach(r, max_abs_lat)
        pair_a: list[np.ndarray] = []
        pair_b: list[np.ndarray] = []
        for (ci, cj), members in self._buckets.items():
            members_arr = np.array(members)
            # Scan only the "forward" half-neighborhood so each cell
            # pair is visited once.
            neighborhood: list[int] = []
            for di in range(0, lat_reach + 1):
                for dj in range(-lon_reach, lon_reach + 1):
                    if di == 0 and dj <= 0:
                        continue
                    other = self._buckets.get((ci + di, cj + dj))
                    if other is not None:
                        neighborhood.extend(other)
            if len(members_arr) > 1:
                ii, jj = np.triu_indices(len(members_arr), k=1)
                pair_a.append(members_arr[ii])
                pair_b.append(members_arr[jj])
            if neighborhood:
                nb = np.array(neighborhood)
                aa = np.repeat(members_arr, len(nb))
                bb = np.tile(nb, len(members_arr))
                pair_a.append(np.minimum(aa, bb))
                pair_b.append(np.maximum(aa, bb))
        if not pair_a:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        a = np.concatenate(pair_a)
        b = np.concatenate(pair_b)
        dist = np.atleast_1d(haversine_km(self.lats[a], self.lons[a], self.lats[b], self.lons[b]))
        mask = (dist <= r) & (a != b)
        return a[mask], b[mask]


def brute_force_pairs_within(lats, lons, max_range_km: float) -> tuple[np.ndarray, np.ndarray]:
    """O(n^2) oracle for :meth:`GridIndex.pairs_within` (tests, benchmarks)."""
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    n = len(lats)
    if n < 2:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    a, b = np.triu_indices(n, k=1)
    dist = np.atleast_1d(haversine_km(lats[a], lons[a], lats[b], lons[b]))
    mask = dist <= max_range_km
    return a[mask], b[mask]
