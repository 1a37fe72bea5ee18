"""Tests for the synthetic terrain model (SRTM substitute).

``tests/golden/terrain_elevations.json`` pins elevations of
``us_terrain()`` and ``europe_terrain()`` at about 300 fixed points
each: a lat/lon grid over the region, corners of the base relief's
noise lattice, and every ridge's crest waypoints.  Regenerate (only for
an intended change to the terrain) with::

    PYTHONPATH=src python tests/test_geo_terrain.py
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import (
    GeoPoint,
    MountainRidge,
    TerrainModel,
    europe_terrain,
    flat_terrain,
    fractal_noise,
    us_terrain,
)
from repro.geo.terrain import _BLOCK_POINTS

from conftest import point_elevation_m

GOLDEN = Path(__file__).parent / "golden" / "terrain_elevations.json"

# NumPy picks its exp kernel per CPU, so the last bit of a golden value
# may differ on another machine; block invariance is checked bitwise.
GOLDEN_RTOL = 1e-12

# name -> (terrain factory, (lat_min, lat_max), (lon_min, lon_max))
GOLDEN_TERRAINS = {
    "us": (us_terrain, (25.0, 49.0), (-124.0, -67.0)),
    "europe": (europe_terrain, (36.0, 70.0), (-10.0, 30.0)),
}


def golden_points(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The golden sample points of one terrain, as (lats, lons)."""
    factory, (lat0, lat1), (lon0, lon1) = GOLDEN_TERRAINS[name]
    terrain = factory()
    grid_lat, grid_lon = np.meshgrid(
        np.linspace(lat0, lat1, 16), np.linspace(lon0, lon1, 15), indexing="ij"
    )
    scale = terrain.noise_scale_deg
    iy = np.linspace(np.ceil(lat0 / scale), np.floor(lat1 / scale), 7).round()
    ix = np.linspace(np.ceil(lon0 / scale), np.floor(lon1 / scale), 7).round()
    corner_lat, corner_lon = np.meshgrid(iy * scale, ix * scale, indexing="ij")
    crest = np.array([wp for ridge in terrain.ridges for wp in ridge.waypoints])
    lats = np.concatenate([grid_lat.ravel(), corner_lat.ravel(), crest[:, 0]])
    lons = np.concatenate([grid_lon.ravel(), corner_lon.ravel(), crest[:, 1]])
    return lats, lons


def golden_records() -> dict:
    records = {}
    for name, (factory, _, _) in GOLDEN_TERRAINS.items():
        lats, lons = golden_points(name)
        records[name] = {
            "lats": lats.tolist(),
            "lons": lons.tolist(),
            "elevation_m": factory().elevation_m(lats, lons).tolist(),
        }
    return records


lat_st = st.floats(min_value=25.0, max_value=49.0, allow_nan=False)
lon_st = st.floats(min_value=-124.0, max_value=-67.0, allow_nan=False)


class TestFractalNoise:
    def test_range(self):
        x = np.linspace(-50, 50, 200)
        y = np.linspace(-20, 20, 200)
        v = fractal_noise(x, y, seed=3)
        assert np.all(v >= 0.0)
        assert np.all(v < 1.0)

    def test_deterministic(self):
        x = np.array([1.5, 2.5, 3.5])
        y = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(fractal_noise(x, y, seed=5), fractal_noise(x, y, seed=5))

    def test_seed_changes_field(self):
        x = np.linspace(0, 10, 50)
        y = np.linspace(0, 10, 50)
        assert not np.allclose(fractal_noise(x, y, seed=1), fractal_noise(x, y, seed=2))

    def test_continuity(self):
        # Neighboring samples differ by a small amount (no lattice jumps).
        x = np.linspace(3.0, 3.01, 100)
        y = np.full(100, 7.0)
        v = fractal_noise(x, y, seed=9)
        assert np.max(np.abs(np.diff(v))) < 0.05


class TestMountainRidge:
    def test_distance_zero_on_crest(self):
        ridge = MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, 50.0)
        d = ridge.distance_km(np.array([41.0]), np.array([-100.0]))
        assert d[0] < 5.0

    def test_distance_far_away(self):
        ridge = MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, 50.0)
        d = ridge.distance_km(np.array([41.0]), np.array([-90.0]))
        # ~10 degrees of longitude at 41N is about 840 km.
        assert 700 < d[0] < 950

    def test_distance_beyond_endpoint_clamps(self):
        ridge = MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, 50.0)
        d = ridge.distance_km(np.array([45.0]), np.array([-100.0]))
        # Clamped to the endpoint at 42N: roughly 3 degrees of latitude.
        assert 300 < d[0] < 370

    def test_rejects_fewer_than_two_waypoints(self):
        # One waypoint has no segment: its distance is inf everywhere,
        # so the mountain would silently add 0 m.
        for waypoints in ((), ((40.0, -100.0),)):
            with pytest.raises(ValueError, match="waypoints"):
                MountainRidge("test", waypoints, 1000.0, 50.0)

    @pytest.mark.parametrize("width_km", [0.0, -5.0, float("nan")])
    def test_rejects_non_positive_width(self, width_km):
        # width_km=0 made the crest height 0/0 = NaN.
        with pytest.raises(ValueError, match="width_km"):
            MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, width_km)

    @pytest.mark.parametrize("height_m", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_height(self, height_m):
        with pytest.raises(ValueError, match="height_m"):
            MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), height_m, 50.0)
        MountainRidge("flat", ((40.0, -100.0), (42.0, -100.0)), 0.0, 50.0)


class TestTerrainModel:
    @pytest.mark.parametrize("noise_scale_deg", [0.0, -1.6, float("nan")])
    def test_rejects_non_positive_noise_scale(self, noise_scale_deg):
        # noise_scale_deg=0 made every elevation NaN.
        with pytest.raises(ValueError, match="noise_scale_deg"):
            TerrainModel(noise_scale_deg=noise_scale_deg)

    @pytest.mark.parametrize("base_m", [float("nan"), float("inf")])
    def test_rejects_non_finite_base(self, base_m):
        # A NaN base made every elevation NaN, failing every LoS check.
        with pytest.raises(ValueError, match="base_m"):
            TerrainModel(base_m=base_m)

    @pytest.mark.parametrize("relief_m", [float("nan"), -100.0])
    def test_rejects_bad_relief(self, relief_m):
        with pytest.raises(ValueError, match="relief_m"):
            TerrainModel(relief_m=relief_m)

    def test_flat_terrain_is_flat(self):
        t = flat_terrain(100.0)
        lats = np.linspace(30, 45, 50)
        lons = np.linspace(-120, -80, 50)
        assert np.allclose(t.elevation_m(lats, lons), 100.0)

    def test_elevation_never_negative(self):
        t = us_terrain()
        rng = np.random.default_rng(0)
        lats = rng.uniform(25, 49, 500)
        lons = rng.uniform(-124, -67, 500)
        assert np.all(t.elevation_m(lats, lons) >= 0.0)

    def test_deterministic_across_instances(self):
        a = us_terrain(seed=7)
        b = us_terrain(seed=7)
        lats = np.linspace(30, 45, 20)
        lons = np.linspace(-110, -80, 20)
        assert np.array_equal(a.elevation_m(lats, lons), b.elevation_m(lats, lons))

    def test_rockies_higher_than_midwest(self):
        t = us_terrain()
        rockies = point_elevation_m(t, GeoPoint(39.5, -106.0))
        midwest = point_elevation_m(t, GeoPoint(41.0, -93.0))
        assert rockies > midwest + 800.0

    def test_alps_higher_than_netherlands(self):
        t = europe_terrain()
        alps = point_elevation_m(t, GeoPoint(46.5, 9.5))
        holland = point_elevation_m(t, GeoPoint(52.3, 4.9))
        assert alps > holland + 1000.0

    def test_profile_shapes(self):
        t = us_terrain()
        lats, lons, elev = t.profile(GeoPoint(41.9, -87.6), GeoPoint(40.7, -74.0), 64)
        assert lats.shape == lons.shape == elev.shape == (64,)

    def test_profile_endpoints_match_point_queries(self):
        t = us_terrain()
        p1, p2 = GeoPoint(35.0, -101.0), GeoPoint(36.0, -97.0)
        _, _, elev = t.profile(p1, p2, 10)
        assert elev[0] == pytest.approx(point_elevation_m(t, p1))
        assert elev[-1] == pytest.approx(point_elevation_m(t, p2))

    @given(lat_st, lon_st)
    @settings(max_examples=50)
    def test_scalar_query_finite(self, lat, lon):
        t = us_terrain()
        e = point_elevation_m(t, GeoPoint(lat, lon))
        assert np.isfinite(e)
        assert 0.0 <= e < 6000.0


class TestBlockInvariance:
    """Blocked evaluation equals one whole-array pass, bit for bit."""

    B = _BLOCK_POINTS

    @staticmethod
    def points(name: str, shape) -> tuple[np.ndarray, np.ndarray]:
        _, (lat0, lat1), (lon0, lon1) = GOLDEN_TERRAINS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + int(np.prod(shape)))
        return rng.uniform(lat0, lat1, shape), rng.uniform(lon0, lon1, shape)

    @pytest.mark.parametrize("name", sorted(GOLDEN_TERRAINS))
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_equal_one_pass(self, name, n):
        terrain = GOLDEN_TERRAINS[name][0]()
        lats, lons = self.points(name, n)
        elevation = terrain.elevation_m(lats, lons)
        assert elevation.shape == (n,)
        assert np.array_equal(elevation, terrain._elevation_block(lats, lons))
        for i in sorted(i for i in {0, n // 2, n - 1, self.B - 1, self.B, 2 * self.B} if 0 <= i < n):
            assert np.array_equal(terrain.elevation_m(lats[i], lons[i]), elevation[i : i + 1])

    @pytest.mark.parametrize("name", sorted(GOLDEN_TERRAINS))
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_2d_shape_kept(self, name, n):
        terrain = GOLDEN_TERRAINS[name][0]()
        lats, lons = self.points(name, (n, 3))
        elevation = terrain.elevation_m(lats, lons)
        assert elevation.shape == (n, 3)
        assert np.array_equal(elevation.ravel(), terrain.elevation_m(lats.ravel(), lons.ravel()))
        # A column of latitudes broadcasts against the longitude grid.
        column = terrain.elevation_m(lats[:, :1], lons)
        assert column.shape == (n, 3)
        flat = np.broadcast_to(lats[:, :1], (n, 3)).ravel()
        assert np.array_equal(column.ravel(), terrain.elevation_m(flat, lons.ravel()))

    def test_scalar_input_is_1d(self):
        terrain = us_terrain()
        elevation = terrain.elevation_m(39.5, -106.0)
        assert elevation.shape == (1,)
        assert np.array_equal(elevation, terrain.elevation_m([39.5], [-106.0]))


class TestGoldenElevations:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TERRAINS))
    def test_matches_golden_sample(self, name):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
        np.testing.assert_allclose(
            GOLDEN_TERRAINS[name][0]().elevation_m(golden["lats"], golden["lons"]),
            golden["elevation_m"],
            rtol=GOLDEN_RTOL,
            atol=0.0,
        )


if __name__ == "__main__":
    from repro.exp.spec import canonical_json

    GOLDEN.parent.mkdir(exist_ok=True)
    text = canonical_json(golden_records()) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
