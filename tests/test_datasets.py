"""Tests for the site datasets and the coalescing rule."""

import pytest

from repro.datasets import (
    Site,
    coalesce_sites,
    eu_population_centers,
    google_us_datacenters,
    raw_eu_cities,
    raw_us_cities,
    us_population_centers,
)


class TestSite:
    def test_valid(self):
        s = Site("Chicago", 41.88, -87.63, 2_695_598)
        assert s.point.lat == 41.88

    def test_empty_name_raises(self):
        with pytest.raises(ValueError):
            Site("", 0.0, 0.0)

    def test_bad_lat_raises(self):
        with pytest.raises(ValueError):
            Site("x", 95.0, 0.0)

    def test_negative_population_raises(self):
        with pytest.raises(ValueError):
            Site("x", 0.0, 0.0, -1)

    def test_distance(self):
        a = Site("a", 41.88, -87.63)
        b = Site("b", 40.71, -74.01)
        assert 1100 < a.distance_km(b) < 1200


class TestCoalesce:
    def test_merges_within_radius(self):
        sites = [
            Site("big", 40.0, -100.0, 1_000_000),
            Site("suburb", 40.2, -100.0, 100_000),
            Site("far", 45.0, -90.0, 500_000),
        ]
        centers = coalesce_sites(sites, radius_km=50.0)
        assert len(centers) == 2
        assert centers[0].name == "big"
        assert centers[0].population == 1_100_000

    def test_zero_radius_keeps_all(self):
        sites = [Site(f"s{i}", 40.0 + i, -100.0, 1000 * (i + 1)) for i in range(5)]
        assert len(coalesce_sites(sites, radius_km=0.0)) == 5

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            coalesce_sites([], radius_km=-1.0)

    def test_ordering_by_population(self):
        centers = coalesce_sites(
            [Site("small", 30.0, -90.0, 10), Site("large", 45.0, -80.0, 1000)],
            radius_km=10.0,
        )
        assert [c.name for c in centers] == ["large", "small"]


class TestUsCities:
    def test_raw_count_near_papers_200(self):
        # We carry more raw cities than the paper's 200 so coalescing
        # lands at the same 120 centers.
        assert len(raw_us_cities()) >= 200

    def test_120_population_centers(self):
        centers = us_population_centers()
        assert len(centers) == 120

    def test_contiguous_us_bounds(self):
        for c in us_population_centers():
            assert 24.0 < c.lat < 50.0
            assert -125.0 < c.lon < -66.0

    def test_new_york_is_largest(self):
        centers = us_population_centers()
        assert centers[0].name == "New York"

    def test_unique_names(self):
        names = [c.name for c in us_population_centers()]
        assert len(names) == len(set(names))

    def test_centers_are_separated(self):
        centers = us_population_centers()
        for i, a in enumerate(centers[:30]):
            for b in centers[i + 1 : 30]:
                assert a.distance_km(b) > 50.0

    def test_memoized_centers_match_fresh_coalescing(self):
        want = coalesce_sites(raw_us_cities(), radius_km=50.0)[:120]
        assert us_population_centers() == want
        assert us_population_centers() == want

    def test_returned_list_is_a_private_copy(self):
        first = us_population_centers()
        want = list(first)
        first.pop()
        first.reverse()
        first[0] = Site("Nowhere", 40.0, -100.0, 1)
        assert us_population_centers() == want


class TestEuCities:
    def test_population_floor(self):
        for c in eu_population_centers():
            assert c.population >= 300_000

    def test_reasonable_count(self):
        # The paper connects European cities >300k; continental Europe
        # plus GB has on the order of 60-100 such centers.
        assert 50 <= len(eu_population_centers()) <= 120

    def test_london_present(self):
        names = {c.name for c in eu_population_centers()}
        assert "London" in names

    def test_memoized_centers_match_fresh_coalescing(self):
        want = [
            c
            for c in coalesce_sites(raw_eu_cities(), radius_km=50.0)
            if c.population >= 300_000
        ]
        assert eu_population_centers() == want
        assert eu_population_centers() == want

    def test_returned_list_is_a_private_copy(self):
        first = eu_population_centers()
        want = list(first)
        first.clear()
        assert eu_population_centers() == want


class TestDatacenters:
    def test_six_locations(self):
        dcs = google_us_datacenters()
        assert len(dcs) == 6

    def test_zero_population(self):
        assert all(d.population == 0 for d in google_us_datacenters())

    def test_the_dalles_in_oregon(self):
        dalles = next(d for d in google_us_datacenters() if "Dalles" in d.name)
        assert 45.0 < dalles.lat < 46.0
        assert -122.0 < dalles.lon < -120.0
