"""European cities with population above ~300k (paper §6.2).

The paper designs a European cISP "across cities with population more
than 300k" at a geographical scale similar to the contiguous US.  We
include the major cities of continental Europe plus Great Britain.
Coordinates are approximate city centers; populations are city-proper
estimates.  As with the US list, only relative populations and geometry
matter to the design pipeline.
"""

from __future__ import annotations

from functools import lru_cache

from .sites import Site, coalesce_sites

#: Cities this close (km) merge into one center, as for the US; the
#: paper keeps the centers above 300k people (§6.2).
COALESCE_KM = 50.0
MIN_POPULATION = 300_000

_RAW_CITIES: list[tuple[str, float, float, int]] = [
    ("London", 51.5074, -0.1278, 8174000),
    ("Berlin", 52.5200, 13.4050, 3645000),
    ("Madrid", 40.4168, -3.7038, 3266000),
    ("Rome", 41.9028, 12.4964, 2873000),
    ("Paris", 48.8566, 2.3522, 2206000),
    ("Bucharest", 44.4268, 26.1025, 1883000),
    ("Vienna", 48.2082, 16.3738, 1897000),
    ("Hamburg", 53.5511, 9.9937, 1841000),
    ("Warsaw", 52.2297, 21.0122, 1765000),
    ("Budapest", 47.4979, 19.0402, 1752000),
    ("Barcelona", 41.3851, 2.1734, 1620000),
    ("Munich", 48.1351, 11.5820, 1472000),
    ("Milan", 45.4642, 9.1900, 1352000),
    ("Prague", 50.0755, 14.4378, 1309000),
    ("Sofia", 42.6977, 23.3219, 1236000),
    ("Brussels", 50.8503, 4.3517, 1209000),
    ("Birmingham", 52.4862, -1.8904, 1137000),
    ("Cologne", 50.9375, 6.9603, 1086000),
    ("Naples", 40.8518, 14.2681, 967000),
    ("Stockholm", 59.3293, 18.0686, 975000),
    ("Turin", 45.0703, 7.6869, 870000),
    ("Marseille", 43.2965, 5.3698, 863000),
    ("Amsterdam", 52.3676, 4.9041, 872000),
    ("Zagreb", 45.8150, 15.9819, 790000),
    ("Valencia", 39.4699, -0.3763, 791000),
    ("Krakow", 50.0647, 19.9450, 779000),
    ("Leeds", 53.8008, -1.5491, 789000),
    ("Frankfurt", 50.1109, 8.6821, 753000),
    ("Lodz", 51.7592, 19.4560, 679000),
    ("Seville", 37.3891, -5.9845, 688000),
    ("Palermo", 38.1157, 13.3615, 657000),
    ("Zaragoza", 41.6488, -0.8891, 675000),
    ("Athens", 37.9838, 23.7275, 664000),
    ("Rotterdam", 51.9244, 4.4777, 651000),
    ("Wroclaw", 51.1079, 17.0385, 643000),
    ("Stuttgart", 48.7758, 9.1829, 634000),
    ("Riga", 56.9496, 24.1052, 632000),
    ("Dusseldorf", 51.2277, 6.7735, 619000),
    ("Vilnius", 54.6872, 25.2797, 588000),
    ("Glasgow", 55.8642, -4.2518, 612000),
    ("Dortmund", 51.5136, 7.4653, 587000),
    ("Essen", 51.4556, 7.0116, 583000),
    ("Gothenburg", 57.7089, 11.9746, 579000),
    ("Genoa", 44.4056, 8.9463, 580000),
    ("Oslo", 59.9139, 10.7522, 673000),
    ("Dublin", 53.3498, -6.2603, 553000),
    ("Sheffield", 53.3811, -1.4701, 577000),
    ("Copenhagen", 55.6761, 12.5683, 602000),
    ("Leipzig", 51.3397, 12.3731, 587000),
    ("Bremen", 53.0793, 8.8017, 569000),
    ("Lisbon", 38.7223, -9.1393, 505000),
    ("Manchester", 53.4808, -2.2426, 547000),
    ("Dresden", 51.0504, 13.7373, 554000),
    ("Hannover", 52.3759, 9.7320, 538000),
    ("Poznan", 52.4064, 16.9252, 534000),
    ("Antwerp", 51.2194, 4.4025, 523000),
    ("Nuremberg", 49.4521, 11.0767, 518000),
    ("Lyon", 45.7640, 4.8357, 516000),
    ("Liverpool", 53.4084, -2.9916, 498000),
    ("Edinburgh", 55.9533, -3.1883, 488000),
    ("Bratislava", 48.1486, 17.1077, 432000),
    ("Gdansk", 54.3520, 18.6466, 470000),
    ("Malaga", 36.7213, -4.4214, 574000),
    ("Tallinn", 59.4370, 24.7536, 437000),
    ("Bristol", 51.4545, -2.5879, 463000),
    ("Bologna", 44.4949, 11.3426, 389000),
    ("Florence", 43.7696, 11.2558, 382000),
    ("Brno", 49.1951, 16.6068, 380000),
    ("Szczecin", 53.4285, 14.5528, 403000),
    ("Toulouse", 43.6047, 1.4442, 479000),
    ("Duisburg", 51.4344, 6.7623, 498000),
    ("Murcia", 37.9922, -1.1307, 447000),
    ("Bilbao", 43.2630, -2.9350, 345000),
    ("Nice", 43.7102, 7.2620, 342000),
    ("Cardiff", 51.4816, -3.1791, 362000),
    ("Belfast", 54.5973, -5.9301, 341000),
    ("Nantes", 47.2184, -1.5536, 309000),
    ("Catania", 37.5079, 15.0830, 311000),
    ("Bari", 41.1171, 16.8719, 320000),
    ("Thessaloniki", 40.6401, 22.9444, 325000),
    ("Utrecht", 52.0907, 5.1214, 357000),
    ("Malmo", 55.6049, 13.0038, 344000),
    ("Bydgoszcz", 53.1235, 18.0084, 350000),
    ("Lublin", 51.2465, 22.5684, 339000),
    ("Alicante", 38.3452, -0.4810, 334000),
    ("Cordoba", 37.8882, -4.7794, 325000),
    ("Bochum", 51.4818, 7.2162, 364000),
    ("Wuppertal", 51.2562, 7.1508, 354000),
    ("Bielefeld", 52.0302, 8.5325, 334000),
    ("Bonn", 50.7374, 7.0982, 327000),
    ("Montpellier", 43.6108, 3.8767, 290000),
    ("Strasbourg", 48.5734, 7.7521, 280000),
    ("Bordeaux", 44.8378, -0.5792, 257000),
    ("Porto", 41.1579, -8.6291, 237000),
    ("Geneva", 46.2044, 6.1432, 201000),
    ("Zurich", 47.3769, 8.5417, 415000),
    ("Ljubljana", 46.0569, 14.5058, 295000),
    ("Graz", 47.0707, 15.4395, 289000),
    ("Belgrade", 44.7866, 20.4489, 1166000),
    ("Skopje", 41.9981, 21.4254, 544000),
    ("Sarajevo", 43.8563, 18.4131, 275000),
    ("Ostrava", 49.8209, 18.2625, 287000),
    ("Katowice", 50.2649, 19.0238, 294000),
    ("Kaunas", 54.8985, 23.9036, 289000),
    ("Aarhus", 56.1629, 10.2039, 273000),
]


def raw_cities() -> list[Site]:
    """The uncoalesced European city list."""
    return [
        Site(name=name, lat=lat, lon=lon, population=pop)
        for name, lat, lon, pop in _RAW_CITIES
    ]


def eu_population_centers() -> list[Site]:
    """European population centers (coalesced, population >= 300k)."""
    return list(_coalesced_centers())


@lru_cache(maxsize=1)
def _coalesced_centers() -> tuple[Site, ...]:
    # Coalesced once: sites are frozen, so the cached tuple is safe to
    # share and callers get a fresh list.
    centers = coalesce_sites(raw_cities(), radius_km=COALESCE_KM)
    return tuple(c for c in centers if c.population >= MIN_POPULATION)
