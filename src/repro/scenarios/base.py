"""Scenario assembly: sites + terrain + towers + fiber -> design inputs.

A :class:`Scenario` bundles every substrate artifact for a geography so
experiments can build :class:`~repro.core.topology.DesignInput` objects
for any traffic model without re-running the expensive steps (tower
synthesis, LOS hop enumeration, Step-1 shortest paths).
:func:`get_scenario` is the one door to the paper's four substrates:
the contiguous US (§4), Europe (§6.2) and the inter-DC and city-DC
deployments (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.pipeline import shared_pipeline
from ..core.topology import DesignInput
from ..datasets.datacenters import google_us_datacenters
from ..datasets.eu_cities import eu_population_centers
from ..datasets.sites import Site
from ..datasets.us_cities import us_population_centers
from ..fiber.conduits import FiberNetwork, build_conduit_network
from ..geo.coords import pairwise_distance_matrix
from ..geo.fresnel import RadioProfile
from ..geo.terrain import TerrainModel, europe_terrain, us_terrain
from ..links.builder import LinkCatalog, build_link_catalog
from ..towers.hops import HopGraph
from ..towers.los import LosConfig
from ..towers.registry import TowerRegistry, cull_towers
from ..towers.synthesis import SynthesisConfig, synthesize_towers
from ..traffic.matrices import dc_to_dc_matrix, population_product_matrix

#: The paper lacks European conduit data and assumes fiber latencies
#: inflated over geodesics as in the US; Europe's fiber is this flat
#: multiple of the geodesic.
EU_FIBER_STRETCH = 1.93


@dataclass(frozen=True)
class Scenario:
    """All substrate artifacts for one geography.

    Attributes:
        name: scenario label ("us", "europe", ...).
        sites: the interconnected sites.
        terrain: elevation model.
        registry: culled tower registry.
        hop_graph: feasible tower-to-tower hops.
        catalog: Step-1 site-to-site MW link candidates.
        fiber: conduit network (None when fiber is modelled as a flat
            geodesic multiple, as for Europe).
        geodesic_km: site pairwise great-circle distances.
        fiber_km: latency-equivalent fiber distance matrix o_ij.
    """

    name: str
    sites: tuple[Site, ...]
    terrain: TerrainModel
    registry: TowerRegistry
    hop_graph: HopGraph
    catalog: LinkCatalog
    fiber: FiberNetwork | None
    geodesic_km: np.ndarray
    fiber_km: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def design_input(self, traffic: np.ndarray | None = None) -> DesignInput:
        """A design input for the given (or default) traffic matrix.

        The default is the paper's population-product model; for
        all-zero-population site lists (the inter-DC scenarios, §6.3)
        it falls back to equal demand between every pair.
        """
        if traffic is None:
            sites = list(self.sites)
            if all(s.population == 0 for s in sites):
                traffic = dc_to_dc_matrix(sites, list(range(len(sites))))
            else:
                traffic = population_product_matrix(sites)
        return DesignInput(
            sites=self.sites,
            traffic=traffic,
            geodesic_km=self.geodesic_km,
            mw_km=self.catalog.mw_km,
            cost_towers=self.catalog.cost_towers,
            fiber_km=self.fiber_km,
        )


@lru_cache(maxsize=4)
def _tower_registry(
    sites: tuple[Site, ...], terrain: TerrainModel, config: SynthesisConfig
) -> TowerRegistry:
    """The culled tower registry, memoized per process by value.

    A tower field depends on the sites, the terrain (which thins it) and
    the synthesis config, never on line-of-sight parameters, so a sweep
    over radio range or usable height synthesizes and culls it once.
    """
    return TowerRegistry(cull_towers(synthesize_towers(list(sites), terrain, config)))


def build_scenario(
    name: str,
    sites: list[Site],
    terrain: TerrainModel,
    los_config: LosConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
    flat_fiber_stretch: float | None = None,
) -> Scenario:
    """Run the full substrate pipeline for a site list.

    The line-of-sight-independent half is reused per process.  The
    culled :class:`TowerRegistry` comes from a memo of the last four
    tower fields, keyed by value on ``(sites, terrain,
    synthesis_config)`` (``None`` meaning the default
    :class:`SynthesisConfig`), so scenarios that differ only in
    ``los_config``, fiber or ``name`` share one registry object.  The
    registry memoizes its candidate pairs per radio range, and the hop
    pipeline shares terrain profiles and tower-base elevations per
    terrain model (:func:`~repro.core.pipeline.shared_pipeline`), so
    parameter sweeps skip re-sampling the elevation field.  Hop graph,
    link catalog and fiber are built fresh for every call.

    Args:
        name: scenario label.
        sites: sites to interconnect.
        terrain: elevation model for LOS checks and tower thinning.
        los_config: line-of-sight parameters (range, usable height...).
        synthesis_config: synthetic tower field parameters.
        flat_fiber_stretch: if given, skip the conduit network and set
            o_ij = flat_fiber_stretch x geodesic (the paper's Europe
            assumption of ~1.9x latency inflation).
    """
    los_config = los_config or LosConfig()
    registry = _tower_registry(
        tuple(sites), terrain, synthesis_config or SynthesisConfig()
    )
    hop_graph = shared_pipeline(terrain, los_config).enumerate_hops(registry)
    catalog = build_link_catalog(sites, registry, hop_graph)
    lats = [s.lat for s in sites]
    lons = [s.lon for s in sites]
    geodesic = pairwise_distance_matrix(lats, lons)
    if flat_fiber_stretch is not None:
        if flat_fiber_stretch < 1.0:
            raise ValueError("fiber stretch must be >= 1")
        fiber_net = None
        fiber_km = geodesic * flat_fiber_stretch
    else:
        fiber_net = build_conduit_network(sites)
        fiber_km = fiber_net.latency_equivalent_matrix()
    return Scenario(
        name=name,
        sites=tuple(sites),
        terrain=terrain,
        registry=registry,
        hop_graph=hop_graph,
        catalog=catalog,
        fiber=fiber_net,
        geodesic_km=geodesic,
        fiber_km=fiber_km,
    )


# The scenario names, default seeds and validation rules live in the
# (dependency-free) spec module so the spec layer, this door and the CLI
# share one copy.
from ..exp.spec import ScenarioSpec  # noqa: E402 - single source of scenario metadata


def get_scenario(
    name: str,
    sites: int | None = None,
    max_range_km: float = ScenarioSpec.max_range_km,
    usable_height_fraction: float = ScenarioSpec.usable_height_fraction,
    seed: int | None = None,
) -> Scenario:
    """Build (or fetch the cached) named scenario — the substrate stage.

    The one way to build a named scenario, and *strict*: a parameter a
    scenario cannot honor raises ``ValueError`` (``sites`` for the
    fixed-site ``europe`` and ``interdc``, LoS overrides for the
    data-center scenarios).  The last 16 scenarios are memoized on their
    resolved values, so every spelling of one substrate (``sites=None``
    or 120, ``seed=None`` or the default seed) returns one object.

    Args:
        name: "us" (paper §4), "europe" (§6.2), "interdc" or "city_dc"
            (§6.3).
        sites: site-list size (``us``: the most populous centers,
            ``city_dc``: the city count); None takes all 120.
        max_range_km / usable_height_fraction: §6.5 LoS overrides
            (``us`` and ``europe`` only).
        seed: tower-synthesis seed; None keeps the scenario default.
    """
    # ScenarioSpec owns the validation rules; building one applies them.
    spec = ScenarioSpec(
        name=name,
        sites=sites,
        max_range_km=max_range_km,
        usable_height_fraction=usable_height_fraction,
        seed=seed,
    )
    if sites is None and name in ("us", "city_dc"):
        sites = len(us_population_centers())
    return _named_scenario(
        name, sites, max_range_km, usable_height_fraction, spec.resolved_seed()
    )


@lru_cache(maxsize=16)
def _named_scenario(
    name: str,
    sites: int | None,
    max_range_km: float,
    usable_height_fraction: float,
    seed: int,
) -> Scenario:
    """One validated, resolved named scenario (see :func:`get_scenario`).

    The data-center scenarios arrive with the default LoS only; city-DC
    appends the data centers after the cities.
    """
    los = LosConfig(
        radio=RadioProfile(max_range_km=max_range_km),
        usable_height_fraction=usable_height_fraction,
    )
    towers = SynthesisConfig(seed=seed)
    if name == "us":
        return build_scenario(
            f"us-{sites}", us_population_centers()[:sites], us_terrain(), los, towers
        )
    if name == "europe":
        return build_scenario(
            "europe", eu_population_centers(), europe_terrain(), los, towers,
            flat_fiber_stretch=EU_FIBER_STRETCH,
        )
    if name == "interdc":
        return build_scenario(
            "us-interdc", google_us_datacenters(), us_terrain(), los, towers
        )
    return build_scenario(
        "us-city-dc",
        us_population_centers()[:sites] + google_us_datacenters(),
        us_terrain(),
        los,
        towers,
    )
