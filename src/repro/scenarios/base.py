"""Scenario assembly: sites + terrain + towers + fiber -> design inputs.

A :class:`Scenario` bundles every substrate artifact for a geography so
experiments can build :class:`~repro.core.topology.DesignInput` objects
for any traffic model without re-running the expensive steps (tower
synthesis, LOS hop enumeration, Step-1 shortest paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.pipeline import shared_pipeline
from ..core.topology import DesignInput
from ..datasets.sites import Site
from ..fiber.conduits import FiberNetwork, build_conduit_network
from ..geo.coords import pairwise_distance_matrix
from ..geo.terrain import TerrainModel
from ..links.builder import LinkCatalog, build_link_catalog
from ..towers.hops import HopGraph
from ..towers.los import LosConfig
from ..towers.registry import TowerRegistry, cull_towers
from ..towers.synthesis import SynthesisConfig, synthesize_towers
from ..traffic.matrices import dc_to_dc_matrix, population_product_matrix


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
    fiber_seed: int = 17,
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
        fiber_seed: conduit-network seed.
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
        fiber_net = build_conduit_network(sites, seed=fiber_seed)
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


# The scenario name/seed metadata and validation rules live in the
# (dependency-free) spec module so the spec layer, this dispatcher, and
# the CLI share one copy.
from ..exp.spec import (  # noqa: E402 - single source of scenario metadata
    ScenarioSpec,
    SCENARIO_NAMES as SCENARIO_BUILDERS,
)

_DEFAULT_MAX_RANGE_KM = 100.0
_DEFAULT_USABLE_HEIGHT = 1.0


def get_scenario(
    name: str,
    sites: int | None = None,
    max_range_km: float = _DEFAULT_MAX_RANGE_KM,
    usable_height_fraction: float = _DEFAULT_USABLE_HEIGHT,
    seed: int | None = None,
) -> Scenario:
    """Build (or fetch the cached) scenario by name — the substrate stage.

    This is the one dispatcher the CLI and the experiment orchestration
    layer (:mod:`repro.exp`) share, and it is *strict*: a parameter a
    scenario cannot honor raises ``ValueError`` instead of being
    silently dropped (``sites`` for the fixed-site ``europe`` and
    ``interdc`` scenarios, LoS overrides for the data-center scenarios).

    Args:
        name: "us", "europe", "interdc", or "city_dc".
        sites: site-list size (``us``: ≤120 population centers,
            ``city_dc``: city count); None picks the scenario default.
        max_range_km / usable_height_fraction: §6.5 LoS overrides
            (``us`` and ``europe`` only).
        seed: tower-synthesis seed; None keeps the scenario default.
    """
    # ScenarioSpec owns the validation rules (unknown name, fixed site
    # lists, LoS-override restrictions); constructing one applies them.
    spec = ScenarioSpec(
        name=name,
        sites=sites,
        max_range_km=max_range_km,
        usable_height_fraction=usable_height_fraction,
        seed=seed,
    )
    seed = spec.resolved_seed()

    from .europe import europe_scenario
    from .interdc import city_dc_scenario, interdc_scenario
    from .us import us_scenario
    if name == "us":
        kwargs = dict(
            max_range_km=max_range_km,
            usable_height_fraction=usable_height_fraction,
            seed=seed,
        )
        if sites is not None:
            kwargs["n_sites"] = sites
        return us_scenario(**kwargs)
    if name == "europe":
        return europe_scenario(
            max_range_km=max_range_km,
            usable_height_fraction=usable_height_fraction,
            seed=seed,
        )
    if name == "interdc":
        return interdc_scenario(seed=seed)
    kwargs = {"seed": seed}
    if sites is not None:
        kwargs["n_cities"] = sites
    return city_dc_scenario(**kwargs)
