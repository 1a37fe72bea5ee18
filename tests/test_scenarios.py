"""Integration tests: scenario assembly and end-to-end design.

Run as a script for the sweep-scale reuse check: the six points of the
ledger's ``tower-constraints`` grid (Fig 10, 40 US sites) built in one
process must equal each point built alone in a fresh interpreter::

    PYTHONPATH=src python tests/test_scenarios.py --seed 7
"""

import argparse
import hashlib
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import design_network, fiber_only_topology
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import CachingLosChecker, HopPipeline
from repro.datasets.sites import Site
from repro.datasets.us_cities import us_population_centers
from repro.geo.fresnel import RadioProfile
from repro.geo.terrain import flat_terrain, us_terrain
from repro.links.builder import build_link_catalog
from repro.scenarios import (
    base,
    build_scenario,
    dc_dc_traffic,
    dc_indices,
    get_scenario,
)
from repro.towers.los import LosConfig
from repro.towers.registry import TowerRegistry, cull_towers
from repro.towers.synthesis import SynthesisConfig, synthesize_towers


class TestSmallUsScenario:
    def test_substrate_sizes(self, small_us_scenario):
        sc = small_us_scenario
        assert sc.n_sites == 20
        assert len(sc.registry) > 200
        assert sc.hop_graph.n_edges > 500

    def test_fiber_slower_than_mw(self, small_us_scenario):
        sc = small_us_scenario
        finite = np.isfinite(sc.catalog.mw_km) & (sc.geodesic_km > 0)
        # MW links are close to geodesic; fiber is ~1.9x.
        assert np.median(sc.catalog.mw_km[finite] / sc.geodesic_km[finite]) < 1.3
        assert np.nanmean(sc.fiber_km[finite] / sc.geodesic_km[finite]) > 1.6

    def test_design_input_roundtrip(self, small_us_scenario):
        di = small_us_scenario.design_input()
        assert di.n_sites == 20
        assert np.triu(di.traffic, 1).sum() == pytest.approx(1.0)

    def test_end_to_end_design(self, small_us_scenario):
        sc = small_us_scenario
        di = sc.design_input()
        res = design_network(
            di,
            budget_towers=600.0,
            aggregate_gbps=50.0,
            catalog=sc.catalog,
            registry=sc.registry,
            ilp_refinement=False,
        )
        fiber = fiber_only_topology(di).mean_stretch()
        assert res.mean_stretch < fiber
        assert res.mean_stretch >= 1.0
        assert res.towers_used <= 600.0
        assert res.cost_per_gb_usd is not None
        assert 0.01 < res.cost_per_gb_usd < 100.0

    def test_missing_catalog_raises(self, small_us_scenario):
        di = small_us_scenario.design_input()
        with pytest.raises(ValueError):
            design_network(di, 100.0, aggregate_gbps=10.0)

    def test_stretch_percentiles(self, small_us_scenario):
        sc = small_us_scenario
        res = design_network(
            sc.design_input(), budget_towers=600.0, ilp_refinement=False
        )
        pct = res.stretch_percentiles((50, 99))
        assert 1.0 <= pct[50] <= pct[99]


class TestInterdcScenario:
    def test_six_sites(self):
        sc = get_scenario("interdc")
        assert sc.n_sites == 6
        assert dc_indices(sc) == list(range(6))

    def test_dc_traffic_uniform(self):
        sc = get_scenario("interdc")
        h = dc_dc_traffic(sc)
        vals = h[np.triu_indices(6, 1)]
        assert np.allclose(vals, vals[0])

    def test_design_runs(self):
        sc = get_scenario("interdc")
        res = design_network(
            sc.design_input(dc_dc_traffic(sc)),
            budget_towers=400.0,
            aggregate_gbps=30.0,
            catalog=sc.catalog,
            registry=sc.registry,
            ilp_refinement=False,
        )
        assert res.mean_stretch < res.fiber_mean_stretch

    def test_default_traffic_is_equal_demand(self):
        """Zero-population site lists fall back to uniform demand, so
        ``design_input()`` works for inter-DC scenarios (the CLI and the
        orchestration layer's design stage call it with no matrix)."""
        sc = get_scenario("interdc")
        h = sc.design_input().traffic
        assert np.array_equal(h, dc_dc_traffic(sc))


class TestScenarioCaching:
    def test_cache_returns_same_object(self):
        a = get_scenario("us", sites=20)
        b = get_scenario("us", sites=20)
        assert a is b

    @pytest.fixture
    def stub_builds(self, monkeypatch):
        """An empty scenario memo over a ``build_scenario`` stub; each
        build is recorded and returned as a fresh token."""
        builds = []

        def stub(name, sites, terrain, los_config, synthesis_config, **kwargs):
            builds.append(SimpleNamespace(name=name, seed=synthesis_config.seed))
            return builds[-1]

        base._named_scenario.cache_clear()
        monkeypatch.setattr(base, "build_scenario", stub)
        yield builds
        base._named_scenario.cache_clear()

    @pytest.mark.parametrize("name, label, sites, seed", [
        ("us", "us-120", 120, 42),
        ("city_dc", "us-city-dc", 120, 45),
        ("interdc", "us-interdc", None, 44),
        ("europe", "europe", None, 43),
    ])
    def test_every_spelling_is_one_build(self, stub_builds, name, label, sites, seed):
        first = get_scenario(name)
        assert get_scenario(name, sites=sites) is first
        assert get_scenario(name, seed=seed) is first
        assert get_scenario(name, sites=sites, seed=seed) is first
        assert get_scenario(name, sites, 100, 1.0, seed) is first
        assert [(b.name, b.seed) for b in stub_builds] == [(label, seed)]
        # Another seed is another substrate.
        assert get_scenario(name, seed=seed + 1) is not first
        assert len(stub_builds) == 2


class TestSiteCountBound:
    """A site count beyond the US city list fails loudly, by name: it
    was silently truncated, so two counts built one substrate twice."""

    def test_spec_rejects_more_sites_than_cities(self):
        from repro.exp import ScenarioSpec

        for name in ("us", "city_dc"):
            ScenarioSpec(name=name, sites=120)
            with pytest.raises(
                ValueError,
                match=r"^scenario\.sites must be an integer in \[2, 120\], got 121$",
            ):
                ScenarioSpec(name=name, sites=121)

    def test_dispatcher_rejects_more_sites_than_cities(self):
        with pytest.raises(ValueError, match=r"^scenario\.sites must be"):
            get_scenario("us", sites=121)


def _los(max_range_km: float, usable_height_fraction: float) -> LosConfig:
    return LosConfig(
        radio=RadioProfile(max_range_km=max_range_km),
        usable_height_fraction=usable_height_fraction,
    )


def substrate_parts(registry, hop_graph, catalog) -> dict[str, bytes]:
    """A substrate's registry, hop graph and link catalog as raw bytes."""
    lats, lons = registry.coordinates()
    heights = np.array([t.height_m for t in registry])
    links = sorted(
        (key, link.mw_km, link.n_towers, link.tower_path)
        for key, link in catalog.links.items()
    )
    return {
        "registry": np.stack([lats, lons, heights]).tobytes(),
        "hop_graph": b"".join(
            a.tobytes() for a in (hop_graph.edges_a, hop_graph.edges_b, hop_graph.lengths_km)
        ),
        "catalog": catalog.mw_km.tobytes() + catalog.cost_towers.tobytes() + repr(links).encode(),
    }


@pytest.fixture
def empty_substrate_memos(monkeypatch):
    """An empty registry memo and empty shared terrain caches."""
    base._tower_registry.cache_clear()
    monkeypatch.setattr(pipeline_module, "_SHARED_TERRAIN_CACHES", {})
    yield
    base._tower_registry.cache_clear()


class TestSubstrateReuse:
    """A radio sweep reuses the tower field, its candidate pairs and the
    tower-base elevations, and builds every point exactly as alone."""

    SITES = 12
    POINTS = [(r, h) for r in (60.0, 40.0) for h in (1.0, 0.65)]

    @pytest.fixture(scope="class")
    def references(self):
        """Each point built from the public functions, nothing shared."""
        sites = us_population_centers()[: self.SITES]
        terrain = us_terrain()
        refs = {}
        for point in self.POINTS:
            towers = synthesize_towers(sites, terrain, SynthesisConfig(seed=42))
            registry = TowerRegistry(cull_towers(towers))
            hop_graph = HopPipeline(CachingLosChecker(terrain, _los(*point))).enumerate_hops(registry)
            catalog = build_link_catalog(sites, registry, hop_graph)
            refs[point] = substrate_parts(registry, hop_graph, catalog)
        return refs

    def test_sweep_in_either_order_equals_fresh_builds(self, references, empty_substrate_memos, monkeypatch):
        sites = us_population_centers()[: self.SITES]
        for order in (self.POINTS, self.POINTS[::-1]):
            base._tower_registry.cache_clear()
            monkeypatch.setattr(pipeline_module, "_SHARED_TERRAIN_CACHES", {})
            built = []
            for point in order:
                sc = build_scenario(
                    "us-12", sites, us_terrain(), los_config=_los(*point),
                    synthesis_config=SynthesisConfig(seed=42),
                )
                assert substrate_parts(sc.registry, sc.hop_graph, sc.catalog) == references[point]
                built.append(sc)
            # One tower field served every point, enumerated once per range.
            assert all(sc.registry is built[0].registry for sc in built)
            assert sorted(built[0].registry._pairs) == [40.0, 60.0]

    def test_memo_is_keyed_by_value(self, empty_substrate_memos, monkeypatch):
        calls = []
        real = base.synthesize_towers

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(base, "synthesize_towers", counting)
        sites = [Site("a", 40.0, -100.0, 200_000), Site("b", 40.3, -100.4, 80_000)]
        terrain = us_terrain()

        def registry(sites=sites, terrain=terrain, config=None, los=None):
            return build_scenario("t", sites, terrain, los_config=los, synthesis_config=config).registry

        first = registry()
        # Hits: None is the default config; equal values are equal keys;
        # LoS parameters are not part of the key.
        assert registry(config=SynthesisConfig()) is first
        assert registry(sites=[Site(s.name, s.lat, s.lon, s.population) for s in sites]) is first
        assert registry(los=_los(60.0, 0.45)) is first
        assert len(calls) == 1
        # Misses: seed, site list, any other config field, terrain.
        for changed in (
            dict(config=SynthesisConfig(seed=43)),
            dict(sites=sites + [Site("c", 40.6, -100.1, 50_000)]),
            dict(config=SynthesisConfig(urban_base=30.0)),
            dict(terrain=flat_terrain(0.0)),
        ):
            assert registry(**changed) is not first
        assert len(calls) == 5


# ---------------------------------------------------------------------------
# Sweep-scale check: the tower-constraints grid, in one process and alone.

#: The ledger's ``tower-constraints`` workload: us-40 at a 1,400-tower
#: budget over max range x usable height (Fig 10), in sweep order.
TOWER_CONSTRAINTS = [(r, h) for r in (100, 80, 60) for h in (1.0, 0.65)]


def point_digests(point: tuple[float, float], seed: int) -> dict[str, str]:
    """sha256 of one point's substrate parts and design-stage records."""
    from repro.exp import ExperimentSpec, NullStore, run_experiment

    max_range_km, usable_height_fraction = point
    spec = ExperimentSpec.from_dict({
        "scenario": {
            "name": "us", "sites": 40, "seed": seed,
            "max_range_km": max_range_km, "usable_height_fraction": usable_height_fraction,
        },
        "design": {"budget_towers": 1400, "solver_opts": {"ilp_refinement": False}},
    })
    run = run_experiment(spec, store=NullStore(), stages=("substrate", "design"))
    sc = run.artifacts["substrate"]
    parts = substrate_parts(sc.registry, sc.hop_graph, sc.catalog)
    parts["fiber"] = sc.fiber_km.tobytes()
    parts["records"] = json.dumps(run.records, sort_keys=True).encode()
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in parts.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check that the tower-constraints points built in one process "
        "equal each point built alone in a fresh interpreter."
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (default 7)")
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point is not None:  # child: one point, alone
        print(json.dumps(point_digests(TOWER_CONSTRAINTS[args.point], args.seed)))
        return 0

    shared = [point_digests(point, args.seed) for point in TOWER_CONSTRAINTS]
    failures = 0
    for i, point in enumerate(TOWER_CONSTRAINTS):
        child = subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed), "--point", str(i)],
            capture_output=True, text=True, check=True,
        )
        alone = json.loads(child.stdout.strip().splitlines()[-1])
        differ = sorted(name for name in alone if alone[name] != shared[i].get(name))
        failures += bool(differ)
        print(f"max_range_km={point[0]} usable_height_fraction={point[1]}: "
              + (f"DIFFERS in {', '.join(differ)}" if differ else "equal"))
    if failures:
        print(f"{failures} of {len(TOWER_CONSTRAINTS)} points differ")
        return 1
    print(f"all {len(TOWER_CONSTRAINTS)} points equal: registry, hop graph, catalog, "
          "fiber and design records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
