"""Array-native flow tables: struct-of-arrays validation, pool rows as
the solver's commodities, the solver against the scalar
``max_min_rates`` oracle (UDP and TCP), and the hoisted load-curve
invariants."""

import dataclasses

import numpy as np
import pytest

from repro.exp.spec import ExperimentSpec, NetsimSpec
from repro.netsim import (
    EdgeSpec,
    FlowTable,
    FluidNetwork,
    PathPool,
    aggregate_capacities,
    build_edge_specs,
    run_load_curve,
    solve_fluid,
    solve_fluid_tcp,
)
from repro.netsim import experiments, flowtable
from repro.netsim.experiments import kept_flow_table
from repro.netsim.fluid import _CommodityProblem
from repro.traffic import mixed_matrix, user_demand_matrix

from fluid_reference import FluidFlow, flows_to_table, max_min_rates


def table_flows(table):
    """A FlowTable's flows as a ``FluidFlow`` list, in table order."""
    return [
        FluidFlow(int(fid), table.pool.path_names(int(p)), float(d))
        for fid, p, d in zip(table.flow_ids, table.path_id, table.demand_bps)
    ]


def ring_capacities(n_nodes, rng):
    nodes = [f"n{i}" for i in range(n_nodes)]
    capacities = {}
    for i in range(n_nodes):
        u, v = nodes[i], nodes[(i + 1) % n_nodes]
        capacities[(u, v)] = float(rng.uniform(1.0, 20.0))
        capacities[(v, u)] = float(rng.uniform(1.0, 20.0))
    return nodes, capacities


def random_table_workload(seed, n_nodes=10, n_paths=18, n_flows=70):
    """A random ring workload as (capacities, FlowTable, FluidFlow list).

    The list is derived from the table, so the two forms describe the
    same workload by construction.
    """
    rng = np.random.default_rng(seed)
    nodes, capacities = ring_capacities(n_nodes, rng)
    paths = []
    for _ in range(n_paths):
        start = int(rng.integers(0, n_nodes))
        hops = int(rng.integers(1, min(4, n_nodes - 1) + 1))
        paths.append(tuple(nodes[(start + j) % n_nodes] for j in range(hops + 1)))
    pool = PathPool.from_paths(paths, node_names=tuple(nodes))
    table = FlowTable(
        pool=pool,
        path_id=rng.integers(0, n_paths, size=n_flows),
        demand_bps=rng.uniform(0.05, 12.0, size=n_flows),
        flow_ids=np.arange(n_flows),
    )
    return capacities, table, table_flows(table)


def specs_from_capacities(capacities, delay_s=1e-3):
    # One spec per undirected pair; aggregate_capacities re-derives the
    # directed map.  Use symmetric capacities to keep them equivalent.
    specs = []
    seen = set()
    for (u, v), cap in capacities.items():
        if (v, u) in seen:
            continue
        seen.add((u, v))
        specs.append(
            EdgeSpec(a=u, b=v, rate_bps=cap, delay_s=delay_s, queue_capacity=10)
        )
    return specs


def symmetric_ring(seed, n_nodes=10):
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(n_nodes)]
    capacities = {}
    for i in range(n_nodes):
        u, v = nodes[i], nodes[(i + 1) % n_nodes]
        cap = float(rng.uniform(1.0, 20.0))
        capacities[(u, v)] = cap
        capacities[(v, u)] = cap
    return nodes, capacities


class TestPathPool:
    def test_from_paths_round_trip(self):
        paths = [("a", "b", "c"), ("c", "a"), ("b", "c")]
        pool = PathPool.from_paths(paths)
        assert pool.n_paths == 3
        assert pool.lengths().tolist() == [3, 2, 2]
        assert [pool.path_names(i) for i in range(3)] == paths

    def test_from_paths_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="not in node_names"):
            PathPool.from_paths([("a", "x")], node_names=("a", "b"))

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            PathPool(node_names=("a",), nodes=np.array([0]), indptr=np.array([1, 1]))
        with pytest.raises(ValueError):
            PathPool(node_names=("a",), nodes=np.array([0]), indptr=np.array([0, 2]))

    def test_node_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="name table"):
            PathPool(node_names=("a",), nodes=np.array([1]), indptr=np.array([0, 1]))

    def test_gather_edges_traversal_order(self):
        pool = PathPool.from_paths([("a", "b", "c"), ("b", "a")])
        edge_u, edge_v, indptr = pool.gather_edges(np.array([1, 0]))
        assert indptr.tolist() == [0, 1, 3]
        names = pool.node_names
        got = [(names[u], names[v]) for u, v in zip(edge_u, edge_v)]
        assert got == [("b", "a"), ("a", "b"), ("b", "c")]

    def test_edge_simple_mask(self):
        pool = PathPool.from_paths(
            [("a", "b", "a", "b"), ("a", "b", "a"), ("a", "b")]
        )
        mask = pool.edge_simple_mask(np.arange(3))
        assert mask.tolist() == [False, True, True]

    def test_within_mask(self):
        pool = PathPool.from_paths([("a", "b"), ("b", "c"), ("a", "c")])
        ok = np.array([name != "c" for name in pool.node_names])
        assert pool.within_mask(ok).tolist() == [True, False, False]


class TestFlowTableValidation:
    def make_pool(self):
        return PathPool.from_paths([("a", "b"), ("a", "b", "a", "b")])

    def test_non_positive_demand_rejected(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="offered rate must be positive"):
            FlowTable(pool, np.array([0]), np.array([0.0]), np.array([0]))

    def test_short_path_rejected(self):
        pool = PathPool.from_paths([("a",)])
        with pytest.raises(ValueError, match="at least two nodes"):
            FlowTable(pool, np.array([0]), np.array([1.0]), np.array([0]))

    def test_repeated_edge_path_rejected_with_flow_id(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="flow 7 path.*edge-simple"):
            FlowTable(
                pool,
                np.array([0, 1]),
                np.array([1.0, 1.0]),
                np.array([3, 7]),
            )

    def test_path_id_out_of_pool_rejected(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="outside the pool"):
            FlowTable(pool, np.array([5]), np.array([1.0]), np.array([0]))

    def test_mismatched_columns_rejected(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="equal length"):
            FlowTable(pool, np.array([0]), np.array([1.0, 2.0]), np.array([0]))


class TestToCommodities:
    """Pool rows become commodities inside ``_CommodityProblem``."""

    def test_first_seen_order_and_collapse(self):
        pool = PathPool.from_paths([("a", "b"), ("b", "c"), ("a", "b", "c")])
        table = FlowTable(
            pool,
            path_id=np.array([2, 0, 2, 1, 0]),
            demand_bps=np.ones(5),
            flow_ids=np.arange(5),
        )
        capacities = {("a", "b"): 1.0, ("b", "c"): 1.0}
        problem = _CommodityProblem(FluidNetwork(capacities), table)
        # Commodities in first-seen flow order: row 2, then 0, then 1.
        assert problem.commodity_path.tolist() == [2, 0, 1]
        assert problem.flow_commodity.tolist() == [0, 1, 0, 2, 1]

    def test_unknown_link_message_matches_object_path(self):
        pool = PathPool.from_paths([("a", "b"), ("a", "z", "b")])
        table = FlowTable(
            pool,
            path_id=np.array([0, 1]),
            demand_bps=np.array([1.0, 1.0]),
            flow_ids=np.array([10, 11]),
        )
        capacities = {("a", "b"): 1.0, ("b", "a"): 1.0}
        with pytest.raises(KeyError) as table_err:
            _CommodityProblem(FluidNetwork(capacities), table)
        with pytest.raises(KeyError) as object_err:
            max_min_rates(
                capacities,
                [
                    FluidFlow(10, ("a", "b"), 1.0),
                    FluidFlow(11, ("a", "z", "b"), 1.0),
                ],
            )
        assert str(table_err.value) == str(object_err.value)
        assert "flow 11" in str(table_err.value)


class TestFromFlows:
    def test_commodities_in_first_seen_path_value_order(self):
        # Equal path values from distinct tuple objects share one row.
        flows = [
            FluidFlow(5, ("b", "c"), 1.0),
            FluidFlow(6, ("a", "b", "c"), 2.0),
            FluidFlow(7, tuple(["b", "c"]), 3.0),
            FluidFlow(8, ("a", "b"), 4.0),
            FluidFlow(9, ("a", "b", "c"), 5.0),
        ]
        table = flows_to_table(flows)
        assert table.flow_ids.tolist() == [5, 6, 7, 8, 9]
        assert table.demand_bps.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        capacities = {("a", "b"): 1.0, ("b", "c"): 1.0}
        problem = _CommodityProblem(FluidNetwork(capacities), table)
        paths = [table.pool.path_names(int(p)) for p in problem.commodity_path]
        assert paths == [("b", "c"), ("a", "b", "c"), ("a", "b")]
        assert problem.flow_commodity.tolist() == [0, 1, 0, 2, 1]

    def test_unknown_link_names_first_flow_and_link(self):
        # The first offending path in flow order wins; the message names
        # the first flow on it and its first unknown link, as the scalar
        # reference does.
        specs = [EdgeSpec("a", "b", 1.0, 1e-3)]
        flows = [
            FluidFlow(1, ("a", "b"), 1.0),
            FluidFlow(2, ("b", "a", "x", "y"), 1.0),
            FluidFlow(3, ("a", "y"), 1.0),
            FluidFlow(4, ("b", "a", "x", "y"), 1.0),
        ]
        with pytest.raises(KeyError) as err:
            solve_fluid(FluidNetwork.from_specs(specs), flows_to_table(flows))
        assert err.value.args[0] == "flow 2 uses unknown link a->x"
        capacities, _delays = aggregate_capacities(specs)
        with pytest.raises(KeyError) as oracle_err:
            max_min_rates(capacities, flows)
        assert oracle_err.value.args == err.value.args

    def test_empty_list_solves(self):
        network = FluidNetwork.from_specs([EdgeSpec("a", "b", 1.0, 1e-3)])
        res = solve_fluid(network, flows_to_table([]))
        assert res.n_flows == 0
        assert res.rates_by_flow() == {}


class TestDuplicateFlowIds:
    """Two flows sharing id 7 on a 10 bps link used to be accepted: the
    dict view dropped one and the offered total undercounted."""

    def test_flow_table_rejects_repeated_id(self):
        pool = PathPool.from_paths([("a", "b")])
        with pytest.raises(
            ValueError, match="^flow_ids must be unique: flow 7 repeats$"
        ):
            FlowTable(pool, np.array([0, 0]), np.array([8.0, 8.0]),
                      np.array([7, 7]))

    def test_solve_fluid_rejects_repeated_flow_objects(self):
        network = FluidNetwork.from_specs([EdgeSpec("a", "b", 10.0, 1e-3)])
        flows = [FluidFlow(7, ("a", "b"), 8.0), FluidFlow(7, ("a", "b"), 8.0)]
        with pytest.raises(
            ValueError, match="^flow_ids must be unique: flow 7 repeats$"
        ):
            solve_fluid(network, flows_to_table(flows))

    def test_first_repeat_in_table_order_is_named(self):
        pool = PathPool.from_paths([("a", "b")])
        with pytest.raises(ValueError, match="flow 9 repeats"):
            FlowTable(pool, np.zeros(5, dtype=int), np.ones(5),
                      np.array([9, 4, 9, 4, 1]))


def assert_results_identical(a, b):
    """Every field and aggregate of two fluid results, bit for bit."""
    assert a.flow_ids.tolist() == b.flow_ids.tolist()
    assert a.rates_bps.tolist() == b.rates_bps.tolist()
    assert a.offered_bps.tolist() == b.offered_bps.tolist()
    assert a.latencies_s.tolist() == b.latencies_s.tolist()
    assert a.link_utilization == b.link_utilization
    assert a.loss_rate == b.loss_rate
    assert a.mean_latency_s() == b.mean_latency_s()
    assert a.max_link_utilization == b.max_link_utilization


def assert_matches_oracle(got, expected):
    assert set(got) == set(expected)
    for fid, rate in expected.items():
        assert got[fid] == pytest.approx(rate, rel=1e-6, abs=1e-9)


class TestBitIdenticalRates:
    @pytest.mark.parametrize("seed", range(10))
    def test_vectorized_rates_bit_identical(self, seed):
        # The scalar oracle agrees with the solver to float noise.
        capacities, table, flows = random_table_workload(seed)
        rates = solve_fluid(FluidNetwork(capacities), table).rates_bps.tolist()
        got = dict(zip(table.flow_ids.tolist(), rates))
        assert_matches_oracle(got, max_min_rates(capacities, flows))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("solver", ["vectorized", "scalar"])
    def test_solve_fluid_bit_identical(self, seed, solver):
        # The network built from edge specs solves bit for bit like the
        # one built from their directed capacity map; the scalar oracle
        # agrees to float noise.
        capacities, table, flows = random_table_workload(100 + seed)
        specs = specs_from_capacities(capacities)
        tab = solve_fluid(FluidNetwork.from_specs(specs), table)
        directed, _delays = aggregate_capacities(specs)
        if solver == "vectorized":
            expected = solve_fluid(FluidNetwork(directed), table)
            assert tab.rates_by_flow() == expected.rates_by_flow()
        else:
            assert_matches_oracle(
                tab.rates_by_flow(), max_min_rates(directed, flows)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_fluid_tcp_bit_identical(self, seed):
        # Symmetric capacities: spec expansion must reproduce the map.
        _nodes, capacities = symmetric_ring(seed)
        _cap2, table, flows = random_table_workload(seed)
        del _cap2
        specs = specs_from_capacities(capacities)
        tab = solve_fluid_tcp(FluidNetwork.from_specs(specs), table)
        # The converged TCP offers are max-min allocated like any offer.
        directed, _delays = aggregate_capacities(specs)
        offers = [
            FluidFlow(f.flow_id, f.path, float(o))
            for f, o in zip(flows, tab.offered_bps)
        ]
        assert_matches_oracle(
            tab.rates_by_flow(), max_min_rates(directed, offers)
        )

    def test_duplicate_pairs_shared_vs_unshared_paths(self):
        """Adversarial: many flows on the same (src, dst) pair.

        Shared path rows, duplicated-value path rows, and a distinct
        route for the same pair must all match the scalar oracle.
        """
        nodes, capacities = symmetric_ring(42, n_nodes=6)
        specs = specs_from_capacities(capacities)
        direct = ("n0", "n1")
        around = tuple(["n0"] + [f"n{i}" for i in range(5, 0, -1)])
        pool = PathPool.from_paths(
            [direct, direct, around], node_names=tuple(nodes)
        )
        # 12 flows, all n0 -> n1: four on pool row 0, four on the
        # value-identical row 1, four on the long way around.
        path_id = np.array([0, 1, 2] * 4)
        demand = np.linspace(0.5, 6.0, 12)
        table = FlowTable(pool, path_id, demand, np.arange(12))
        tab = solve_fluid(FluidNetwork.from_specs(specs), table)
        directed, _delays = aggregate_capacities(specs)
        assert_matches_oracle(
            tab.rates_by_flow(), max_min_rates(directed, table_flows(table))
        )

    def test_empty_table_solves(self):
        pool = PathPool.from_paths([("a", "b")])
        empty = np.empty(0, dtype=np.int64)
        table = FlowTable(pool, empty, np.empty(0), empty)
        network = FluidNetwork.from_specs(
            [EdgeSpec(a="a", b="b", rate_bps=1.0, delay_s=1e-3, queue_capacity=10)]
        )
        res = solve_fluid(network, table)
        assert res.n_flows == 0
        assert res.loss_rate == 0.0
        tcp = solve_fluid_tcp(network, table)
        assert tcp.n_flows == 0


class TestWithDemands:
    def test_with_demands_replaces_only_demands(self):
        _cap, table, _flows = random_table_workload(5)
        new = table.with_demands(np.full(table.n_flows, 2.5))
        assert new.demand_bps.tolist() == [2.5] * table.n_flows
        assert new.path_id.tolist() == table.path_id.tolist()
        with pytest.raises(ValueError, match="positive"):
            table.with_demands(np.zeros(table.n_flows))

    @pytest.mark.parametrize(
        "make_demands, message",
        [
            (lambda n: np.ones((n, 2)), "^demand_bps must be one-dimensional$"),
            (lambda n: np.ones(n + 1), "^flow columns must have equal length$"),
            (lambda n: np.zeros(n), "^offered rate must be positive$"),
            (lambda n: np.full(n, -1.0), "^offered rate must be positive$"),
            (lambda n: np.full(n, np.nan), "^offered rate must be positive$"),
            (lambda n: np.full(n, np.inf), "^offered rate must be finite$"),
        ],
        ids=["2d", "wrong-length", "zero", "negative", "nan", "inf"],
    )
    def test_with_demands_checks_the_new_column(self, make_demands, message):
        table = random_table_workload(5)[1]
        with pytest.raises(ValueError, match=message):
            table.with_demands(make_demands(table.n_flows))

    def test_with_demands_skips_path_checks_and_shares_columns(self, monkeypatch):
        table = random_table_workload(5)[1]
        calls = []
        real = flowtable._check_used_paths

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(flowtable, "_check_used_paths", counting)
        new = table.with_demands(np.full(table.n_flows, 2.5))
        assert calls == []
        assert new.pool is table.pool
        assert new.path_id is table.path_id
        assert new.flow_ids is table.flow_ids
        assert table.demand_bps.tolist() != new.demand_bps.tolist()


def kept_flow_shares(routes, traffic, node_names, min_flow_rate_fraction):
    """Per-pair scalar reference for ``kept_flow_table``."""
    total_h = np.triu(traffic, k=1).sum()
    kept = []
    kept_mass = 0.0
    for (s, t), path in routes.items():
        h = traffic[s, t] / total_h
        if h < min_flow_rate_fraction:
            continue
        node_path = tuple(str(v) for v in path)
        if any(name not in node_names for name in node_path):
            continue
        kept.append(((s, t), node_path, h))
        kept_mass += h
    return kept, kept_mass


class TestKeptFlowTable:
    def make_routes(self):
        routes = {
            (0, 1): [0, 1],
            (0, 2): [0, 1, 2],
            (1, 2): [1, 2],
            (0, 3): [0, 3],
        }
        traffic = np.zeros((4, 4))
        for (s, t), w in [((0, 1), 4.0), ((0, 2), 3.0), ((1, 2), 2.0),
                          ((0, 3), 1.0)]:
            traffic[s, t] = traffic[t, s] = w
        return routes, traffic

    def test_matches_kept_flow_shares(self):
        routes, traffic = self.make_routes()
        names = {"0", "1", "2"}  # node 3 outside the simulated set
        kept, mass = kept_flow_shares(routes, traffic, names, 0.25)
        # (1, 2) falls under the cutoff; (0, 3) leaves the node set.
        assert [pair for pair, _path, _h in kept] == [(0, 1), (0, 2)]
        pool, path_ids, shares, table_mass = kept_flow_table(
            routes, traffic, names, 0.25
        )
        assert table_mass == mass  # bit-identical accumulation
        assert len(path_ids) == len(kept)
        for i, ((_pair, node_path, h)) in enumerate(kept):
            assert pool.path_names(int(path_ids[i])) == node_path
            assert shares[i] == h

    def test_cutoff_and_node_filter(self):
        routes, traffic = self.make_routes()
        all_names = {"0", "1", "2", "3"}
        _pool, path_ids, _shares, _mass = kept_flow_table(
            routes, traffic, all_names, 0.35
        )
        # Only the (0, 1) share (0.4) survives a 0.35 cutoff.
        assert len(path_ids) == 1


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def designed(self, small_us_scenario):
        from repro.core import solve_heuristic

        topo = solve_heuristic(
            small_us_scenario.design_input(), 800.0, ilp_refinement=False
        ).topology
        return topo

    @staticmethod
    def per_flow_result(topology, load, transport, traffic=None,
                        aggregate_gbps=50.0):
        """The load point solved from a hand-built ``FluidFlow`` list:
        one flow per kept pair with a positive rate, numbered by its
        position among the kept pairs, converted by ``flows_to_table``."""
        specs = build_edge_specs(topology, 50.0, rate_scale=1e-4)
        names = {s.a for s in specs} | {s.b for s in specs}
        pool, path_ids, shares, mass = kept_flow_table(
            topology.routed_paths(),
            topology.design.traffic if traffic is None else traffic,
            names, 2e-4,
        )
        offered = aggregate_gbps * 1e9 * 1e-4 * load
        flows = [
            FluidFlow(i, pool.path_names(int(p)), offered * h / mass)
            for i, (p, h) in enumerate(zip(path_ids, shares.tolist()))
            if offered * h / mass > 0
        ]
        solve = solve_fluid_tcp if transport == "tcp" else solve_fluid
        return solve(FluidNetwork.from_specs(specs), flows_to_table(flows))

    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_table_workload_bit_identical_records(self, designed, transport):
        (res,) = run_load_curve(
            designed, 50.0, [0.9], engine="fluid", transport=transport
        )
        ref = self.per_flow_result(designed, 0.9, transport)
        assert res["mean_delay_ms"] == ref.mean_latency_s() * 1000.0
        assert res["loss_rate"] == ref.loss_rate
        assert res["max_link_utilization"] == ref.max_link_utilization

    def test_table_workload_users_model(self, designed):
        (res,) = run_load_curve(
            designed, 50.0, [0.8], engine="fluid", demand_model="users",
            users_millions=2.0,
        )
        traffic, aggregate = user_demand_matrix(
            list(designed.design.sites), hour_utc=20.0, seed=0,
            users_millions=2.0,
        )
        ref = self.per_flow_result(
            designed, 0.8, "udp", traffic=traffic, aggregate_gbps=aggregate
        )
        assert res["loss_rate"] == ref.loss_rate
        assert res["max_link_utilization"] == ref.max_link_utilization

    def test_unknown_workload_rejected(self, designed):
        # The workload knob is gone; passing it is an error, not a no-op.
        with pytest.raises(TypeError, match="workload"):
            run_load_curve(
                designed, 50.0, [0.5], engine="fluid", workload="table"
            )

    def test_load_curve_hoisting_keeps_records_unchanged(self, designed):
        """The hoisted invariants must not change a single record value
        vs running each load point standalone (fresh setup per call).
        The second call shape is Fig 5's and Fig 11's: packet engine,
        tight links, an explicit offered matrix and a larger rate
        scale."""
        loads = (0.4, 0.8, 1.1)
        traffic = designed.design.traffic
        ring = np.roll(np.eye(len(traffic)), 1, axis=1)
        fig5 = {
            "engine": "packet", "duration_s": 0.05, "seed": 3,
            "capacity_mode": "tight", "rate_scale": 3e-3,
            "offered_traffic": mixed_matrix([(traffic, 4.0), (ring + ring.T, 1.0)]),
        }
        for kwargs in ({"engine": "fluid"}, fig5):
            curve = run_load_curve(designed, 50.0, loads, **kwargs)
            assert [row["load"] for row in curve] == list(loads)
            for row, load in zip(curve, loads):
                assert [row] == run_load_curve(designed, 50.0, [load], **kwargs)

    def test_network_built_once_per_fluid_curve(self, designed, monkeypatch):
        builds = []
        real = FluidNetwork.from_specs.__func__

        def counting(cls, specs):
            builds.append(len(specs))
            return real(cls, specs)

        monkeypatch.setattr(
            experiments.FluidNetwork, "from_specs", classmethod(counting)
        )
        run_load_curve(designed, 50.0, (0.4, 0.8, 1.1), engine="fluid",
                       transport="tcp")
        assert len(builds) == 1
        run_load_curve(designed, 50.0, (0.4, 0.8), engine="packet",
                       duration_s=0.02)
        assert len(builds) == 1


class TestSpecKnobs:
    def test_defaults(self):
        # The defaults carry no timing knob: a spec that still sets the
        # deleted ``profile`` field fails at parse time, by name.
        with pytest.raises(
            ValueError, match="unknown netsim spec field\\(s\\): profile"
        ):
            ExperimentSpec.from_dict(
                {"netsim": {"engine": "fluid", "profile": True}}
            )

    def test_unknown_workload_rejected(self):
        # Specs written for the removed knob fail loudly, never silently.
        with pytest.raises(
            ValueError, match="unknown netsim spec field\\(s\\): workload"
        ):
            ExperimentSpec.from_dict(
                {"netsim": {"engine": "fluid", "workload": "table"}}
            )

    def test_round_trips_canonical_form(self):
        spec = ExperimentSpec(netsim=NetsimSpec(engine="fluid", transport="tcp"))
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec


class TestValidationDedup:
    def test_shared_path_objects_validate_once(self):
        # A FluidFlow list with many flows sharing one path tuple
        # converts to a single pool row and commodity.
        path = ("a", "b", "c")
        flows = [FluidFlow(i, path, 1.0 + i) for i in range(200)]
        specs = [
            EdgeSpec(a="a", b="b", rate_bps=50.0, delay_s=1e-3,
                     queue_capacity=10),
            EdgeSpec(a="b", b="c", rate_bps=50.0, delay_s=1e-3,
                     queue_capacity=10),
        ]
        table = flows_to_table(flows)
        assert table.pool.n_paths == 1
        res = solve_fluid(FluidNetwork.from_specs(specs), table)
        assert len(res.rates_by_flow()) == 200

    def test_unknown_link_still_detected(self):
        path = ("a", "x")
        with pytest.raises(KeyError, match="unknown link"):
            max_min_rates({("a", "b"): 1.0}, [FluidFlow(0, path, 1.0)])

    def test_table_is_frozen(self):
        _cap, table, _flows = random_table_workload(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.path_id = None
