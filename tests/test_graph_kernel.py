"""Tests for the shared graph kernel (repro.graph) and its consumers.

Covers the kernel's solver equivalences (CSR Dijkstra vs dense FW),
the incremental single-edge delta rule (against full recomputes),
Topology memoization, the networkx graph the netsim experiments route
over, the delta-evaluated budget evolution, the batch removal what-if
(``whatif.distances_with_edges_removed``), and the repo-wide ban on
dense Floyd-Warshall call sites outside ``src/repro/graph/``.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro.core import budget_evolution, greedy_sequence, mw_shares, shares_from_state
from repro.core.topology import Topology, mean_stretch_from_distances
from repro.graph import (
    DENSE_DENSITY_THRESHOLD,
    GraphKernel,
    edge_delta_distances,
    edge_delta_with_carry,
    graph_kernel_version,
)
from repro.graph.whatif import affected_sources, distances_with_edges_removed

from conftest import make_toy_design


def random_weights(n: int, density: float, seed: int) -> np.ndarray:
    """A random symmetric weight matrix with the given edge density."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 50.0
    full = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    w = np.full((n, n), np.inf)
    iu = np.triu_indices(n, k=1)
    keep = rng.random(len(iu[0])) < density
    # Guarantee connectivity with a path 0-1-...-(n-1).
    chain = iu[0] + 1 == iu[1]
    keep |= chain
    w[iu[0][keep], iu[1][keep]] = full[iu[0][keep], iu[1][keep]]
    w[iu[1][keep], iu[0][keep]] = full[iu[0][keep], iu[1][keep]]
    np.fill_diagonal(w, 0.0)
    return w


class TestDeltaRule:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_delta_equals_full_recompute_on_add(self, seed):
        w = random_weights(25, 0.3, seed)
        rng = np.random.default_rng(seed + 100)
        dist = GraphKernel(w).distances()
        for _ in range(5):
            a, b = rng.choice(25, size=2, replace=False)
            new_w = float(dist[a, b] * rng.uniform(0.2, 0.9))
            updated = edge_delta_distances(dist, int(a), int(b), new_w)
            w = w.copy()
            w[a, b] = w[b, a] = min(w[a, b], new_w)
            full = GraphKernel(w).distances()
            np.testing.assert_allclose(updated, full, rtol=1e-9, atol=1e-9)
            dist = updated

    def test_delta_matches_greedy_formula_bitwise(self):
        # The seed heuristic's update, verbatim: the kernel rule must be
        # bit-identical so greedy link selection cannot drift.
        w = random_weights(20, 1.0, 7)
        dist = GraphKernel(w).distances()
        a, b, mw_len = 3, 11, float(dist[3, 11]) * 0.5
        via = np.minimum(
            dist[:, a][:, None] + dist[b, :][None, :],
            dist[:, b][:, None] + dist[a, :][None, :],
        )
        expected = np.minimum(dist, via + mw_len)
        actual = edge_delta_distances(dist, a, b, mw_len)
        assert np.array_equal(expected, actual)

    def test_delta_with_carry_distances_bitwise(self):
        w = random_weights(18, 0.5, 5)
        dist = GraphKernel(w).distances()
        carry = np.zeros_like(dist)
        a, b, new_w = 2, 9, float(dist[2, 9]) * 0.4
        new_dist, _ = edge_delta_with_carry(dist, carry, a, b, new_w)
        assert np.array_equal(new_dist, edge_delta_distances(dist, a, b, new_w))

    def test_carry_tracks_edge_quantity(self):
        # Triangle: 0-1 (10), 1-2 (10); adding 0-2 at length 4 reroutes
        # the 0-2 pair over the new edge and carries its quantity.
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 10.0
        w[1, 2] = w[2, 1] = 10.0
        dist = GraphKernel(w).distances()
        carry = np.zeros_like(dist)
        new_dist, new_carry = edge_delta_with_carry(dist, carry, 0, 2, 4.0)
        assert new_dist[0, 2] == 4.0
        assert new_carry[0, 2] == 4.0       # rerouted pair carries the edge
        assert new_carry[0, 1] == 0.0       # untouched pair keeps its carry
        # 1 -> 2 now goes 1-0-2 (14 > 10 direct): not improved, carry 0.
        assert new_dist[1, 2] == 10.0
        assert new_carry[1, 2] == 0.0
        # A second, longer chain through the carried edge accumulates.
        d2, c2 = edge_delta_with_carry(new_dist, new_carry, 1, 2, 1.0)
        assert d2[0, 1] == 5.0              # 0 -[4]- 2 -[1]- 1
        assert c2[0, 1] == 5.0


class TestGraphKernel:
    @pytest.mark.parametrize("density", [0.15, 0.5, 1.0])
    def test_dijkstra_equals_dense_fw(self, density):
        w = random_weights(30, density, 42)
        dense = GraphKernel(w, method="dense").distances()
        sparse = GraphKernel(w, method="sparse").distances()
        np.testing.assert_allclose(dense, sparse, rtol=1e-9, atol=1e-9)

    def test_auto_method_matches_both(self):
        w = random_weights(30, 0.4, 3)
        auto = GraphKernel(w).distances()
        np.testing.assert_allclose(
            auto, GraphKernel(w, method="dense").distances(), rtol=1e-9
        )

    def test_distances_cached_and_readonly(self):
        k = GraphKernel(random_weights(10, 1.0, 0))
        d1 = k.distances()
        assert k.distances() is d1
        with pytest.raises(ValueError):
            d1[0, 1] = -1.0

    def test_distances_from_matches_full(self):
        w = random_weights(25, 0.4, 9)
        k = GraphKernel(w)
        rows = k.distances_from([3, 17])
        full = k.distances()
        np.testing.assert_allclose(rows[0], full[3], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(rows[1], full[17], rtol=1e-9, atol=1e-9)

    def test_path_reconstruction_length(self):
        w = random_weights(20, 0.3, 13)
        k = GraphKernel(w)
        dist = k.distances()
        for s, t in [(0, 19), (4, 12), (7, 7)]:
            path = k.path(s, t)
            assert path is not None
            assert path[0] == s and path[-1] == t
            length = sum(w[u, v] for u, v in zip(path[:-1], path[1:]))
            assert length == pytest.approx(float(dist[s, t]), rel=1e-9)

    def test_unreachable_pair(self):
        w = np.full((4, 4), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        k = GraphKernel(w)
        assert not np.isfinite(k.distances()[0, 2])
        assert k.path(0, 2) is None
        assert k.path(0, 1) == [0, 1]

    def test_dense_solve_equals_shortest_path_fw(self, small_us_scenario):
        """The dense path calls floyd_warshall itself: distances and
        predecessors equal shortest_path(method="FW") bitwise on a hybrid
        closure, two failure sets and a zero off-diagonal weight."""
        design = small_us_scenario.design_input()
        steps = greedy_sequence(design, 800.0)
        hybrid = Topology(design=design, mw_links=frozenset(s.link for s in steps))
        hybrid = np.array(hybrid.hybrid_weight_matrix())
        removed, reverted = hybrid.copy(), hybrid.copy()
        for a, b in (s.link for s in steps[:3]):
            removed[a, b] = removed[b, a] = np.inf
            reverted[a, b] = reverted[b, a] = design.fiber_km[a, b]
        zero = random_weights(12, 0.6, 5)
        zero[2, 7] = zero[7, 2] = 0.0
        for w in (hybrid, removed, reverted, zero):
            dist, pred = GraphKernel(w, method="dense").predecessors()
            dense = np.array(w)
            np.fill_diagonal(dense, 0.0)
            # repro: allow[dense-fw-ban] -- the scipy wrapper the kernel's direct floyd_warshall call replaced
            want = shortest_path(dense, method="FW", directed=False, return_predecessors=True)
            assert np.array_equal(dist, want[0]) and np.array_equal(pred, want[1])
        assert np.isinf(removed).any() and np.isinf(zero).any()

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("density", [0.15, 1.0])
    def test_distances_equal_predecessor_solve_bitwise(self, method, density):
        """distances() alone, on a shared or a distances-only kernel,
        equals the distances of the solve that fills predecessors."""
        w = random_weights(40, density, 17)
        w[3, 9] = w[9, 3] = np.inf
        want = GraphKernel(w, method=method).predecessors()[0]
        assert GraphKernel(w, method=method).distances().tobytes() == want.tobytes()
        owned = np.array(w)
        kernel = GraphKernel.distances_only(owned, method)
        got = kernel.distances()
        assert got.tobytes() == want.tobytes()
        # The matrix is taken over, not copied, and stays intact.
        assert kernel.weights is owned and not owned.flags.writeable
        assert np.array_equal(owned, w)

    def test_distances_only_rejects_auto(self):
        with pytest.raises(ValueError):
            GraphKernel.distances_only(np.zeros((3, 3)), "auto")

    def test_density_computed_once(self, monkeypatch):
        kernel = GraphKernel(random_weights(12, 0.5, 1))
        first = kernel.density()
        monkeypatch.setattr(GraphKernel, "edge_count", lambda self: pytest.fail("recounted"))
        assert kernel.density() == first

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphKernel(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            GraphKernel(np.zeros((3, 3)), method="quantum")

    def test_version_tag(self):
        assert graph_kernel_version() == "1"


class TestTopologyMemoization:
    def test_distance_matrix_memoized(self, toy_design_8):
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        d1 = topo.effective_distance_matrix()
        assert topo.effective_distance_matrix() is d1
        assert topo.hybrid_weight_matrix() is topo.hybrid_weight_matrix()
        assert topo.routed_paths() is topo.routed_paths()
        with pytest.raises(ValueError):
            d1[0, 1] = 0.0

    def test_kernel_shared_view_fresh(self, toy_design_8):
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        kernel = topo.graph_kernel()
        assert kernel is topo.graph_kernel()
        base = topo.effective_distance_matrix()
        weights = kernel.weights.copy()
        # A what-if over the shared kernel answers with a fresh matrix
        # and never leaks into the topology.
        worse = float(weights[0, 1]) * 50.0
        fresh = distances_with_edges_removed(kernel, base, [(0, 1, worse)])
        assert fresh is not base and fresh[0, 1] > base[0, 1]
        assert topo.effective_distance_matrix() is base
        assert kernel.distances() is base
        np.testing.assert_array_equal(kernel.weights, weights)

    def test_pickle_drops_cache(self, toy_design_8):
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        d1 = topo.effective_distance_matrix()
        clone = pickle.loads(pickle.dumps(topo))
        assert clone.mw_links == topo.mw_links
        np.testing.assert_array_equal(clone.effective_distance_matrix(), d1)

    def test_stretch_consistent_with_distances(self, toy_design_8):
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        expected = mean_stretch_from_distances(
            toy_design_8, topo.effective_distance_matrix()
        )
        assert topo.mean_stretch() == pytest.approx(expected, rel=1e-12)


class TestRoutedPathsDisconnected:
    def _disconnected_design(self):
        design = make_toy_design(6, seed=4)
        fiber = design.fiber_km.copy()
        mw = design.mw_km.copy()
        # Split {0,1,2} from {3,4,5}: no fiber, no MW across the cut.
        for i in range(3):
            for j in range(3, 6):
                fiber[i, j] = fiber[j, i] = np.inf
                mw[i, j] = mw[j, i] = np.inf
        return replace(design, fiber_km=fiber, mw_km=mw)

    def test_unreachable_pairs_skipped(self):
        design = self._disconnected_design()
        topo = Topology(design=design, mw_links=frozenset({(0, 1), (3, 4)}))
        routes = topo.routed_paths()
        for (s, t), path in routes.items():
            # Regression (pre-kernel bug): a -9999 predecessor stored a
            # truncated partial path instead of skipping the pair.
            assert path[0] == s and path[-1] == t
            assert (s < 3) == (t < 3), "cross-component pair got a route"
        assert ((0, 1)) in routes
        assert all((s < 3) == (t < 3) for s, t in routes)
        dist = topo.effective_distance_matrix()
        assert not np.isfinite(dist[0, 3])


class TestGraphViewConsumers:
    def _topology(self):
        design = make_toy_design(8, seed=8)
        return Topology(design=design, mw_links=frozenset({(0, 1), (2, 3)}))

    def test_view_export_matches_legacy_graph(self):
        from repro.netsim.experiments import hybrid_routing_graph

        topo = self._topology()
        graph = hybrid_routing_graph(topo)
        w = topo.hybrid_weight_matrix()
        assert graph.number_of_nodes() == 8
        for u, v, data in graph.edges(data=True):
            assert data["latency"] == pytest.approx(float(w[u, v]))
        # The design-side MW link is present at its MW length.
        design = topo.design
        if design.mw_km[0, 1] < design.fiber_km[0, 1]:
            assert graph[0][1]["latency"] == pytest.approx(
                float(design.mw_km[0, 1])
            )

    def test_routing_graph_nodes_and_edges_match_weights(self):
        """Every node, one edge per finite weight (absent pairs stay
        absent), each at its exact weight, in upper-triangle order."""
        from repro.netsim.experiments import hybrid_routing_graph

        design = TestRoutedPathsDisconnected()._disconnected_design()
        topo = Topology(design=design, mw_links=frozenset({(0, 1), (3, 4)}))
        w = topo.hybrid_weight_matrix()
        graph = hybrid_routing_graph(topo)
        assert list(graph.nodes) == list(range(6))
        iu = np.triu_indices(6, k=1)
        finite = np.isfinite(w[iu])
        assert not finite.all()
        assert graph.number_of_edges() == int(finite.sum())
        want = [
            (int(u), int(v), float(w[u, v]))
            for u, v in zip(iu[0][finite], iu[1][finite])
        ]
        assert list(graph.edges(data="latency")) == want

    def test_single_solve_any_call_order(self, toy_design_8):
        # mean_stretch + mw_shares + routed_paths chains cost one full
        # solve regardless of call order (distances piggyback on the
        # predecessor solve).
        topo = Topology(design=toy_design_8, mw_links=frozenset({(0, 1)}))
        d1 = topo.mean_stretch()
        dist_obj = topo.effective_distance_matrix()
        routes = topo.routed_paths()
        assert topo.graph_kernel().predecessors()[0] is dist_obj
        assert routes is topo.routed_paths()
        assert topo.mean_stretch() == d1


def assert_matches_per_budget_recompute(design, greedy_budget, budgets):
    """Delta-evaluated budget prefixes agree with a fresh solve of each."""
    steps = greedy_sequence(design, greedy_budget)
    points = budget_evolution(design, steps, budgets)
    assert [p.budget_towers for p in points] == budgets
    for point in points:
        links = frozenset(
            s.link for s in steps if s.cumulative_cost <= point.budget_towers
        )
        topo = Topology(design=design, mw_links=links)
        assert point.n_links == len(links)
        assert point.mean_stretch == pytest.approx(
            topo.mean_stretch(), rel=1e-9
        )
        traffic_on_mw, share = mw_shares(topo)
        assert point.traffic_on_mw == pytest.approx(traffic_on_mw, abs=1e-9)
        assert point.distance_share_mw == pytest.approx(share, abs=1e-9)


class TestBudgetEvolutionDelta:
    def test_matches_per_budget_recompute(self, toy_design_10):
        assert_matches_per_budget_recompute(
            toy_design_10, 500.0, [0.0, 120.0, 250.0, 500.0]
        )

    def test_matches_per_budget_recompute_on_us_scenario(
        self, small_us_scenario
    ):
        """A realistic prefix: the 20-city US design, greedy to 800 towers."""
        assert_matches_per_budget_recompute(
            small_us_scenario.design_input(),
            800.0,
            [0.0, 160.0, 320.0, 480.0, 640.0, 800.0],
        )

    def test_unsorted_and_duplicate_budgets(self, toy_design_10):
        steps = greedy_sequence(toy_design_10, 500.0)
        shuffled = [500.0, 0.0, 250.0, 250.0]
        points = budget_evolution(toy_design_10, steps, shuffled)
        assert [p.budget_towers for p in points] == shuffled
        by_budget = {p.budget_towers: p for p in points}
        assert points[2].n_links == points[3].n_links
        assert by_budget[0.0].n_links == 0
        assert by_budget[500.0].n_links == len(steps)

    def test_shares_from_state_matches_route_walk(self, toy_design_10):
        steps = greedy_sequence(toy_design_10, 400.0)
        links = frozenset(s.link for s in steps)
        topo = Topology(design=toy_design_10, mw_links=links)
        dist = toy_design_10.fiber_km.copy()
        np.fill_diagonal(dist, 0.0)
        carry = np.zeros_like(dist)
        for step in steps:
            a, b = step.link
            dist, carry = edge_delta_with_carry(
                dist, carry, a, b, toy_design_10.mw_km[a, b]
            )
        expected = mw_shares(topo)
        actual = shares_from_state(toy_design_10, dist, carry)
        assert actual[0] == pytest.approx(expected[0], abs=1e-9)
        assert actual[1] == pytest.approx(expected[1], abs=1e-9)


class TestNoDenseFwOutsideKernel:
    """The historical grep ban, migrated onto the AST lint engine.

    The ``dense-fw-ban`` rule flags code (imports, references,
    ``method="FW"`` arguments, getattr-style string constants) with AST
    precision instead of substring matching — a comment or docstring
    discussing Floyd-Warshall no longer trips the gate, while an
    aliased import still does.
    """

    def test_ast_rule_gate(self, tree_lint):
        """Dense Floyd-Warshall may only appear inside src/repro/graph/."""
        assert "dense-fw-ban" in tree_lint.rules_run
        findings = [f for f in tree_lint.findings if f.rule == "dense-fw-ban"]
        assert findings == [], (
            "dense FW call sites outside the graph kernel: "
            + ", ".join(f.location() for f in findings)
        )

    def test_rule_has_teeth(self, tmp_path):
        """The rule actually fires on the patterns the grep used to catch."""
        from repro.analysis import run_lint

        offender = tmp_path / "offender.py"
        offender.write_text(
            "from scipy.sparse.csgraph import floyd_warshall as fw\n"
            "import scipy.sparse.csgraph as csg\n"
            "def solve(m, sp):\n"
            "    fw(m)\n"
            "    csg.floyd_warshall(m)\n"
            '    return sp(m, method="FW")\n'
        )
        result = run_lint([tmp_path], rules=["dense-fw-ban"])
        lines = sorted(f.line for f in result.findings)
        assert lines == [1, 4, 5, 6]

    def test_rule_ignores_prose(self, tmp_path):
        """AST precision: mentions in comments/docstrings do not trip it."""
        from repro.analysis import run_lint

        clean = tmp_path / "clean.py"
        clean.write_text(
            '"""Discusses the floyd_warshall algorithm at length."""\n'
            "# floyd_warshall would be wrong here; see the graph kernel\n"
            "def nothing():\n"
            "    return None\n"
        )
        result = run_lint([tmp_path], rules=["dense-fw-ban"])
        assert result.findings == []


def reference_affected_sources(base: np.ndarray, changes) -> np.ndarray:
    """The affected-source test one changed edge at a time."""
    affected = np.zeros(base.shape[0], dtype=bool)
    for a, b, old in changes:
        da, db = base[:, a], base[:, b]
        finite = np.isfinite(da) & np.isfinite(db)
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(da), np.abs(db)))
        tight = (da + old <= db + tol) | (db + old <= da + tol)
        affected |= finite & tight
    return affected


def modified_weights(w: np.ndarray, changes) -> np.ndarray:
    """``w`` with each ``(a, b, new_weight)`` of ``changes`` applied."""
    out = w.copy()
    for a, b, new in changes:
        out[a, b] = out[b, a] = new
    return out


def removal_what_if(w: np.ndarray, changes) -> np.ndarray:
    """The what-if over a fresh kernel of ``w``, against its distances."""
    kernel = GraphKernel(w)
    return distances_with_edges_removed(kernel, kernel.distances(), changes)


class TestBatchRemoval:
    """whatif.distances_with_edges_removed: the what-if batch query."""

    @pytest.mark.parametrize("density", [0.12, 1.0])
    def test_affected_sources_match_per_edge_reference(self, density):
        w = random_weights(40, density, 21)
        w[5, 7] = w[7, 5] = np.inf  # an absent edge in the complete graph too
        base = GraphKernel(w).distances()
        rng = np.random.default_rng(22)
        iu = np.triu_indices(40, k=1)
        for _ in range(60):
            k = int(rng.integers(0, 13))
            pick = rng.choice(len(iu[0]), size=k, replace=False)
            changes = [(int(iu[0][i]), int(iu[1][i]), float(w[iu[0][i], iu[1][i]])) for i in pick]
            got = affected_sources(base, changes)
            assert got.dtype == bool and got.shape == (40,)
            assert np.array_equal(got, reference_affected_sources(base, changes))

    def test_full_solve_method_follows_the_modified_edge_count(self):
        """Removals that take a dense base below the density threshold
        solve the modified graph as GraphKernel(modified) would."""
        n = 20
        w = random_weights(n, 0.3, 23)
        kernel = GraphKernel(w)
        assert kernel.density() >= DENSE_DENSITY_THRESHOLD
        iu = np.triu_indices(n, k=1)
        present = [(int(a), int(b)) for a, b in zip(*iu) if np.isfinite(w[a, b]) and b != a + 1]
        pairs = n * (n - 1) // 2
        drop = kernel.edge_count() - int(DENSE_DENSITY_THRESHOLD * pairs) + 1
        removed = [(a, b, np.inf) for a, b in present[:drop]]
        worsened = [(a, b, float(w[a, b]) * 2.0) for a, b in present[drop : drop + 3]]
        want = GraphKernel(modified_weights(w, removed + worsened))
        assert want.density() < DENSE_DENSITY_THRESHOLD
        got = removal_what_if(w, removed + worsened)
        assert got.tobytes() == want.distances().tobytes()
        # The two methods differ in the last bits here, so the choice shows.
        dense = GraphKernel(want.weights, method="dense").distances()
        assert dense.tobytes() != got.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_matches_full_solve(self, seed):
        w = random_weights(30, 0.12, seed)
        assert GraphKernel(w).density() < DENSE_DENSITY_THRESHOLD
        rng = np.random.default_rng(seed + 50)
        iu = np.triu_indices(30, k=1)
        present = [
            (int(a), int(b))
            for a, b in zip(*iu)
            if np.isfinite(w[a, b])
        ]
        removed = [
            (*present[i], np.inf) for i in rng.choice(len(present), 4, replace=False)
        ]
        result = removal_what_if(w, removed)
        expected = GraphKernel(modified_weights(w, removed)).distances()
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_matches_exact_fallback(self, seed):
        w = random_weights(20, 0.9, seed)
        changes = [(0, 1, np.inf), (2, 5, float(w[2, 5]) * 3.0)]
        result = removal_what_if(w, changes)
        expected = GraphKernel(modified_weights(w, changes)).distances()
        assert np.array_equal(result, expected)

    def test_worsening_triples_match_set_edge(self):
        """Finite worsenings keep their edge: bitwise the full solve."""
        w = random_weights(25, 0.15, 7)
        worse = [(0, 1, float(w[0, 1]) * 2.0), (3, 4, float(w[3, 4]) + 10.0)]
        result = removal_what_if(w, worse)
        expected = GraphKernel(modified_weights(w, worse)).distances()
        assert np.array_equal(result, expected)

    def test_view_not_mutated(self):
        """The what-if solves a copy: the kernel's weights and memoized
        distances are untouched."""
        w = random_weights(15, 0.3, 3)
        kernel = GraphKernel(w)
        base = kernel.distances()
        weights = kernel.weights.copy()
        distances_with_edges_removed(kernel, base, [(0, 1, np.inf), (1, 2, np.inf)])
        assert np.array_equal(kernel.weights, weights)
        assert kernel.distances() is base

    def test_noop_edges_return_base(self):
        """No affected source: the base matrix itself, no solve."""
        for density in (0.3, 1.0):
            w = random_weights(15, density, 4)
            # Lengthen one edge until a detour beats it: worsening or
            # removing it then changes no shortest path.
            w[0, 2] = w[2, 0] = float(w[0, 1] + w[1, 2]) * 2.0
            kernel = GraphKernel(w)
            base = kernel.distances()
            assert w[0, 2] > base[0, 2] * 1.5
            for changes in ([], [(0, 2, np.inf)], [(0, 2, float(w[0, 2]) * 2.0)]):
                assert distances_with_edges_removed(kernel, base, changes) is base

    def test_result_read_only(self):
        """Both the sparse restart and the dense solve answer read-only."""
        for density in (0.15, 1.0):
            result = removal_what_if(random_weights(20, density, 8), [(0, 1, np.inf)])
            with pytest.raises(ValueError):
                result[0, 0] = 1.0

    def test_dense_base_sparse_modified_uses_exact_fallback(self):
        """Removals that cross the density threshold stay bit-exact.

        A base graph just above DENSE_DENSITY_THRESHOLD solves with
        dense FW; removing edges can push the *modified* graph below
        the threshold, where merging FW base rows with Dijkstra
        restarts would drift by ulps — the branch must follow the base
        solve.  On seed 15 such a merge differs from the full solve in
        the last bits, so a restart there shows.
        """
        for seed in (11, 15):
            w = random_weights(20, 0.27, seed)
            kernel = GraphKernel(w)
            assert kernel.density() >= DENSE_DENSITY_THRESHOLD
            iu = np.triu_indices(20, k=1)
            present = [
                (int(a), int(b))
                for a, b in zip(*iu)
                if np.isfinite(w[a, b]) and a + 1 != b  # keep the chain
            ]
            n_pairs = len(iu[0])
            excess = kernel.edge_count() - int(DENSE_DENSITY_THRESHOLD * n_pairs)
            removed = [(a, b, np.inf) for a, b in present[: excess + 2]]
            result = distances_with_edges_removed(kernel, kernel.distances(), removed)
            want = GraphKernel(modified_weights(w, removed))
            assert want.density() < DENSE_DENSITY_THRESHOLD
            assert np.array_equal(result, want.distances())
