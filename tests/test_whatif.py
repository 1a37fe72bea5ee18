"""FailureSetSolver: route selection, delta parity, and the LRU budget."""

import gc
import weakref

import numpy as np
import pytest

from repro.graph import (
    ByteBudgetLRU,
    FailureSetSolver,
    GraphKernel,
    GraphView,
)
from repro.graph import whatif

from test_graph_kernel import random_weights


def present_links(w: np.ndarray) -> list[tuple[int, int]]:
    iu = np.triu_indices(w.shape[0], k=1)
    return [
        (int(a), int(b)) for a, b in zip(*iu) if np.isfinite(w[a, b])
    ]


def reference_distances(w: np.ndarray, failed, fail_weight) -> np.ndarray:
    """Independent full solve of the query graph (no solver involved)."""
    modified = w.copy()
    for a, b in failed:
        value = np.inf if fail_weight is None else fail_weight(a, b)
        modified[a, b] = modified[b, a] = value
    return GraphKernel(modified).distances()


def flap_sequence(links, seed: int, steps: int, flaps: int = 2):
    """A randomized storm track: flip 1..flaps links per step."""
    rng = np.random.default_rng(seed)
    current: set = set()
    out = []
    for _ in range(steps):
        for _ in range(rng.integers(1, flaps + 1)):
            current.symmetric_difference_update(
                [links[rng.integers(len(links))]]
            )
        out.append(frozenset(current))
    return out


class TestRouteParity:
    """Memo, delta, and full-solve routes agree to <= 1e-9."""

    @pytest.mark.parametrize("density", [0.12, 0.5, 0.95])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_flap_sequence(self, density, seed):
        w = random_weights(28, density, seed)
        view = GraphView(w)
        solver = FailureSetSolver(view, fail_weight=None, delta_k=2)
        links = present_links(w)
        for query in flap_sequence(links, seed + 100, steps=40):
            got = solver.distances_for(query)
            want = reference_distances(w, query, None)
            both = np.isfinite(got) & np.isfinite(want)
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            np.testing.assert_allclose(
                got[both], want[both], rtol=1e-9, atol=1e-9
            )
        stats = solver.stats()
        # A 1-2 link flap walk must actually ride the delta route.
        assert stats["delta_solves"] > 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_finite_fail_weights(self, seed):
        """Fiber-revert style failures (finite worsened weight)."""
        w = random_weights(24, 0.3, seed)
        fail = lambda a, b: 500.0  # noqa: E731 — worse than any distance
        view = GraphView(w)
        solver = FailureSetSolver(view, fail_weight=fail, delta_k=2)
        links = present_links(w)
        for query in flap_sequence(links, seed + 7, steps=30):
            got = solver.distances_for(query)
            want = reference_distances(w, query, fail)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        assert solver.stats()["delta_solves"] > 0

    def test_removal_only_delta_bitwise_on_sparse_base(self):
        """A pure-removal delta from a sparse base is bit-identical to
        the full solve — it runs the very machinery behind
        ``distances_with_edges_removed``."""
        w = random_weights(30, 0.12, 5)
        links = present_links(w)
        query = frozenset(links[:2])
        delta = FailureSetSolver(GraphView(w), delta_k=2)
        full = FailureSetSolver(GraphView(w), delta_k=0)
        got = delta.distances_for(query)
        want = full.distances_for(query)
        assert delta.stats()["delta_solves"] == 1
        assert full.stats()["full_solves"] == 1
        assert np.array_equal(got, want)

    def test_deterministic_across_identical_solvers(self):
        """Same config + same query sequence -> bitwise-identical arrays."""
        w = random_weights(25, 0.4, 6)
        links = present_links(w)
        queries = flap_sequence(links, 11, steps=25)
        a = FailureSetSolver(GraphView(w), delta_k=2)
        b = FailureSetSolver(GraphView(w), delta_k=2)
        for query in queries:
            assert np.array_equal(
                a.distances_for(query), b.distances_for(query)
            )
        assert a.stats() == b.stats()


class TestRouteSelection:
    def test_memo_hits_return_same_array(self):
        w = random_weights(20, 0.3, 0)
        solver = FailureSetSolver(GraphView(w), delta_k=2)
        query = frozenset(present_links(w)[:1])
        first = solver.distances_for(query)
        assert solver.distances_for(query) is first
        assert solver.stats()["memo_hits"] == 1

    def test_empty_set_is_the_pinned_base(self):
        w = random_weights(20, 0.3, 1)
        view = GraphView(w)
        solver = FailureSetSolver(view, delta_k=2)
        assert solver.distances_for(frozenset()) is view.distances()
        assert solver.stats()["memo_hits"] == 1
        assert solver.stats()["full_solves"] == 0

    def test_nearest_neighbor_not_the_previous_query(self):
        """Adversarial: the best neighbor is an *older* cached set.

        After solving {x} and then {a, b, c, d} (far from everything),
        the query {x, y, z} must delta from {x} (symdiff 2) — not from
        the most recent solve (symdiff 7), and not from the base
        (symdiff 3 > delta_k).  Sparse base: removal restarts are
        never cost-gated there, so the route choice is pure.
        """
        w = random_weights(26, 0.12, 2)
        links = present_links(w)
        x, y, z, a, b, c, d = links[:7]
        solver = FailureSetSolver(GraphView(w), delta_k=2)
        solver.distances_for(frozenset([x]))
        solver.distances_for(frozenset([a, b, c, d]))
        stats = solver.stats()
        got = solver.distances_for(frozenset([x, y, z]))
        after = solver.stats()
        assert after["delta_solves"] == stats["delta_solves"] + 1
        assert after["full_solves"] == stats["full_solves"]
        want = reference_distances(w, [x, y, z], None)
        both = np.isfinite(got) & np.isfinite(want)
        np.testing.assert_allclose(got[both], want[both], rtol=1e-9, atol=1e-9)
        # And the delta really came from {x}: a solver that never saw
        # {x} has no neighbor within delta_k for the same query and
        # must pay another full solve (a padded union fallback).
        other = FailureSetSolver(GraphView(w), delta_k=2)
        other.distances_for(frozenset([a, b, c, d]))
        other.distances_for(frozenset([x, y, z]))
        assert other.stats()["full_solves"] == 2
        assert other.stats()["union_solves"] >= 1

    def test_delta_k_zero_is_memo_only(self):
        w = random_weights(22, 0.3, 3)
        links = present_links(w)
        solver = FailureSetSolver(GraphView(w), delta_k=0)
        for query in flap_sequence(links, 5, steps=15):
            solver.distances_for(query)
        stats = solver.stats()
        assert stats["delta_solves"] == 0
        assert stats["full_solves"] > 0

    def test_canonicalization(self):
        """Mirrored endpoints and no-op links collapse to one key."""
        w = random_weights(20, 0.3, 4)
        (a, b), *_ = present_links(w)
        iu = np.triu_indices(20, k=1)
        absent = next(
            (int(s), int(t)) for s, t in zip(*iu) if not np.isfinite(w[s, t])
        )
        solver = FailureSetSolver(GraphView(w), delta_k=2)
        first = solver.distances_for(frozenset([(a, b)]))
        assert solver.distances_for(frozenset([(b, a)])) is first
        assert solver.distances_for(frozenset([(a, b), absent])) is first
        assert solver.stats()["memo_hits"] == 2

    def test_improving_fail_weight_rejected(self):
        w = random_weights(20, 0.3, 5)
        (a, b), *_ = present_links(w)
        solver = FailureSetSolver(
            GraphView(w), fail_weight=lambda s, t: 0.0
        )
        with pytest.raises(ValueError, match="improves"):
            solver.distances_for(frozenset([(a, b)]))

    def test_mutated_view_rejected(self):
        w = random_weights(20, 0.3, 6)
        (a, b), *_ = present_links(w)
        view = GraphView(w)
        solver = FailureSetSolver(view, delta_k=2)
        view.set_edge(a, b, float(w[a, b]) * 2.0)
        with pytest.raises(RuntimeError, match="mutated"):
            solver.distances_for(frozenset())

    def test_max_chain_forces_periodic_full_solves(self, monkeypatch):
        # Sparse base: every removal restart is in budget, so the walk
        # rides delta chains until MAX_CHAIN alone forces the resets.
        monkeypatch.setattr(whatif, "MAX_CHAIN", 4)
        w = random_weights(30, 0.12, 7)
        links = present_links(w)
        solver = FailureSetSolver(GraphView(w), delta_k=2)
        # A long walk of fresh single-link additions builds delta
        # chains; once every reachable neighbor sits at the depth cap,
        # the walk must reset with a full solve.
        current: set = set()
        for link in links[:18]:
            current.add(link)
            solver.distances_for(frozenset(current))
        assert solver.stats()["full_solves"] >= 3
        assert solver.stats()["delta_solves"] > 0


class TestByteBudget:
    def test_lru_eviction_under_budget(self):
        value = np.zeros(128)  # 1024 bytes each
        lru = ByteBudgetLRU(3 * value.nbytes)
        evicted = [lru.put(key, value.copy()) for key in "abcd"]
        assert evicted == [[], [], [], ["a"]]
        assert len(lru) == 3
        assert "a" not in lru  # least recently used went first
        assert lru.evictions == 1
        assert lru.bytes_held == 3 * value.nbytes

    def test_get_refreshes_recency(self):
        value = np.zeros(16)
        lru = ByteBudgetLRU(2 * value.nbytes)
        lru.put("a", value.copy())
        lru.put("b", value.copy())
        assert lru.get("a") is not None
        lru.put("c", value.copy())
        assert "a" in lru and "b" not in lru

    def test_pinned_keys_survive(self):
        value = np.zeros(64)
        lru = ByteBudgetLRU(2 * value.nbytes)
        lru.pin("base")
        lru.put("base", value.copy())
        for key in "abcde":
            lru.put(key, value.copy())
        assert "base" in lru

    @pytest.mark.parametrize(
        "budget", [float("nan"), -1, "100", True], ids=["nan", "negative", "str", "bool"]
    )
    def test_budget_must_be_none_or_a_non_negative_number(self, budget):
        # NaN used to pass the `< 0` check and act as a zero budget.
        with pytest.raises(
            ValueError, match="^budget_bytes must be None or a number >= 0, got "
        ):
            ByteBudgetLRU(budget)

    def test_unbounded_zero_and_infinite_budgets_accepted(self):
        for budget in (None, 0, 0.0, float("inf"), np.int64(5)):
            ByteBudgetLRU(budget)

    def test_solver_rejects_nan_cache_bytes(self):
        view = GraphView(random_weights(8, 0.5, 1))
        with pytest.raises(ValueError, match="^budget_bytes must be None or a number"):
            FailureSetSolver(view, cache_bytes=float("nan"))

    def test_solver_evicts_but_stays_correct(self):
        w = random_weights(24, 0.3, 8)
        links = present_links(w)
        n = w.shape[0]
        matrix_bytes = n * n * 8
        view = GraphView(w)
        # Room for the pinned base plus ~3 query matrices.
        solver = FailureSetSolver(
            view, delta_k=2, cache_bytes=4 * matrix_bytes
        )
        queries = flap_sequence(links, 13, steps=30)
        for query in queries:
            solver.distances_for(query)
        stats = solver.stats()
        assert stats["evictions"] > 0
        assert stats["cached_sets"] <= 5
        assert frozenset() in solver.cached_failure_sets()
        # Evicted or not, every query still answers correctly.
        for query in queries[:5]:
            want = reference_distances(w, query, None)
            got = solver.distances_for(query)
            both = np.isfinite(got) & np.isfinite(want)
            np.testing.assert_allclose(
                got[both], want[both], rtol=1e-9, atol=1e-9
            )

    def test_dropped_solver_frees_its_cache_at_once(self):
        """No reference cycle: the cached matrices die with the solver,
        not at the next full garbage collection."""
        w = random_weights(24, 0.3, 8)
        solver = FailureSetSolver(
            GraphView(w), delta_k=2, cache_bytes=4 * w.size * 8
        )
        for query in flap_sequence(present_links(w), 13, steps=30):
            solver.distances_for(query)
        assert solver.stats()["evictions"] > 0
        alive = weakref.ref(solver)
        gc.disable()
        try:
            del solver
            assert alive() is None
        finally:
            gc.enable()

    def test_evaluator_stretch_cache_is_bounded(self):
        """The weather evaluator's stretch cache honors cache_mb."""
        pytest.importorskip("scipy")
        from repro.graph.whatif import ByteBudgetLRU as LRU

        lru = LRU(0)
        lru.pin(frozenset())
        lru.put(frozenset(), np.zeros(8))
        lru.put(frozenset([(0, 1)]), np.zeros(8))
        # Zero budget: only the pinned key and the newest entry remain.
        assert len(lru) == 2
        lru.put(frozenset([(2, 3)]), np.zeros(8))
        assert frozenset([(0, 1)]) not in lru
