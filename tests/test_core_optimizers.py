"""Tests for the exact ILP, the cISP heuristic, and LP rounding.

The central reproduction claims (paper §3.2, Fig 2):
* the heuristic's stretch matches the exact ILP's to two decimals;
* the pruning oracle preserves optimality;
* LP rounding is no better than the ILP (and typically worse);
* greedy prefixes give the whole budget curve.
"""

import numpy as np
import pytest

from repro.core import (
    Topology,
    fiber_only_topology,
    greedy_sequence,
    prune_useless_links,
    solve_heuristic,
    solve_ilp,
    solve_lp_rounding,
)
from repro.core.ilp import useful_arcs_for_commodity

from conftest import make_toy_design


class TestPruning:
    def test_useless_links_are_dominated(self, toy_design_8):
        useful = set(prune_useless_links(toy_design_8))
        for a, b in toy_design_8.candidate_links():
            dominated = (
                toy_design_8.mw_km[a, b] >= toy_design_8.fiber_km[a, b] - 1e-9
            )
            assert ((a, b) not in useful) == dominated

    def test_commodity_arcs_always_include_direct_fiber(self, toy_design_8):
        links = prune_useless_links(toy_design_8)
        _, fiber_arcs = useful_arcs_for_commodity(toy_design_8, 0, 5, links)
        assert (0, 5) in fiber_arcs

    def test_pruning_preserves_ilp_optimum(self):
        design = make_toy_design(7, seed=3)
        budget = 140.0
        with_pruning = solve_ilp(design, budget, use_pruning=True)
        without = solve_ilp(design, budget, use_pruning=False, time_limit_s=300)
        assert with_pruning.objective == pytest.approx(without.objective, abs=1e-6)

    def test_pruning_shrinks_problem(self):
        design = make_toy_design(7, seed=3)
        pruned = solve_ilp(design, 100.0, use_pruning=True)
        full = solve_ilp(design, 100.0, use_pruning=False, time_limit_s=300)
        assert pruned.n_variables < full.n_variables


class TestIlp:
    def test_budget_respected(self):
        design = make_toy_design(8, seed=5)
        budget = 120.0
        res = solve_ilp(design, budget)
        assert res.topology.total_cost_towers <= budget + 1e-9

    def test_zero_budget_gives_fiber_only(self, toy_design_8):
        res = solve_ilp(toy_design_8, 0.0)
        assert res.topology.mw_links == frozenset()
        fiber = fiber_only_topology(toy_design_8).mean_stretch()
        assert res.objective == pytest.approx(fiber)

    def test_negative_budget_raises(self, toy_design_8):
        with pytest.raises(ValueError):
            solve_ilp(toy_design_8, -1.0)

    def test_objective_matches_topology_stretch(self):
        design = make_toy_design(8, seed=5)
        res = solve_ilp(design, 150.0)
        assert res.objective == pytest.approx(res.topology.mean_stretch(), abs=1e-6)

    def test_monotone_in_budget(self):
        design = make_toy_design(8, seed=6)
        objectives = [solve_ilp(design, b).objective for b in (0.0, 100.0, 200.0)]
        assert objectives[0] >= objectives[1] >= objectives[2]

    def test_huge_budget_builds_everything_useful(self):
        design = make_toy_design(6, seed=7)
        res = solve_ilp(design, 10_000.0)
        # With an unconstrained budget, stretch approaches the best
        # possible: every pair uses the better of MW direct and hybrid.
        best = Topology(
            design=design, mw_links=frozenset(prune_useless_links(design))
        ).mean_stretch()
        assert res.objective == pytest.approx(best, abs=1e-6)


class TestHeuristicVsIlp:
    """Fig 2(b): the heuristic matches the ILP to two decimal places."""

    @pytest.mark.parametrize("n,seed", [(6, 1), (7, 2), (8, 3), (9, 4), (10, 5)])
    def test_matches_exact_ilp(self, n, seed):
        design = make_toy_design(n, seed=seed)
        budget = 25.0 * n
        exact = solve_ilp(design, budget, time_limit_s=300)
        heur = solve_heuristic(design, budget)
        assert heur.objective == pytest.approx(exact.objective, abs=5e-3)

    def test_heuristic_budget_respected(self):
        design = make_toy_design(10, seed=11)
        budget = 200.0
        heur = solve_heuristic(design, budget)
        assert heur.topology.total_cost_towers <= budget + 1e-9

    def test_greedy_only_mode(self):
        design = make_toy_design(10, seed=12)
        res = solve_heuristic(design, 200.0, ilp_refinement=False)
        assert not res.used_ilp_refinement
        assert res.topology.total_cost_towers <= 200.0

    def test_bad_inflation_raises(self, toy_design_8):
        with pytest.raises(ValueError):
            solve_heuristic(toy_design_8, 100.0, inflation=0.5)

    def test_nan_inflation_raises(self, toy_design_8):
        # NaN passed the `inflation < 1` check.
        with pytest.raises(ValueError, match="inflation"):
            solve_heuristic(toy_design_8, 100.0, inflation=float("nan"))

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_bad_budget_raises(self, toy_design_8, budget):
        # Both used to return an empty topology.
        with pytest.raises(ValueError, match="budget_towers"):
            solve_heuristic(toy_design_8, budget)


class TestGreedy:
    def test_sequence_monotone_stretch(self, toy_design_10):
        steps = greedy_sequence(toy_design_10, 400.0)
        stretches = [s.mean_stretch for s in steps]
        assert stretches == sorted(stretches, reverse=True)

    def test_cumulative_cost_increasing_and_bounded(self, toy_design_10):
        budget = 300.0
        steps = greedy_sequence(toy_design_10, budget)
        costs = [s.cumulative_cost for s in steps]
        assert costs == sorted(costs)
        assert costs[-1] <= budget

    def test_prefix_property(self, toy_design_10):
        """A greedy run at a large budget contains the small-budget run
        as a prefix (what makes one run produce the whole Fig 4a curve)."""
        small = greedy_sequence(toy_design_10, 150.0)
        large = greedy_sequence(toy_design_10, 400.0)
        small_links = [s.link for s in small]
        large_links = [s.link for s in large]
        # Skipping (affordability) can reorder the tail; the prefix
        # before the first skip must agree.
        k = 0
        while k < len(small_links) and small_links[k] == large_links[k]:
            k += 1
        assert k >= max(1, len(small_links) - 2)

    def test_gain_per_cost_variant(self, toy_design_10):
        steps = greedy_sequence(toy_design_10, 300.0, selection="gain_per_cost")
        assert steps
        assert steps[-1].cumulative_cost <= 300.0

    def test_invalid_selection_raises(self, toy_design_8):
        with pytest.raises(ValueError):
            greedy_sequence(toy_design_8, 100.0, selection="magic")

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_bad_budget_raises(self, toy_design_8, budget):
        # Every `spent + cost > nan` is False: a NaN budget bought every
        # link; a negative one silently picked nothing.
        with pytest.raises(ValueError, match="budget_towers"):
            greedy_sequence(toy_design_8, budget)

    def test_reversed_candidate_raises(self, toy_design_8):
        # (3, 1) used to be accepted and emitted as a pick.
        with pytest.raises(ValueError, match="candidates"):
            greedy_sequence(toy_design_8, 1000.0, candidates=[(1, 3), (3, 1)])

    def test_out_of_range_candidate_raises(self, toy_design_8):
        # Used to raise a bare IndexError from the cost lookup.
        with pytest.raises(ValueError, match="candidates"):
            greedy_sequence(toy_design_8, 1000.0, candidates=[(1, 8)])

    def test_first_pick_is_best_single_link(self, toy_design_8):
        steps = greedy_sequence(toy_design_8, 10_000.0)
        # Recompute by brute force: the first greedy pick must achieve
        # the largest single-link stretch reduction.
        base = fiber_only_topology(toy_design_8).mean_stretch()
        gains = {}
        for a, b in prune_useless_links(toy_design_8):
            topo = Topology(design=toy_design_8, mw_links=frozenset({(a, b)}))
            gains[(a, b)] = base - topo.mean_stretch()
        best = max(gains, key=gains.get)
        assert steps[0].link == best
        assert gains[steps[0].link] == pytest.approx(max(gains.values()))


class TestLpRounding:
    def test_respects_budget(self):
        design = make_toy_design(8, seed=21)
        res = solve_lp_rounding(design, 150.0)
        assert res.topology.total_cost_towers <= 150.0 + 1e-9

    def test_lp_bound_below_ilp(self):
        design = make_toy_design(8, seed=22)
        budget = 150.0
        lp = solve_lp_rounding(design, budget)
        ilp = solve_ilp(design, budget)
        # Fractional LP is a lower bound; the rounded solution is no
        # better than the exact ILP.
        assert lp.lp_objective <= ilp.objective + 1e-6
        assert lp.objective >= ilp.objective - 1e-6

    def test_invalid_threshold(self, toy_design_8):
        with pytest.raises(ValueError):
            solve_lp_rounding(toy_design_8, 100.0, threshold=0.0)
