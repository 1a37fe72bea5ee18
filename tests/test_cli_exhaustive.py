"""Tests for the CLI and the exhaustive verification oracle."""

import pytest

from repro.cli import build_parser, main
from repro.core import solve_ilp
from repro.core.exhaustive import solve_exhaustive

from conftest import make_toy_design


class TestExhaustive:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ilp_matches_ground_truth(self, seed):
        """The flow ILP reproduces the enumeration optimum exactly."""
        design = make_toy_design(6, seed=seed)
        budget = 120.0
        truth = solve_exhaustive(design, budget)
        ilp = solve_ilp(design, budget)
        assert ilp.objective == pytest.approx(truth.mean_stretch(), abs=1e-9)

    def test_budget_zero(self, toy_design_8):
        topo = solve_exhaustive(toy_design_8, 0.0, candidate_links=[(0, 1)])
        assert topo.mw_links == frozenset()

    def test_too_many_candidates_raises(self, toy_design_10):
        with pytest.raises(ValueError):
            solve_exhaustive(toy_design_10, 100.0, max_candidates=3)

    def test_negative_budget_raises(self, toy_design_8):
        with pytest.raises(ValueError):
            solve_exhaustive(toy_design_8, -1.0, candidate_links=[(0, 1)])


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["design", "--sites", "10", "--budget", "300"])
        assert args.sites == 10

    def test_econ_command(self, capsys):
        assert main(["econ", "--cost-per-gb", "0.81"]) == 0
        out = capsys.readouterr().out
        assert "web-search" in out
        assert "True" in out

    def test_design_command(self, capsys):
        assert main(["design", "--sites", "10", "--budget", "300",
                     "--gbps", "20"]) == 0
        out = capsys.readouterr().out
        assert "mean stretch" in out

    def test_design_with_map(self, capsys):
        assert main(["design", "--sites", "10", "--budget", "300",
                     "--gbps", "20", "--map"]) == 0
        out = capsys.readouterr().out
        assert "labels:" in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--sites", "10", "--max-budget", "400",
                     "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "budget_towers" in out

    def test_weather_command(self, capsys):
        assert main(["weather", "--sites", "10", "--budget", "300",
                     "--intervals", "10"]) == 0
        out = capsys.readouterr().out
        assert "fiber" in out

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["design", "--scenario", "mars"])

    def test_solvers_command_lists_all_backends(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("heuristic", "ilp", "lp_rounding", "exhaustive", "evolution"):
            assert name in out

    @pytest.mark.parametrize(
        "solver,sites",
        [
            ("heuristic", 10),
            ("ilp", 8),
            ("lp_rounding", 8),
            ("exhaustive", 5),
            ("evolution", 10),
        ],
    )
    def test_design_with_every_solver_backend(self, capsys, solver, sites):
        """All five registry backends are reachable from the CLI."""
        assert main(["design", "--sites", str(sites), "--budget", "300",
                     "--gbps", "20", "--solver", solver]) == 0
        out = capsys.readouterr().out
        assert f"solver:          {solver}" in out
        assert "mean stretch" in out

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["design", "--solver", "annealing"])

    @pytest.mark.parametrize("solver", ["ilp", "evolution"])
    def test_refine_with_another_solver_exits(self, solver):
        """``--refine`` is the heuristic's; no other backend drops it."""
        with pytest.raises(SystemExit, match=f"--solver {solver} takes no --refine"):
            main(["design", "--solver", solver, "--refine", "--no-cache"])

    @pytest.mark.parametrize("loads", ["0.3,,0.6", "0.3,", ""])
    def test_empty_load_entry_exits(self, capsys, loads):
        with pytest.raises(SystemExit) as info:
            main(["netsim", "--loads", loads, "--no-cache"])
        assert info.value.code == 2
        assert "argument --loads: empty entry" in capsys.readouterr().err
