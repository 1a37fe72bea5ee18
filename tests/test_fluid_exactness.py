"""Bit-exactness of the fluid fill and its accounting.

``_progressive_fill`` drops frozen commodities from one link-major
incidence by an nnz mask, recounts each link's active flows only after
rounds that changed them, reads the commodities to freeze off the
saturated links' rows, and takes unloaded and saturated links out of
the share minimum and the saturation test with +inf instead of masks.
``solve_fluid`` sums latencies and link loads with ``bincount`` and
the link-major matvec.  This module keeps the earlier forms as
references and checks the fast paths against them bit for bit:

* ``reference_fill``: three scipy matvecs per round over the
  commodity-major incidence and its transpose, every share and
  saturation test over all links, and a transpose rebuilt at each
  compaction;
* ``reference_path_costs`` / ``reference_link_loads``: the
  ``incidence @`` and ``incidence.T @`` forms.

Run as a script for the flagship-scale check (every solve of the four
``diurnal-fluid`` hours on the 120-city US design, and the 10^6-flow
table problem of ``benchmarks/bench_flow_table.py``)::

    PYTHONPATH=src python tests/test_fluid_exactness.py --seed 7
"""

from __future__ import annotations

import argparse
import copy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.netsim import (
    EdgeSpec,
    FlowTable,
    FluidNetwork,
    run_udp_experiment,
    solve_fluid,
)
from repro.netsim import fluid
from repro.netsim.flows import DEFAULT_UDP_PACKET_BYTES
from repro.netsim.fluid import _CommodityProblem, _progressive_fill

from fluid_reference import FluidFlow, flows_to_table
from test_flow_table import random_table_workload, specs_from_capacities
from test_fluid_engine import random_workload

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# References


def reference_incidence(problem: _CommodityProblem) -> sparse.csr_matrix:
    """The commodity-major CSR incidence, links in traversal order."""
    return sparse.csr_matrix(
        (np.ones(len(problem.links)), problem.links, problem.indptr),
        shape=(problem.n_commodities, len(problem.capacities)),
    )


def reference_fill(problem: _CommodityProblem) -> np.ndarray:
    """Progressive filling with whole-matrix matvecs in every round."""
    order = np.argsort(problem.demands, kind="stable")
    sorted_demands = problem.demands[order]
    sorted_commodity = problem.flow_commodity[order]

    n_c = problem.n_commodities
    inc = reference_incidence(problem)
    inc_t = inc.T.tocsr()
    k = np.zeros(n_c, dtype=np.int64)
    np.add.at(k, problem.flow_commodity, 1)
    k = k.astype(float)
    col_map = np.arange(n_c, dtype=np.int64)
    orig_to_cur = np.arange(n_c, dtype=np.int64)

    theta = np.full(n_c, np.inf)
    residual = problem.capacities.astype(float).copy()
    eps_link = fluid._EPS_BPS + fluid._EPS_REL * problem.capacities
    link_done = np.zeros(len(problem.capacities), dtype=bool)

    level = 0.0
    ptr = 0
    while k.any():
        counts = inc_t @ k
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(counts > 0, residual / np.maximum(counts, 1.0), np.inf)
        delta = max(float(share.min(initial=np.inf)), 0.0)
        if not np.isfinite(delta):
            break
        new_level = level + delta

        new_ptr = int(np.searchsorted(sorted_demands, new_level, side="right"))
        increment = k * delta
        crossed = 0
        if new_ptr > ptr:
            cz_orig = sorted_commodity[ptr:new_ptr]
            cz_cur = orig_to_cur[cz_orig]
            live = cz_cur >= 0
            cz_cur = cz_cur[live]
            crossed = len(cz_cur)
            if crossed:
                overshoot = new_level - sorted_demands[ptr:new_ptr][live]
                np.subtract.at(increment, cz_cur, overshoot)
                np.subtract.at(k, cz_cur, 1.0)
        residual -= inc_t @ increment
        level = new_level
        ptr = new_ptr

        saturated = (residual <= eps_link) & ~link_done
        froze_any = False
        if saturated.any():
            link_done |= saturated
            touched = inc @ saturated.astype(float)
            newly = (touched > 0) & (k > 0)
            if newly.any():
                froze_any = True
                frozen_orig = col_map[newly]
                theta[frozen_orig] = level
                k[newly] = 0.0
                orig_to_cur[frozen_orig] = -1
        if delta <= 0.0 and crossed == 0 and not froze_any:
            remaining = k > 0
            theta[col_map[remaining]] = level
            k[remaining] = 0.0
            break

        active = k > 0
        n_active = int(active.sum())
        if n_active and n_active * 2 <= len(k):
            inc = inc[active]
            inc_t = inc.T.tocsr()
            k = k[active]
            col_map = col_map[active]
            orig_to_cur = np.full(n_c, -1, dtype=np.int64)
            orig_to_cur[col_map] = np.arange(len(col_map), dtype=np.int64)

    return np.minimum(problem.demands, theta[problem.flow_commodity])


def reference_path_costs(problem: _CommodityProblem, per_link: np.ndarray):
    return reference_incidence(problem) @ per_link


def reference_link_loads(problem: _CommodityProblem, flow_rates: np.ndarray):
    commodity_rates = np.zeros(problem.n_commodities)
    np.add.at(commodity_rates, problem.flow_commodity, flow_rates)
    return reference_incidence(problem).T @ commodity_rates


def fill_equals_reference(network: FluidNetwork, flows: FlowTable) -> np.ndarray:
    """Fill one workload both ways; fail unless the rates are bitwise equal."""
    problem = _CommodityProblem(network, flows)
    got = _progressive_fill(problem)
    want = reference_fill(problem)
    assert got.tobytes() == want.tobytes()
    return got


class Recorder:
    """Wraps ``solve_fluid`` and records every (network, table) it solves."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __call__(self, network, flows):
        self.calls.append((network, flows))
        return solve_fluid(network, flows)

    def install(self, monkeypatch) -> None:
        monkeypatch.setattr("repro.netsim.tcpmodel.solve_fluid", self)
        monkeypatch.setattr("repro.netsim.experiments.solve_fluid", self)


# ---------------------------------------------------------------------------
# Random and adversarial workloads


class TestRandomWorkloads:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_workload(self, seed):
        capacities, flows = random_workload(np.random.default_rng(seed))
        fill_equals_reference(FluidNetwork(capacities), flows_to_table(flows))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_table_workload(self, seed):
        capacities, table, _flows = random_table_workload(seed)
        fill_equals_reference(FluidNetwork(capacities), table)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_flow_commodities_with_tied_demands(self, seed):
        # Few paths, many flows each, demands from four values: whole
        # groups of tied flows cross in one round, several per commodity.
        rng = np.random.default_rng(300 + seed)
        capacities, table, _flows = random_table_workload(
            seed, n_paths=6, n_flows=120
        )
        table = FlowTable(
            pool=table.pool,
            path_id=table.path_id,
            demand_bps=rng.choice([0.5, 1.25, 2.5, 40.0], size=table.n_flows),
            flow_ids=table.flow_ids,
        )
        network = FluidNetwork(capacities)
        assert _CommodityProblem(network, table).n_commodities < table.n_flows // 4
        fill_equals_reference(network, table)

    def test_compaction_branch(self, monkeypatch):
        drops: list[int] = []
        real = fluid._drop_columns

        def counting(matrix, keep_columns, n_kept):
            drops.append(n_kept)
            return real(matrix, keep_columns, n_kept)

        monkeypatch.setattr(fluid, "_drop_columns", counting)
        capacities, table, _flows = random_table_workload(
            7, n_nodes=16, n_paths=200, n_flows=600
        )
        fill_equals_reference(FluidNetwork(capacities), table)
        assert len(drops) >= 3

    def test_safety_valve_branch(self, monkeypatch):
        # With positive capacities every loaded link's residual exceeds
        # eps when a round starts, so delta > 0 and the valve cannot
        # fire.  A negative eps disables saturation: round one fills
        # the link to zero without freezing anything, and round two
        # finds no progress and freezes both flows at the level.
        monkeypatch.setattr(fluid, "_EPS_BPS", -1.0)
        monkeypatch.setattr(fluid, "_EPS_REL", 0.0)
        flows = [FluidFlow(1, ("A", "B"), 10.0), FluidFlow(2, ("A", "B"), 10.0)]
        rates = fill_equals_reference(
            FluidNetwork({("A", "B"): 4.0}), flows_to_table(flows)
        )
        assert rates.tolist() == [2.0, 2.0]


# ---------------------------------------------------------------------------
# A diurnal TCP load point


class TestDiurnalTcpLoadPoint:
    @pytest.fixture(scope="class")
    def topology(self, small_us_scenario):
        from repro.core import solve_heuristic

        return solve_heuristic(
            small_us_scenario.design_input(), 800.0, ilp_refinement=False
        ).topology

    def test_every_iterate_equals_reference(self, topology, monkeypatch):
        recorder = Recorder()
        recorder.install(monkeypatch)
        run_udp_experiment(
            topology, 50.0, 1.2, engine="fluid", transport="tcp",
            demand_model="users", users_millions=10.0, demand_hour_utc=20.0,
        )
        assert len(recorder.calls) >= 3
        network = recorder.calls[0][0]
        assert all(call[0] is network for call in recorder.calls)
        for network, table in recorder.calls:
            fill_equals_reference(network, table)


# ---------------------------------------------------------------------------
# Latencies and link loads


class TestAccounting:
    @pytest.mark.parametrize("seed", range(6))
    def test_path_costs_and_link_loads_equal_matvec_forms(self, seed):
        capacities, table, _flows = random_table_workload(200 + seed)
        problem = _CommodityProblem(FluidNetwork(capacities), table)
        per_link = np.random.default_rng(seed).uniform(1e-4, 3e-2, len(capacities))
        assert (
            problem.path_costs(per_link).tobytes()
            == reference_path_costs(problem, per_link).tobytes()
        )
        rates = _progressive_fill(problem)
        assert (
            problem.link_loads(rates).tobytes()
            == reference_link_loads(problem, rates).tobytes()
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_fluid_latencies_and_utilization(self, seed):
        capacities, table, _flows = random_table_workload(400 + seed)
        specs = specs_from_capacities(capacities)
        for i, spec in enumerate(specs):
            specs[i] = EdgeSpec(spec.a, spec.b, spec.rate_bps, 1e-3 * (1 + i % 5))
        network = FluidNetwork.from_specs(specs)
        result = solve_fluid(network, table)
        problem = _CommodityProblem(network, table)
        per_link = network.delays + DEFAULT_UDP_PACKET_BYTES * 8 / network.capacities
        latencies = reference_path_costs(problem, per_link)[problem.flow_commodity]
        assert result.latencies_s.tobytes() == latencies.tobytes()
        loads = reference_link_loads(problem, reference_fill(problem))
        assert result.link_utilization == {
            network.link_keys[i]: float(loads[i] / network.capacities[i])
            for i in np.flatnonzero(loads > 0)
        }


# ---------------------------------------------------------------------------
# Flagship-scale check


def diurnal_problems(seed: int) -> list[tuple]:
    """Every (network, table) that ``solve_fluid`` solves in the four
    ``diurnal-fluid`` hours at ``seed``, from the ledger's own spec."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))
    from workloads import BY_NAME

    from repro.exp import ArtifactStore, ExperimentSpec, run_experiment

    workload = BY_NAME["diurnal-fluid"]
    ((path, values),) = workload.axes.items()
    section, field = path.split(".")
    recorder = Recorder()
    patch = pytest.MonkeyPatch()
    recorder.install(patch)
    try:
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            for value in values:
                spec = copy.deepcopy(workload.spec_for(seed))
                spec[section][field] = value
                run_experiment(ExperimentSpec.from_dict(spec), store=store)
    finally:
        patch.undo()
    return recorder.calls


def million_flow_problem() -> tuple[FluidNetwork, FlowTable]:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_flow_table as bench

    home, capacities = bench.million_flow_network()
    src, dst, demands = bench.build_raw_million_flow_demands()
    table = bench.million_flow_table(src, dst, demands, home)
    return FluidNetwork(capacities), table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check every diurnal-fluid solve on the 120-city US design, "
        "and the 10^6-flow table problem, against the reference fill."
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (default 7)")
    args = parser.parse_args(argv)

    calls = diurnal_problems(args.seed)
    for network, table in calls:
        fill_equals_reference(network, table)
    print(f"diurnal-fluid: {len(calls)} solves equal the reference")

    network, table = million_flow_problem()
    fill_equals_reference(network, table)
    print(
        f"flow table: {table.n_flows} flows, {table.pool.n_paths} commodities "
        "equal the reference"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
