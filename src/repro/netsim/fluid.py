"""Fluid-approximation engine: max-min fair flow rates (fast path).

For sweeps where per-packet fidelity is unnecessary (Fig 11/13-scale
load scans), solving the steady-state fluid allocation is orders of
magnitude cheaper than simulating every packet.  Flows are modelled as
fluids on their fixed paths; link bandwidth is shared max-min fairly
(progressive filling, Bertsekas & Gallager §6.5): all unfrozen flows
ramp together until a link saturates or a flow hits its offered rate,
the constrained flows freeze, and filling continues with the rest.

Two implementations of the same allocation live here:

* ``solve_fluid`` / ``max_min_rates_table`` — the commodity-aggregate
  solver over a :class:`~repro.netsim.flowtable.FlowTable`: flows
  sharing a path collapse into one demand row, path->link incidence is
  a scipy sparse matrix, and every progressive-filling round is
  whole-array numpy work.  Because all unfrozen flows always sit at one
  *global* fill level, a flow's final rate is ``min(demand, theta_P)``
  where ``theta_P`` is the fill level at which its path's first link
  saturated — so the solve only tracks per-commodity freeze levels plus
  a single globally demand-sorted flow array, and demand-limited flows
  freeze in bulk per round.  This is what makes million-flow commodity
  aggregates tractable (see ``benchmarks/bench_flow_table.py``).
  A ``FluidFlow`` list is accepted too; it converts to a table once, at
  the API edge.
* ``max_min_rates`` — the scalar reference: explicit per-round Python
  loops over a residual-capacity dict.  Exact and readable; O(rounds x
  (flows + links)) interpreter work, so it is the oracle that tests and
  benchmarks compare the solver against, not a scale path.

The engine consumes the same :class:`~repro.netsim.network.EdgeSpec`
capacities and node paths as the packet engine, so an experiment can
switch between ``engine="packet"`` and ``engine="fluid"`` behind one
API (see :func:`repro.netsim.experiments.run_udp_experiment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np
from scipy import sparse

from .flowtable import CommodityTable, FlowTable
from .network import EdgeSpec

#: Rate slack treated as saturation (absolute, bits/second).
_EPS_BPS = 1e-9

#: Relative capacity slack treated as saturation (scales the absolute
#: epsilon up for multi-gigabit links, where float64 resolution alone
#: exceeds 1e-9 bps).
_EPS_REL = 1e-12

#: Allocations may exceed capacity by at most this relative slack; more
#: is a solver bug and fails loudly (never clamped away in reporting).
CAPACITY_SLACK_REL = 1e-9


@dataclass(frozen=True)
class FluidFlow:
    """One fluid demand.

    Attributes:
        flow_id: unique id.
        path: node names from source to destination.  The path must be
            edge-simple (no directed link twice): allocation treats a
            path as a *set* of links, so a repeated edge would receive
            half the load the latency/utilization accounting charges it.
        offered_bps: the flow's offered (maximum) rate.
    """

    flow_id: int
    path: tuple[str, ...]
    offered_bps: float

    def __post_init__(self) -> None:
        if self.offered_bps <= 0:
            raise ValueError("offered rate must be positive")
        if len(self.path) < 2:
            raise ValueError("path needs at least two nodes")
        if not _path_is_edge_simple(self.path):
            raise ValueError(
                f"flow {self.flow_id} path repeats a directed link; "
                "fluid paths must be edge-simple"
            )


@lru_cache(maxsize=65536)
def _path_is_edge_simple(path: tuple[str, ...]) -> bool:
    """Whether a path repeats no directed link (cached by path value).

    Workloads routinely hand the same path tuple to thousands of flows;
    caching by value means the O(len) set-build runs once per distinct
    path instead of once per flow.
    """
    edges = list(zip(path[:-1], path[1:]))
    return len(set(edges)) == len(edges)


@dataclass(frozen=True)
class FluidResult:
    """Steady-state max-min allocation for one workload, as arrays.

    Entry ``i`` of ``rates_bps`` / ``offered_bps`` / ``latencies_s``
    belongs to ``flow_ids[i]``, in the order the workload listed its
    flows; :meth:`rates_by_flow` gives the dict view.  Aggregates sum
    sequentially in flow order, so they do not depend on numpy's
    pairwise summation.

    Attributes:
        flow_ids: caller-visible flow ids.
        rates_bps: allocated rate per flow.
        offered_bps: offered rate per flow.
        latencies_s: static per-flow path latency (propagation plus one
            packet serialization per hop; queueing is not modelled).
        link_utilization: per directed link, allocated load / capacity —
            the *true* ratio.  The solver guarantees it never exceeds
            ``1 + CAPACITY_SLACK_REL``; an over-allocation is a bug and
            raises rather than being clamped out of sight.
        timings_s: wall-clock seconds per solve phase (``setup_s`` —
            problem construction, ``fill_s`` — progressive filling,
            ``freeze_s`` — result accounting).  Excluded from equality:
            two solves of the same workload are the same result however
            long they took.
    """

    flow_ids: np.ndarray
    rates_bps: np.ndarray
    offered_bps: np.ndarray
    latencies_s: np.ndarray
    link_utilization: dict[tuple[str, str], float]
    timings_s: dict[str, float] | None = field(default=None, compare=False)

    @property
    def n_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def total_offered_bps(self) -> float:
        return float(sum(self.offered_bps.tolist()))

    @property
    def total_rate_bps(self) -> float:
        return float(sum(self.rates_bps.tolist()))

    @property
    def loss_rate(self) -> float:
        """Offered load the allocation could not carry, as a fraction."""
        offered = self.total_offered_bps
        if offered <= 0:
            return 0.0
        return max(0.0, 1.0 - self.total_rate_bps / offered)

    @property
    def mean_rate_bps(self) -> float:
        if self.n_flows == 0:
            return 0.0
        return self.total_rate_bps / self.n_flows

    @property
    def max_link_utilization(self) -> float:
        return max(self.link_utilization.values(), default=0.0)

    def mean_latency_s(self) -> float:
        """Throughput-weighted mean path latency."""
        total = self.total_rate_bps
        if total <= 0:
            return 0.0
        return float(sum((self.latencies_s * self.rates_bps).tolist())) / total

    def rates_by_flow(self) -> dict[int, float]:
        """The dict form of the rates (oracle checks, small workloads)."""
        return dict(zip(self.flow_ids.tolist(), self.rates_bps.tolist()))


def _check_flows(
    capacities_bps: dict[tuple[str, str], float],
    flows: list[FluidFlow],
) -> None:
    # Flows sharing a path object share its validity; checking each
    # distinct path once (by identity) keeps shared-path workloads from
    # re-walking the same links per flow.
    seen: set[int] = set()
    for flow in flows:
        path = flow.path
        if id(path) in seen:
            continue
        seen.add(id(path))
        for u, v in zip(path[:-1], path[1:]):
            if (u, v) not in capacities_bps:
                raise KeyError(f"flow {flow.flow_id} uses unknown link {u}->{v}")


def max_min_rates(
    capacities_bps: dict[tuple[str, str], float],
    flows: list[FluidFlow],
) -> dict[int, float]:
    """Max-min fair rates via progressive filling (scalar reference).

    Args:
        capacities_bps: directed link capacities keyed by (u, v).
        flows: the demands; a flow freezes early when its allocation
            reaches ``offered_bps`` (demand-limited flows don't hog
            their bottleneck share).

    Each round freezes at least one flow (bottlenecked or satisfied),
    so the loop runs at most ``len(flows)`` times over the link set.
    Bottleneck detection is two-pass: the first pass finds the minimum
    fair share over all loaded links, the realized step is the minimum
    of that and the demand step, and only then are links within epsilon
    of the realized step collected as bottlenecks — a link whose share
    falls just *below* the demand step can never be filled past its
    residual (the historical epsilon-asymmetric bug).
    """
    _check_flows(capacities_bps, flows)

    alloc = {flow.flow_id: 0.0 for flow in flows}
    remaining = {flow.flow_id: flow.offered_bps for flow in flows}
    residual = dict(capacities_bps)
    on_link: dict[tuple[str, str], set[int]] = {}
    for flow in flows:
        for u, v in zip(flow.path[:-1], flow.path[1:]):
            on_link.setdefault((u, v), set()).add(flow.flow_id)
    active = set(alloc)

    while active:
        # The largest uniform increment every active flow can take.
        demand_step = min(remaining[fid] for fid in active)
        # Pass 1: the minimum fair share over all loaded links.
        min_share = float("inf")
        for link, users in on_link.items():
            if not users:
                continue
            share = residual[link] / len(users)
            if share < min_share:
                min_share = share
        step = max(min(demand_step, min_share), 0.0)
        # Pass 2: every link within epsilon of the realized step is a
        # bottleneck (epsilon-symmetric: the step itself never exceeds
        # any link's share, so no residual is driven below zero).
        bottlenecks = [
            link
            for link, users in on_link.items()
            if users and residual[link] / len(users) <= step + _EPS_BPS
        ]
        for fid in active:
            alloc[fid] += step
            remaining[fid] -= step
        for link, users in on_link.items():
            if users:
                residual[link] -= step * len(users)

        frozen = {fid for fid in active if remaining[fid] <= _EPS_BPS}
        for link in bottlenecks:
            frozen |= on_link[link]
        if not frozen:  # numerical safety: freeze everything and stop
            frozen = set(active)
        for fid in frozen:
            for link, users in on_link.items():
                users.discard(fid)
        active -= frozen
    return alloc


class _CommodityProblem:
    """Flows collapsed into path commodities over an indexed link set.

    Built once per solve from a :class:`CommodityTable`: each commodity
    becomes one incidence row (its flows' demands stay individually
    visible to the filling loop via one globally demand-sorted array),
    links become dense capacity / delay arrays, and path->link
    membership becomes a CSR matrix ``incidence`` of shape
    (n_commodities, n_links).

    Construction is all-array: path edges come from the pool in one
    gather, the link lookup is a searchsorted over integer edge codes,
    and the CSR incidence lands with columns in traversal order and rows
    in the table's first-seen commodity order.
    """

    def __init__(
        self,
        capacities_bps: dict[tuple[str, str], float],
        table: CommodityTable,
    ) -> None:
        self.link_keys = list(capacities_bps)
        self.capacities = np.array(
            [capacities_bps[key] for key in self.link_keys], dtype=float
        )
        pool = table.pool
        n_names = len(pool.node_names)
        name_id = {name: i for i, name in enumerate(pool.node_names)}
        # Integer code u_id * n + v_id per capacity link; links naming
        # nodes outside the pool get unique negative codes (no pool
        # path can ever reference them, they just keep the table total).
        link_codes = np.empty(len(self.link_keys), dtype=np.int64)
        for i, (u, v) in enumerate(self.link_keys):
            ui = name_id.get(u)
            vi = name_id.get(v)
            link_codes[i] = (
                ui * n_names + vi if ui is not None and vi is not None else -(i + 1)
            )
        code_order = np.argsort(link_codes, kind="stable")
        sorted_codes = link_codes[code_order]

        edge_u, edge_v, edge_indptr = pool.gather_edges(table.commodity_path)
        codes = edge_u * n_names + edge_v
        pos = np.searchsorted(sorted_codes, codes)
        pos = np.minimum(pos, max(len(sorted_codes) - 1, 0))
        if len(sorted_codes):
            bad = sorted_codes[pos] != codes
        else:
            bad = np.ones(len(codes), dtype=bool)
        if bad.any():
            # Report the first offense in (commodity, traversal) order.
            first = int(np.argmax(bad))
            commodity = int(np.searchsorted(edge_indptr, first, side="right")) - 1
            fid = int(table.first_flow_ids()[commodity])
            u = pool.node_names[int(edge_u[first])]
            v = pool.node_names[int(edge_v[first])]
            raise KeyError(f"flow {fid} uses unknown link {u}->{v}")
        indices = code_order[pos].astype(np.int64)
        self.flow_ids = table.flow_ids
        self.demands = table.demand_bps
        self.flow_commodity = table.flow_commodity
        self.incidence = sparse.csr_matrix(
            (
                np.ones(len(indices), dtype=float),
                indices,
                edge_indptr.astype(np.int64),
            ),
            shape=(len(table.commodity_path), len(self.link_keys)),
        )
        self.n_commodities = len(table.commodity_path)

    def commodity_flow_counts(self) -> np.ndarray:
        counts = np.zeros(self.n_commodities, dtype=np.int64)
        np.add.at(counts, self.flow_commodity, 1)
        return counts

    def path_costs(self, per_link: np.ndarray) -> np.ndarray:
        """Per-commodity sum of a per-link quantity (one sparse matvec)."""
        return self.incidence @ per_link

    def link_loads(self, flow_rates: np.ndarray) -> np.ndarray:
        """Per-link load implied by per-flow rates (one sparse matvec)."""
        commodity_rates = np.zeros(self.n_commodities, dtype=float)
        np.add.at(commodity_rates, self.flow_commodity, flow_rates)
        return self.incidence.T @ commodity_rates


def _progressive_fill(problem: _CommodityProblem) -> np.ndarray:
    """Vectorized progressive filling; returns per-flow rates.

    Every unfrozen flow sits at the single global fill level, so the
    state is: the level, per-commodity active-flow counts ``k`` (flows
    whose demand the level has not yet passed), per-link residual
    capacity, and a pointer into the globally demand-sorted flow array.
    Each round advances the level by the minimum link fair share; flows
    whose demands fall inside the advance freeze in bulk (an O(crossed)
    scatter-add, amortized O(n_flows) over the whole solve), and links
    whose residual reaches zero freeze every commodity crossing them at
    the current level.  A flow's final rate is ``min(demand, theta)``
    of its commodity's freeze level.
    """
    order = np.argsort(problem.demands, kind="stable")
    sorted_demands = problem.demands[order]
    sorted_commodity = problem.flow_commodity[order]

    n_c = problem.n_commodities
    # Rows of the incidence matrix are compacted as commodities freeze;
    # col_map tracks each current row's original commodity index.
    inc = problem.incidence
    # The two per-round matvecs go through the transpose; cache it as
    # CSR (refreshed only at compaction) instead of reconstructing a
    # transposed view a thousand times.
    inc_t = inc.T.tocsr()
    k = problem.commodity_flow_counts().astype(float)
    col_map = np.arange(n_c, dtype=np.int64)
    orig_to_cur = np.arange(n_c, dtype=np.int64)

    theta = np.full(n_c, np.inf)
    residual = problem.capacities.astype(float).copy()
    eps_link = _EPS_BPS + _EPS_REL * problem.capacities
    link_done = np.zeros(len(problem.capacities), dtype=bool)

    level = 0.0
    ptr = 0
    while k.any():
        counts = inc_t @ k
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(counts > 0, residual / np.maximum(counts, 1.0), np.inf)
        delta = max(float(share.min(initial=np.inf)), 0.0)
        if not np.isfinite(delta):  # no loaded link left (defensive)
            break
        new_level = level + delta

        # Bulk demand freezes: every flow whose demand lies in
        # (level, new_level] stops growing at its own demand.
        new_ptr = int(
            np.searchsorted(sorted_demands, new_level, side="right")
        )
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

        # Freeze every commodity crossing a newly saturated link.
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
                # A frozen commodity's still-unmet demands must not be
                # processed when the global pointer passes them later.
                orig_to_cur[frozen_orig] = -1
        if delta <= 0.0 and crossed == 0 and not froze_any:
            # Numerical safety valve (mirrors the scalar solver): no
            # progress is possible, freeze everything at the level.
            remaining = k > 0
            theta[col_map[remaining]] = level
            k[remaining] = 0.0
            break

        # Compact away frozen/exhausted commodities once they are the
        # majority, keeping the per-round matvecs proportional to the
        # surviving active set.
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


def aggregate_capacities(
    specs: list[EdgeSpec],
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
    """Directed (capacity, delay) maps with parallel links aggregated.

    Two specs covering the same directed link add their bandwidth and
    keep the smallest delay — the packet path's "aggregate the bandwidth
    of parallel links" semantics — instead of the last spec silently
    overwriting the first.
    """
    capacities: dict[tuple[str, str], float] = {}
    delays: dict[tuple[str, str], float] = {}
    for spec in specs:
        for u, v in ((spec.a, spec.b), (spec.b, spec.a)):
            if (u, v) in capacities:
                capacities[(u, v)] += spec.rate_bps
                delays[(u, v)] = min(delays[(u, v)], spec.delay_s)
            else:
                capacities[(u, v)] = spec.rate_bps
                delays[(u, v)] = spec.delay_s
    return capacities, delays


def _assert_capacity_invariant(
    loads: np.ndarray, capacities: np.ndarray
) -> None:
    """Fail loudly if any link is allocated beyond its capacity."""
    slack = capacities * CAPACITY_SLACK_REL + _EPS_BPS
    overfilled = loads > capacities + slack
    if overfilled.any():
        worst = int(np.argmax(loads / np.maximum(capacities, _EPS_BPS)))
        raise AssertionError(
            "max-min solver over-allocated a link: load "
            f"{loads[worst]:.6g} bps on capacity {capacities[worst]:.6g} "
            "bps (solver bug — utilizations are never clamped)"
        )


def _as_commodities(
    flows: list[FluidFlow] | FlowTable | CommodityTable,
) -> CommodityTable:
    """Any accepted workload form as a :class:`CommodityTable`.

    A ``FluidFlow`` list converts here, once, at the API edge; from then
    on the solve never touches per-flow objects.
    """
    if isinstance(flows, CommodityTable):
        return flows
    if not isinstance(flows, FlowTable):
        flows = FlowTable.from_flows(flows)
    return flows.to_commodities()


def max_min_rates_table(
    capacities_bps: dict[tuple[str, str], float],
    table: list[FluidFlow] | FlowTable | CommodityTable,
) -> np.ndarray:
    """Max-min fair rates for a workload, as a per-flow array.

    The solver behind :func:`solve_fluid` without its latency and
    utilization accounting.  Entry ``i`` of the result belongs to the
    ``i``-th flow of the workload.
    """
    table = _as_commodities(table)
    if table.n_flows == 0:
        return np.empty(0, dtype=float)
    return _progressive_fill(_CommodityProblem(capacities_bps, table))


def solve_fluid(
    specs: list[EdgeSpec],
    flows: list[FluidFlow] | FlowTable | CommodityTable,
    packet_bytes: int = 500,
) -> FluidResult:
    """Allocate max-min rates over a network built from edge specs.

    ``flows`` is a :class:`FlowTable` / :class:`CommodityTable`, or a
    ``FluidFlow`` list that converts to one at the API edge.  Flow ids
    must be unique.  ``packet_bytes`` only affects the static latency
    estimate (one serialization per hop), mirroring the packet engine's
    uniform UDP size.
    """
    t0 = perf_counter()
    table = _as_commodities(flows)
    capacities, delays = aggregate_capacities(specs)
    problem = _CommodityProblem(capacities, table)
    t1 = perf_counter()
    rates = _progressive_fill(problem)
    t2 = perf_counter()
    # Vectorized accounting: per-commodity latency and per-link load via
    # the same incidence matrix the solver filled over.
    delay_arr = np.array([delays[key] for key in problem.link_keys])
    per_link_latency = delay_arr + packet_bytes * 8 / problem.capacities
    latencies = problem.path_costs(per_link_latency)[problem.flow_commodity]
    loads = problem.link_loads(rates)
    _assert_capacity_invariant(loads, problem.capacities)
    utilization = {
        problem.link_keys[i]: float(loads[i] / problem.capacities[i])
        for i in np.flatnonzero(loads > 0)
    }
    t3 = perf_counter()
    return FluidResult(
        flow_ids=problem.flow_ids,
        rates_bps=rates,
        offered_bps=problem.demands,
        latencies_s=latencies,
        link_utilization=utilization,
        timings_s={
            "setup_s": t1 - t0,
            "fill_s": t2 - t1,
            "freeze_s": t3 - t2,
        },
    )
