"""Fluid-approximation engine: max-min fair flow rates.

For sweeps where per-packet fidelity is unnecessary (Fig 11/13-scale
load scans), solving the steady-state fluid allocation is orders of
magnitude cheaper than simulating every packet.  Flows are modelled as
fluids on their fixed paths; link bandwidth is shared max-min fairly
(progressive filling, Bertsekas & Gallager §6.5): all unfrozen flows
ramp together until a link saturates or a flow hits its offered rate,
the constrained flows freeze, and filling continues with the rest.

:func:`solve_fluid` takes one network form, a :class:`FluidNetwork`,
and one workload form, a :class:`~repro.netsim.flowtable.FlowTable`.
Each pool row the table uses becomes one commodity, so flows sharing a
row share one demand row of a scipy sparse path->link incidence, and
every progressive-filling round is whole-array numpy work.  Because all
unfrozen flows always sit at one *global* fill level, a flow's final
rate is ``min(demand, theta_P)`` where ``theta_P`` is the fill level at
which its path's first link saturated — so the solve only tracks
per-commodity freeze levels plus a single globally demand-sorted flow
array, and demand-limited flows freeze in bulk per round.  A round
costs one matvec over the link-major incidence of the commodities still
filling, plus work in proportion to what it changed (a recount after
rounds that froze flows, the saturated links' incidence rows).  This is
what makes million-flow workloads tractable (see
``benchmarks/bench_flow_table.py``).

The tier-1 tests check the solver against a scalar progressive fill
(``tests/fluid_reference.py``), and ``tests/test_fluid_exactness.py``
keeps the earlier matvec fill as a bitwise reference for this one.

The network is built from the same :class:`~repro.netsim.network.EdgeSpec`
capacities as the packet engine's (:meth:`FluidNetwork.from_specs`), so
an experiment can switch between ``engine="packet"`` and
``engine="fluid"`` behind one API (see
:func:`repro.netsim.experiments.run_udp_experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .flows import DEFAULT_UDP_PACKET_BYTES
from .flowtable import FlowTable, _used_rows
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
    """

    flow_ids: np.ndarray
    rates_bps: np.ndarray
    offered_bps: np.ndarray
    latencies_s: np.ndarray
    link_utilization: dict[tuple[str, str], float]

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


class FluidNetwork:
    """Directed links as arrays, plus the lookup from node pairs to links.

    Everything a solve needs from the network and nothing from the
    workload: a load curve solves dozens of workloads over one network,
    so it builds this once (see :meth:`from_specs`) instead of
    re-aggregating edge specs and re-indexing links on every solve.

    The lookup is a dense node x node table of link indices, 4 bytes per
    ordered node pair (58 KB for the 120-site US network): one gather
    per path edge, where a binary search per edge costs ~40x more.

    Attributes:
        link_keys: directed links ``(u, v)``; link ``i`` of every array.
        capacities: capacity per link, bits/second.
        delays: one-way propagation delay per link, seconds (zero when
            built from capacities alone).
    """

    def __init__(
        self,
        capacities_bps: dict[tuple[str, str], float],
        delays_s: dict[tuple[str, str], float] | None = None,
    ) -> None:
        self.link_keys = list(capacities_bps)
        self.capacities = np.array(list(capacities_bps.values()), dtype=float)
        bad = ~((self.capacities > 0) & (self.capacities < np.inf))
        if bad.any():
            u, v = self.link_keys[int(np.argmax(bad))]
            raise ValueError(
                f"link {u}->{v}: capacity must be positive and finite, "
                f"got {self.capacities[bad][0]!r}"
            )
        self.delays = (
            np.zeros(len(self.link_keys))
            if delays_s is None
            else np.array([delays_s[key] for key in self.link_keys], dtype=float)
        )
        self._node_index: dict[str, int] = {}
        for u, v in self.link_keys:
            self._node_index.setdefault(u, len(self._node_index))
            self._node_index.setdefault(v, len(self._node_index))
        # Row and column n stand for every node outside the network.
        n = len(self._node_index)
        self._link_of = np.full((n + 1, n + 1), -1, dtype=np.int32)
        index = self._node_index
        for i, (u, v) in enumerate(self.link_keys):
            self._link_of[index[u], index[v]] = i

    @classmethod
    def from_specs(cls, specs: list[EdgeSpec]) -> "FluidNetwork":
        """The network of an edge-spec list (see :func:`aggregate_capacities`)."""
        return cls(*aggregate_capacities(specs))

    @property
    def n_links(self) -> int:
        return len(self.link_keys)

    def link_index(
        self, names: tuple[str, ...], u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Link index of each directed node pair ``(names[u], names[v])``.

        ``u`` / ``v`` index ``names``; pairs that are not a link get -1.
        """
        outside = len(self._node_index)
        ids = np.fromiter(
            (self._node_index.get(name, outside) for name in names),
            dtype=np.int64,
            count=len(names),
        )
        return self._link_of[ids[u], ids[v]]


class _CommodityProblem:
    """A flow table's pool rows as commodities over a network's links.

    Built once per solve from a :class:`FlowTable`: each pool row the
    table uses becomes one commodity, numbered in first-seen flow order
    (``commodity_path[c]`` is commodity ``c``'s row, ``flow_commodity``
    maps each flow to its commodity), and becomes one run of incidence
    entries (its flows' demands stay individually visible to the
    filling loop via one globally demand-sorted array).
    ``links[indptr[c]:indptr[c + 1]]`` are commodity ``c``'s links in
    traversal order, and ``link_incidence`` is the same membership
    link-major: a CSR matrix (n_links, n_commodities) listing each
    link's commodities in ascending order.

    Construction is all-array: the commodities come from an O(n) rank
    of the used rows, path edges from the pool in one gather, the link
    lookup is one gather from the network's table, and the link-major
    form is one stable sort of the entries.
    """

    def __init__(self, network: FluidNetwork, table: FlowTable) -> None:
        self.capacities = network.capacities
        pool = table.pool
        n_flows = table.n_flows
        # The used rows ranked by row id, renumbered by each row's first
        # flow: commodities follow first-seen flow order.  The fill sums
        # floats in commodity order, so the order is part of the pinned
        # results (row-id order moves a shuffled table's rates in the
        # last bits).
        used, row_rank = _used_rows(table.path_id, pool.n_paths)
        first_flow = np.full(len(used), n_flows, dtype=np.int64)
        np.minimum.at(first_flow, row_rank, np.arange(n_flows, dtype=np.int64))
        order = np.argsort(first_flow, kind="stable")
        commodity_of_rank = np.empty(len(used), dtype=np.int64)
        commodity_of_rank[order] = np.arange(len(used), dtype=np.int64)
        first_flow = first_flow[order]
        self.commodity_path = used[order]
        self.flow_commodity = commodity_of_rank[row_rank]
        edge_u, edge_v, edge_indptr = pool.gather_edges(self.commodity_path)
        links = network.link_index(pool.node_names, edge_u, edge_v)
        bad = links < 0
        if bad.any():
            # Report the first offense in (commodity, traversal) order.
            first = int(np.argmax(bad))
            commodity = int(np.searchsorted(edge_indptr, first, side="right")) - 1
            fid = int(table.flow_ids[first_flow[commodity]])
            u = pool.node_names[int(edge_u[first])]
            v = pool.node_names[int(edge_v[first])]
            raise KeyError(f"flow {fid} uses unknown link {u}->{v}")
        self.flow_ids = table.flow_ids
        self.demands = table.demand_bps
        self.n_commodities = len(used)
        self.links = links
        self.indptr = edge_indptr
        self.entry_commodity = np.repeat(
            np.arange(self.n_commodities, dtype=np.int64), np.diff(edge_indptr)
        )
        n_links = network.n_links
        # numpy's stable sort is a radix sort for keys of 16 bits or
        # fewer, so sort the smallest unsigned type that holds a link.
        by_link = np.argsort(
            links.astype(np.min_scalar_type(max(n_links - 1, 0))), kind="stable"
        )
        link_indptr = np.zeros(n_links + 1, dtype=np.int64)
        np.cumsum(np.bincount(links, minlength=n_links), out=link_indptr[1:])
        self.link_incidence = sparse.csr_matrix(
            (
                np.ones(len(links), dtype=float),
                self.entry_commodity[by_link],
                link_indptr,
            ),
            shape=(n_links, self.n_commodities),
        )

    def commodity_flow_counts(self) -> np.ndarray:
        return np.bincount(self.flow_commodity, minlength=self.n_commodities)

    def path_costs(self, per_link: np.ndarray) -> np.ndarray:
        """Per-commodity sum of a per-link quantity.

        Each sum runs from +0.0 in traversal order, one term per link,
        as a commodity-major CSR matvec does.
        """
        return np.bincount(
            self.entry_commodity,
            weights=per_link[self.links],
            minlength=self.n_commodities,
        )

    def link_loads(self, flow_rates: np.ndarray) -> np.ndarray:
        """Per-link load implied by per-flow rates.

        Flow rates sum into their commodity in flow order, and commodity
        rates into each link in ascending commodity order, as the
        transposed commodity-major matvec does.
        """
        commodity_rates = np.bincount(
            self.flow_commodity, weights=flow_rates, minlength=self.n_commodities
        )
        return self.link_incidence @ commodity_rates


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

    A round costs one pass over the link-major incidence of the
    commodities still filling (the residual update) plus work in
    proportion to what it changed: link counts are recounted only after
    a round that changed ``k``, and the commodities to freeze are read
    off the saturated links' incidence rows.  No mask selects the
    loaded, unsaturated links: an unloaded link's share is residual / 0
    = +inf, and a saturated link's residual is set to +inf, which keeps
    it out of the saturation test (saturating freezes every commodity
    on the link, so it is unloaded from then on).
    """
    order = np.argsort(problem.demands, kind="stable")
    sorted_demands = problem.demands[order]
    sorted_commodity = problem.flow_commodity[order]
    n_flows = len(sorted_demands)

    n_c = problem.n_commodities
    # Entries are dropped from the link-major incidence as commodities
    # freeze; col_map tracks each current column's original commodity.
    inc_t = problem.link_incidence
    k = problem.commodity_flow_counts().astype(float)
    col_map = np.arange(n_c, dtype=np.int64)
    orig_to_cur = np.arange(n_c, dtype=np.int64)

    theta = np.full(n_c, np.inf)
    residual = problem.capacities.astype(float).copy()
    eps_link = _EPS_BPS + _EPS_REL * problem.capacities

    level = 0.0
    ptr = 0
    # Link sums run one term per entry from +0.0 in ascending commodity
    # order, as a matvec over the full incidence does; a k = 0 column
    # adds +0.0, which leaves every sum's bits unchanged, so dropping
    # its entries never changes a result.  Counts are whole numbers, so
    # they are exact in any order.
    counts = inc_t @ k
    n_active = int(np.count_nonzero(k))
    # Capacities are positive and every residual <= eps becomes +inf,
    # so residual / 0 is +inf (never nan) for every unloaded link.
    with np.errstate(divide="ignore"):
        while n_active:
            delta = max(float((residual / counts).min()), 0.0)
            if not math.isfinite(delta):  # no loaded link left (defensive)
                break
            new_level = level + delta

            # Bulk demand freezes: every flow whose demand lies in
            # (level, new_level] stops growing at its own demand.
            increment = k * delta
            crossed = 0
            if ptr < n_flows and sorted_demands[ptr] <= new_level:
                new_ptr = int(
                    np.searchsorted(sorted_demands, new_level, side="right")
                )
                cz_cur = orig_to_cur[sorted_commodity[ptr:new_ptr]]
                live = cz_cur >= 0
                cz_cur = cz_cur[live]
                crossed = len(cz_cur)
                if crossed:
                    overshoot = new_level - sorted_demands[ptr:new_ptr][live]
                    np.subtract.at(increment, cz_cur, overshoot)
                    np.subtract.at(k, cz_cur, 1.0)
                ptr = new_ptr
            residual -= inc_t @ increment
            level = new_level

            # Freeze every commodity crossing a newly saturated link.
            # Each link saturates once, so the row gathers total O(nnz).
            saturated = np.flatnonzero(residual <= eps_link)
            froze = 0
            if len(saturated):
                residual[saturated] = np.inf
                indptr, indices = inc_t.indptr, inc_t.indices
                touched = np.concatenate(
                    [indices[indptr[i] : indptr[i + 1]] for i in saturated.tolist()]
                )
                newly = touched[k[touched] > 0]
                froze = len(newly)
                if froze:
                    frozen_orig = col_map[newly]
                    theta[frozen_orig] = level
                    k[newly] = 0.0
                    # A frozen commodity's still-unmet demands must not
                    # be processed when the global pointer passes them.
                    orig_to_cur[frozen_orig] = -1
            if not (crossed or froze):
                if delta <= 0.0:
                    # Numerical safety valve (mirrors the scalar
                    # solver): no progress is possible, freeze
                    # everything at the level.
                    theta[col_map[k > 0]] = level
                    break
                continue

            # Compact away frozen/exhausted commodities once they are the
            # majority, keeping the per-round passes proportional to the
            # surviving active set.
            n_active = int(np.count_nonzero(k))
            if n_active and n_active * 2 <= len(k):
                active = k > 0
                inc_t = _drop_columns(inc_t, active, n_active)
                k = k[active]
                col_map = col_map[active]
                orig_to_cur = np.full(n_c, -1, dtype=np.int64)
                orig_to_cur[col_map] = np.arange(n_active, dtype=np.int64)
            counts = inc_t @ k

    return np.minimum(problem.demands, theta[problem.flow_commodity])


def _drop_columns(
    matrix: sparse.csr_matrix, keep_columns: np.ndarray, n_kept: int
) -> sparse.csr_matrix:
    """``matrix[:, keep_columns]`` by an nnz mask, each row kept in order.

    The new index arrays keep the matrix's index dtype, so the CSR
    constructor need not check and downcast them.
    """
    index_dtype = matrix.indices.dtype
    new_col = np.cumsum(keep_columns, dtype=index_dtype) - 1
    keep = keep_columns[matrix.indices]
    kept_before = np.zeros(len(keep) + 1, dtype=index_dtype)
    np.cumsum(keep, out=kept_before[1:])
    return sparse.csr_matrix(
        (
            matrix.data[keep],
            new_col[matrix.indices[keep]],
            kept_before[matrix.indptr],
        ),
        shape=(matrix.shape[0], n_kept),
    )


def aggregate_capacities(
    specs: list[EdgeSpec],
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
    """Directed (capacity, delay) maps with parallel links aggregated.

    Two specs covering the same directed link add their bandwidth and
    keep the smallest delay — the packet path's "aggregate the bandwidth
    of parallel links" semantics — instead of the last spec silently
    overwriting the first.

    Raises ``ValueError`` naming the edge and the field for a
    ``rate_bps`` that is not positive and finite, or a ``delay_s`` that
    is not non-negative and finite.
    """
    capacities: dict[tuple[str, str], float] = {}
    delays: dict[tuple[str, str], float] = {}
    for spec in specs:
        if not 0 < spec.rate_bps < math.inf:
            raise ValueError(
                f"edge {spec.a}-{spec.b}: rate_bps must be positive and "
                f"finite, got {spec.rate_bps!r}"
            )
        if not 0 <= spec.delay_s < math.inf:
            raise ValueError(
                f"edge {spec.a}-{spec.b}: delay_s must be non-negative and "
                f"finite, got {spec.delay_s!r}"
            )
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


def solve_fluid(network: FluidNetwork, flows: FlowTable) -> FluidResult:
    """Allocate max-min rates to a flow table over a network.

    Callers that solve many workloads over one network build the
    :class:`FluidNetwork` once.  Flow ids must be unique.  The static
    latency estimate charges one serialization of the packet engine's
    uniform UDP packet (``DEFAULT_UDP_PACKET_BYTES``) per hop.
    """
    problem = _CommodityProblem(network, flows)
    rates = _progressive_fill(problem)
    # Vectorized accounting: per-commodity latency and per-link load via
    # the same incidence the solver filled over.
    per_link_latency = (
        network.delays + DEFAULT_UDP_PACKET_BYTES * 8 / network.capacities
    )
    latencies = problem.path_costs(per_link_latency)[problem.flow_commodity]
    loads = problem.link_loads(rates)
    _assert_capacity_invariant(loads, network.capacities)
    used = np.flatnonzero(loads > 0)
    utilization = dict(
        zip(
            map(network.link_keys.__getitem__, used.tolist()),
            (loads[used] / network.capacities[used]).tolist(),
        )
    )
    return FluidResult(
        flow_ids=problem.flow_ids,
        rates_bps=rates,
        offered_bps=problem.demands,
        latencies_s=latencies,
        link_utilization=utilization,
    )
