"""The fluid engine's scalar reference and object workload form (tests only).

``solve_fluid`` / ``solve_fluid_tcp`` take one workload form, a
:class:`~repro.netsim.flowtable.FlowTable`.  Tests still write small
workloads as :class:`FluidFlow` lists and check the vectorized solver
against :func:`max_min_rates`, the scalar progressive fill: explicit
per-round Python loops over a residual-capacity dict, exact and
readable, O(rounds x (flows + links)) interpreter work.
:func:`flows_to_table` converts a ``FluidFlow`` list into the table the
solver takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.netsim import FlowTable, PathPool
from repro.netsim.fluid import _EPS_BPS


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
        if not self.offered_bps > 0:
            raise ValueError("offered rate must be positive")
        if not self.offered_bps < math.inf:
            raise ValueError("offered rate must be finite")
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


def flows_to_table(flows) -> FlowTable:
    """A table from ``FluidFlow``-like objects (``flow_id``, ``path``,
    ``offered_bps``), one pool row per distinct path value.

    Pool rows appear in first-seen flow order, so the solver's
    commodities keep the order in which the flows first name a path.
    """
    row_of: dict[tuple[str, ...], int] = {}
    path_id = [row_of.setdefault(f.path, len(row_of)) for f in flows]
    return FlowTable(
        pool=PathPool.from_paths(row_of),
        path_id=path_id,
        demand_bps=[f.offered_bps for f in flows],
        flow_ids=[f.flow_id for f in flows],
    )
