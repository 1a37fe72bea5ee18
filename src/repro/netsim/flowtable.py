"""Array-native flow workloads: the fluid engine's one workload form.

The workload stays in numpy arrays from demand generation to the
solver, with no per-flow Python objects:

* :class:`PathPool` — a pool of node paths as one flat node-index array
  plus an ``indptr`` (CSR-style), with the node-id -> name mapping.
  Paths come straight from ``Topology.routed_paths`` or any array
  source; validation (edge-simple) and path->link edge extraction are
  whole-array operations.
* :class:`FlowTable` — per-flow ``path_id`` / ``demand_bps`` /
  ``flow_ids`` columns over a pool.  Construction validates the whole
  table vectorized (positive finite demand, unique flow ids, used paths
  >= 2 nodes and edge-simple).  Flows that share a pool row share a
  path: the solver makes each used row one commodity (see
  :mod:`repro.netsim.fluid`).

``solve_fluid`` / ``solve_fluid_tcp`` take a :class:`FlowTable` and
nothing else.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np


def _as_int64(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _as_float(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class PathPool:
    """A pool of node paths in struct-of-arrays (CSR) form.

    Attributes:
        node_names: name of node index ``i`` — paths store integer node
            ids; link capacities and results speak node names.
        nodes: every path's node ids, concatenated.
        indptr: path ``p`` occupies ``nodes[indptr[p]:indptr[p + 1]]``.
    """

    node_names: tuple[str, ...]
    nodes: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_names", tuple(self.node_names))
        object.__setattr__(self, "nodes", _as_int64(self.nodes, "nodes"))
        object.__setattr__(self, "indptr", _as_int64(self.indptr, "indptr"))
        if len(self.indptr) == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != len(self.nodes) or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing and end at len(nodes)")
        if len(self.nodes) and (
            self.nodes.min() < 0 or self.nodes.max() >= len(self.node_names)
        ):
            raise ValueError("path node id outside the pool's name table")

    @property
    def n_paths(self) -> int:
        return len(self.indptr) - 1

    def lengths(self) -> np.ndarray:
        """Node count per path."""
        return self.indptr[1:] - self.indptr[:-1]

    @classmethod
    def from_paths(
        cls,
        paths,
        node_names: tuple[str, ...] | None = None,
    ) -> "PathPool":
        """A pool from an iterable of node-name paths.

        ``node_names`` fixes the id table; when omitted it is built from
        the paths in first-appearance order.
        """
        paths = [tuple(p) for p in paths]
        flat = list(itertools.chain.from_iterable(paths))
        if node_names is None:
            node_names = tuple(dict.fromkeys(flat))
        index = {name: i for i, name in enumerate(node_names)}
        try:
            nodes = np.array(list(map(index.__getitem__, flat)), dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"path node {exc.args[0]!r} not in node_names") from None
        counts = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(node_names=node_names, nodes=nodes, indptr=indptr)

    @classmethod
    def from_routes(
        cls, routes: dict[tuple[int, int], list[int]], n_sites: int
    ) -> "PathPool":
        """A pool from ``Topology.routed_paths()`` (site-index paths).

        Node names follow the experiments' convention ``str(site_index)``
        so the pool plugs straight into edge-spec capacity maps.  Path
        ``p`` is the route of the ``p``-th pair in dict order.
        """
        values = list(routes.values())
        counts = np.fromiter(
            (len(p) for p in values), dtype=np.int64, count=len(values)
        )
        nodes = np.fromiter(
            (v for path in values for v in path),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        indptr = np.concatenate(([0], np.cumsum(counts)))
        names = tuple(str(i) for i in range(n_sites))
        return cls(node_names=names, nodes=nodes, indptr=indptr)

    def path_nodes(self, path_id: int) -> np.ndarray:
        return self.nodes[self.indptr[path_id] : self.indptr[path_id + 1]]

    def path_names(self, path_id: int) -> tuple[str, ...]:
        return tuple(self.node_names[i] for i in self.path_nodes(path_id))

    def gather_edges(
        self, path_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges of the selected paths, in traversal order.

        Returns ``(edge_u, edge_v, edge_indptr)``: row ``r`` of
        ``path_ids`` owns edges ``edge_indptr[r]:edge_indptr[r + 1]``,
        each ``(edge_u[j], edge_v[j])`` a node-id pair.  Paths with
        fewer than two nodes contribute no edges.
        """
        path_ids = _as_int64(path_ids, "path_ids")
        starts = self.indptr[path_ids]
        lengths = self.indptr[path_ids + 1] - starts
        counts = np.maximum(lengths - 1, 0)
        edge_indptr = np.concatenate(([0], np.cumsum(counts)))
        total = int(edge_indptr[-1])
        rep = np.repeat(np.arange(len(path_ids), dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - edge_indptr[:-1][rep]
        pos = starts[rep] + offsets
        return self.nodes[pos], self.nodes[pos + 1], edge_indptr

    def edge_simple_mask(self, path_ids: np.ndarray) -> np.ndarray:
        """True per selected path iff no directed edge repeats."""
        rows = self.padded_rows(path_ids)
        n_edges = rows.shape[1] - 1
        if n_edges < 2:
            return np.ones(len(rows), dtype=bool)
        # Edge codes per row, with a distinct negative sentinel per
        # column for padding so two padded slots never compare equal.
        codes = np.where(
            rows[:, 1:] >= 0,
            rows[:, :-1] * len(self.node_names) + rows[:, 1:],
            -1 - np.arange(n_edges, dtype=np.int64),
        )
        repeat = np.zeros(len(rows), dtype=bool)
        for lag in range(1, n_edges):
            repeat |= (codes[:, lag:] == codes[:, :-lag]).any(axis=1)
        return ~repeat

    def within_mask(self, node_ok: np.ndarray) -> np.ndarray:
        """True per pool path iff every node satisfies ``node_ok``.

        ``node_ok`` is a boolean array indexed by node id (e.g. "this
        node exists in the simulated link set").
        """
        node_ok = np.ascontiguousarray(node_ok, dtype=bool)
        if node_ok.shape != (len(self.node_names),):
            raise ValueError("node_ok must have one entry per pool node")
        good = np.concatenate(
            ([0], np.cumsum(node_ok[self.nodes].astype(np.int64)))
        )
        per_path = good[self.indptr[1:]] - good[self.indptr[:-1]]
        return per_path == self.lengths()

    def padded_rows(self, path_ids: np.ndarray) -> np.ndarray:
        """Selected paths as a dense (k, max_len) matrix, -1 padded.

        The fixed-width form lets :meth:`edge_simple_mask` compare each
        path's edges column-wise without per-row Python objects.
        """
        path_ids = _as_int64(path_ids, "path_ids")
        starts = self.indptr[path_ids]
        lengths = self.indptr[path_ids + 1] - starts
        max_len = int(lengths.max(initial=0))
        out = np.full((len(path_ids), max_len), -1, dtype=np.int64)
        if max_len == 0:
            return out
        mask = np.arange(max_len, dtype=np.int64) < lengths[:, None]
        rep = np.repeat(np.arange(len(path_ids), dtype=np.int64), lengths)
        row_start = np.concatenate(([0], np.cumsum(lengths)))
        offsets = np.arange(int(row_start[-1]), dtype=np.int64) - row_start[:-1][rep]
        out[mask] = self.nodes[starts[rep] + offsets]
        return out


def _used_rows(
    path_id: np.ndarray, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(path_id, return_inverse=True)`` without the sort.

    Pool rows form a bounded integer domain, so a presence mask plus a
    cumulative-sum rank reproduces the sorted-unique contract in O(n)
    instead of O(n log n) — at 10^6 flows the sort is the single
    largest front-end cost.
    """
    mask = np.zeros(n_paths, dtype=bool)
    mask[path_id] = True
    rank = np.cumsum(mask) - 1
    return np.flatnonzero(mask), rank[path_id]


def _check_demands(demand_bps: np.ndarray) -> None:
    """Reject a demand that is not positive (NaN included) or not finite."""
    if len(demand_bps) == 0:
        return
    if not demand_bps.min() > 0:
        raise ValueError("offered rate must be positive")
    if not demand_bps.max() < np.inf:
        raise ValueError("offered rate must be finite")


def _check_unique_ids(flow_ids: np.ndarray) -> None:
    """Reject a repeated flow id, naming the first repeat in table order."""
    if len(flow_ids) < 2 or bool(np.all(flow_ids[1:] > flow_ids[:-1])):
        return  # strictly increasing ids (the common case) are unique
    order = np.argsort(flow_ids, kind="stable")
    repeat = flow_ids[order][1:] == flow_ids[order][:-1]
    if repeat.any():
        first = int(order[1:][repeat].min())
        raise ValueError(
            f"flow_ids must be unique: flow {int(flow_ids[first])} repeats"
        )


def _check_used_paths(
    pool: PathPool, path_id: np.ndarray, flow_ids: np.ndarray
) -> None:
    """Reject a used path outside the pool, shorter than two nodes, or
    repeating a directed link (naming the first flow on it).

    Allocation treats a path as a set of links, so a repeated link would
    carry half the load the latency and utilization accounting charge it.
    """
    if len(path_id) == 0:
        return
    if path_id.min() < 0 or path_id.max() >= pool.n_paths:
        raise ValueError("path_id outside the pool")
    used = _used_rows(path_id, pool.n_paths)[0]
    lengths = pool.indptr[used + 1] - pool.indptr[used]
    short = lengths < 2
    if short.any():
        raise ValueError("path needs at least two nodes")
    bad_used = ~pool.edge_simple_mask(used)
    if bad_used.any():
        bad = np.zeros(pool.n_paths, dtype=bool)
        bad[used[bad_used]] = True
        first = int(np.argmax(bad[path_id]))
        raise ValueError(
            f"flow {int(flow_ids[first])} path repeats a directed link; "
            "fluid paths must be edge-simple"
        )


@dataclass(frozen=True)
class FlowTable:
    """Per-flow columns over a :class:`PathPool` — zero per-flow objects.

    Attributes:
        pool: the shared path pool.
        path_id: pool row per flow.
        demand_bps: offered (maximum) rate per flow; must be positive.
        flow_ids: caller-visible flow ids (results key off these).
    """

    pool: PathPool
    path_id: np.ndarray
    demand_bps: np.ndarray
    flow_ids: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_id", _as_int64(self.path_id, "path_id"))
        object.__setattr__(
            self, "demand_bps", _as_float(self.demand_bps, "demand_bps")
        )
        object.__setattr__(self, "flow_ids", _as_int64(self.flow_ids, "flow_ids"))
        n = len(self.path_id)
        if len(self.demand_bps) != n or len(self.flow_ids) != n:
            raise ValueError("flow columns must have equal length")
        _check_demands(self.demand_bps)
        _check_unique_ids(self.flow_ids)
        _check_used_paths(self.pool, self.path_id, self.flow_ids)

    @property
    def n_flows(self) -> int:
        return len(self.path_id)

    def with_demands(self, demand_bps: np.ndarray) -> "FlowTable":
        """The same flows and paths with new per-flow demands.

        The TCP macro-model iterates offers against a fixed path set;
        this re-demand checks only the new demand column and shares
        every other column with ``self``, without rebuilding or
        re-validating paths.
        """
        demand_bps = _as_float(demand_bps, "demand_bps")
        if len(demand_bps) != self.n_flows:
            raise ValueError("flow columns must have equal length")
        _check_demands(demand_bps)
        table = copy.copy(self)
        object.__setattr__(table, "demand_bps", demand_bps)
        return table


__all__ = ["PathPool", "FlowTable"]
