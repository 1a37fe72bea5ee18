"""GraphView: the versioned, mutable handle over the graph kernel.

A :class:`GraphView` owns a private copy of a weight matrix and serves
distance/path queries through a :class:`~repro.graph.kernel.GraphKernel`
snapshot.  Edge mutations go through :meth:`GraphView.set_edge`:

* **improvement** (the new weight is strictly smaller) — the cached
  all-pairs distances are updated in O(n^2) with the kernel's exact
  single-edge delta rule;
* **removal / worsening** — cached results are invalidated and the
  next query pays one exact full solve (the "exact fallback").

Every mutation bumps :attr:`GraphView.version`, and
:attr:`GraphView.signature` identifies the current graph state, so
consumers holding a view (routing caches, experiment stages, sweep
drivers) can detect that the graph changed underneath them.

Batch *what-if* removals go through
:meth:`GraphView.distances_with_edges_removed`: distances with a set
of edges removed/worsened, computed by restarting Dijkstra only from
the sources whose rows can change — without mutating the view.  The
weather layer's failure-set evaluation is built on it.
"""

from __future__ import annotations

import numpy as np

from .kernel import DENSE_DENSITY_THRESHOLD, GraphKernel, edge_delta_distances


def affected_sources(base: np.ndarray, changes) -> np.ndarray:
    """Sources whose distance rows can change when edges are worsened.

    ``base`` is an exact all-pairs matrix of the *pre-change* graph and
    ``changes`` an iterable of ``(a, b, old_weight)`` for the edges
    about to be worsened or removed.  Source ``s`` is affected only if
    some changed edge is tight on a shortest path from ``s``
    (``d[s,a] + w == d[s,b]`` in either orientation).  The comparison
    carries a 1e-9 relative guard band, so float association error can
    only cause over-recomputation, never a stale row.

    Shared by :meth:`GraphView.distances_with_edges_removed` and the
    failure-set solver's delta route
    (:class:`~repro.graph.whatif.FailureSetSolver`).
    """
    changes = list(changes)
    if not changes:
        return np.zeros(base.shape[0], dtype=bool)
    a, b, old = zip(*changes)
    # All changed edges at once: column j of each (n, k) block is edge j.
    da, db = base[:, list(a)], base[:, list(b)]
    old = np.array(old, dtype=float)
    finite = np.isfinite(da) & np.isfinite(db)
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(da), np.abs(db)))
    tight = (da + old <= db + tol) | (db + old <= da + tol)
    return (finite & tight).any(axis=1)


class GraphView:
    """A mutable, versioned view of one evolving graph.

    Args:
        weights: dense (n, n) symmetric weight matrix (``inf`` = no
            edge); the view keeps a private copy.
        tag: a short label identifying what the graph models (part of
            the signature).
    """

    __slots__ = ("_weights", "_tag", "_version", "_dist", "_kernel")

    def __init__(self, weights: np.ndarray, tag: str = "graph") -> None:
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        np.fill_diagonal(w, 0.0)
        self._weights = w
        self._tag = str(tag)
        self._version = 0
        self._dist: np.ndarray | None = None
        self._kernel: GraphKernel | None = None

    @property
    def n(self) -> int:
        return self._weights.shape[0]

    @property
    def tag(self) -> str:
        return self._tag

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every edge change)."""
        return self._version

    @property
    def signature(self) -> tuple[str, int, int, int]:
        """``(tag, version, n, edge_count)`` identifying the graph state."""
        iu = np.triu_indices(self.n, k=1)
        n_edges = int(np.isfinite(self._weights[iu]).sum())
        return (self._tag, self._version, self.n, n_edges)

    def weight(self, a: int, b: int) -> float:
        """The current weight of edge (a, b) (``inf`` when absent)."""
        return float(self._weights[a, b])

    def weights_copy(self) -> np.ndarray:
        """A writable copy of the current weight matrix."""
        return self._weights.copy()

    def kernel(self) -> GraphKernel:
        """A kernel snapshot at the current weights (cached per version)."""
        if self._kernel is None:
            self._kernel = GraphKernel(self._weights)
        return self._kernel

    def distances(self) -> np.ndarray:
        """All-pairs distances at the current weights (read-only).

        Served from the delta-maintained cache when available, else one
        exact kernel solve.
        """
        if self._dist is None:
            self._dist = self.kernel().distances()
        return self._dist

    def path(self, s: int, t: int) -> list[int] | None:
        """Shortest s -> t node sequence, or None when unreachable."""
        return self.kernel().path(s, t)

    def set_edge(self, a: int, b: int, weight: float) -> None:
        """Set edge (a, b) to ``weight`` (``inf`` removes it).

        A strict improvement delta-updates the cached distances in
        O(n^2); a removal or worsening invalidates them (exact
        fallback: the next query runs a full solve).
        """
        if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
            raise ValueError(f"invalid edge ({a}, {b}) for {self.n} nodes")
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        old = self._weights[a, b]
        if weight == old:
            return
        self._weights[a, b] = self._weights[b, a] = weight
        self._version += 1
        self._kernel = None
        if self._dist is not None and weight < old:
            dist = edge_delta_distances(self._dist, a, b, weight)
            dist.setflags(write=False)
            self._dist = dist
        else:
            self._dist = None

    def remove_edge(self, a: int, b: int) -> None:
        """Remove edge (a, b) (exact fallback on the next query)."""
        self.set_edge(a, b, np.inf)

    def distances_with_edges_removed(self, edges) -> np.ndarray:
        """All-pairs distances with ``edges`` removed or worsened.

        A batch *what-if* query: the view itself is not mutated (no
        version bump, no cache invalidation), so a caller can probe
        many removal sets against one base graph — the weather layer's
        failure-set evaluation is the canonical consumer.

        Args:
            edges: iterable of ``(a, b)`` (full removal) or
                ``(a, b, new_weight)`` with ``new_weight`` at least the
                current weight.  Entries whose weight does not actually
                change (already absent, or equal weight) are ignored;
                duplicate entries for one undirected edge (in either
                orientation) are merged, the strongest worsening
                winning; an *improvement* is rejected — that is
                :meth:`set_edge`'s delta-update territory.

        Instead of re-solving the whole graph, only the sources whose
        rows can change are restarted: source ``s`` is affected only
        if some changed edge is tight on a shortest path from ``s``
        (``d[s,a] + w == d[s,b]`` in either orientation, with a 1e-9
        relative guard band so float association error can only cause
        over-recomputation, never a stale row).  When no source is
        affected the cached base distances are returned untouched;
        otherwise, on sparse graphs, batched Dijkstra restarted from
        just the affected sources recomputes exactly those rows
        (bit-identical to the full sparse solve, whose rows are
        independent per source).  Dense graphs — where the kernel's
        full solve is Floyd-Warshall, which cannot restart per source
        — fall back to one exact full solve of the modified weights.
        Results are always exact; when the cached base distances come
        from a kernel solve (rather than a chain of :meth:`set_edge`
        delta updates), they are additionally bit-identical to
        :meth:`set_edge`-then-:meth:`distances` — the weather
        evaluator's CI gate rides on that.  Returns a read-only array.
        """
        base = self.distances()
        # Deduplicate by undirected edge: the same (a, b) — in either
        # orientation — listed twice in one batch reads the same ``old``
        # both times, so applying both entries would double-process the
        # edge (and make the result depend on entry order when the
        # weights conflict).  The strongest worsening wins.
        merged: dict[tuple[int, int], tuple[float, float]] = {}
        for edge in edges:
            if len(edge) == 2:
                a, b = edge
                new = np.inf
            else:
                a, b, new = edge
            a, b, new = int(a), int(b), float(new)
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise ValueError(f"invalid edge ({a}, {b}) for {self.n} nodes")
            old = float(self._weights[a, b])
            if new < old:
                raise ValueError(
                    f"edge ({a}, {b}): weight {new} improves on {old}; "
                    "distances_with_edges_removed only removes/worsens "
                    "(use set_edge for improvements)"
                )
            if not np.isfinite(old) or new == old:
                continue  # already absent / unchanged: a no-op
            key = (a, b) if a < b else (b, a)
            seen = merged.get(key)
            if seen is None or new > seen[1]:
                merged[key] = (old, new)
        changes = [(a, b, old, new) for (a, b), (old, new) in merged.items()]
        if not changes:
            return base
        idx = np.flatnonzero(
            affected_sources(base, [(a, b, old) for a, b, old, _ in changes])
        )
        if idx.size == 0:
            return base
        weights = self._weights.copy()
        for a, b, _, new in changes:
            weights[a, b] = weights[b, a] = new
        # The modified graph's full-solve method, as GraphKernel(weights)
        # would pick it, from the base's edge count: only removals
        # change the count (finite worsenings keep their edge).
        base_kernel = self.kernel()
        removed = sum(1 for *_, new in changes if new == np.inf)
        pairs = self.n * (self.n - 1) // 2
        dense = (base_kernel.edge_count() - removed) / pairs >= DENSE_DENSITY_THRESHOLD
        kernel = GraphKernel.distances_only(weights, "dense" if dense else "sparse")
        # Branch on the *base* graph's density: if the base solve ran
        # dense FW, its cached rows cannot be merged bitwise with
        # per-source Dijkstra restarts — take the exact fallback (one
        # full solve, same as set_edge-then-distances).  A base below
        # the threshold keeps the modified graph below it too (edges
        # are only removed or worsened, never added), so the sparse
        # restart merges Dijkstra rows with Dijkstra rows.
        if idx.size == self.n or base_kernel.density() >= DENSE_DENSITY_THRESHOLD:
            return kernel.distances()
        rows = kernel.distances_from(idx)
        out = np.array(base)
        out[idx, :] = rows
        out.setflags(write=False)
        return out

    def to_networkx(self, weight: str = "latency"):
        """Export the current graph as an undirected networkx graph.

        Nodes are ``range(n)``; every finite off-diagonal pair becomes
        an edge whose ``weight`` attribute holds its length.  Insertion
        order is deterministic (upper-triangle order), so repeated
        exports of the same view state are identical graphs.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        s_idx, t_idx = np.triu_indices(self.n, k=1)
        finite = np.isfinite(self._weights[s_idx, t_idx])
        graph.add_weighted_edges_from(
            (
                (int(s), int(t), float(self._weights[s, t]))
                for s, t in zip(s_idx[finite], t_idx[finite])
            ),
            weight=weight,
        )
        return graph
