"""Failure-set what-ifs over one fixed graph, and their delta-reuse solver.

A failure set is a read-only question about one design: with these
links down (removed, or worsened to a fallback weight), what are the
all-pairs distances?  The base graph is an immutable
:class:`~repro.graph.kernel.GraphKernel` (``Topology.graph_kernel()``
for the hybrid fiber/MW graph), never edited.  Two layers answer it:

* :func:`distances_with_edges_removed` — one what-if, solved exactly:
  only the sources with a tight shortest path through a changed edge
  (:func:`affected_sources`) can change, so none affected returns the
  base matrix itself, a sparse base restarts batched Dijkstra from just
  those sources, and a dense base pays one full solve.
* :class:`FailureSetSolver` — a *stream* of such queries.  The weather
  layer's storm tracks produce long chains of near-identical sets — one
  or two links flapping in and out between days — and whole-set
  memoization still pays one full all-pairs solve per *distinct* set.
  The solver instead picks the cheapest route per query:

  * **memo hit** — the exact set was solved before: return the cached
    matrix (bit-identical, zero work).
  * **delta solve** — a previously solved *neighbor* set differs from
    the query by at most ``delta_k`` links (symmetric difference).
    Links failed in the neighbor but healthy in the query are
    *restored* by the kernel's exact O(n^2) single-edge insertion rule
    (:func:`~repro.graph.kernel.edge_delta_distances` — a weight
    decrease is an edge insertion in parallel with the worse edge);
    links failed in the query but healthy in the neighbor are *removed*
    by the affected-source machinery: only sources with a tight
    shortest path through a removed link are restarted (batched
    Dijkstra on the query graph) and merged into the neighbor's matrix.
    A cached *superset* of the query needs only restorations — no
    restart at all — so supersets are accepted up to the larger
    :data:`RESTORE_K` budget and preferred over any neighbor that needs
    removals.
  * **full solve** — no cached neighbor is close enough:
    :func:`distances_with_edges_removed` against the pinned base.

Removal restarts are *cost-gated*: per-source Dijkstra only beats the
full solve while few sources are affected (on dense bases the full
solve is one C Floyd-Warshall, so the break-even is roughly ``n / 6``
sources; metric-closure bases concentrate tight paths, so a removed
link often touches half the sources).  When the affected-source count
exceeds the budget the solver *promotes the query to its union* with
the neighbor: one full solve of ``query | neighbor`` is cached and the
query itself is derived from it by pure restorations.  The union costs
no more than the full solve the query was headed for anyway, and it
seeds a superset that turns the surrounding storm-track queries into
restoration-only deltas — a sweeping storm pays one full solve per
*newly seen link*, not one per distinct failure set.

Nearest-neighbor lookup is O(|set|) via a per-link inverted index over
the cached sets.  Cached matrices live under an LRU byte budget (a
:class:`~repro.cache.LruCache` sized by matrix bytes) so long
daily-resolution runs cannot exhaust memory; the healthy base — the
kernel's own memoized distances — is pinned.  Route counters
(``full_solves`` / ``delta_solves`` / ``memo_hits``, plus cache bytes
and evictions) surface in the weather stage records through
:meth:`FailureSetSolver.stats`.

Accuracy contract: delta-derived matrices match the full solve to
<= 1e-9 relative.  The restoration rule is exact and removals restart
affected rows from scratch, so the only divergence from a full solve is
float association error, bounded by capping delta-chain depth
(:data:`MAX_CHAIN`); a removal-only delta taken directly from a
*sparse* base is bit-identical to the full solve (same machinery).
Route selection is deterministic, so identical query sequences through
identically configured solvers return bitwise-identical results.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..cache import LruCache
from .kernel import DENSE_DENSITY_THRESHOLD, GraphKernel

#: Default LRU budget for cached distance matrices (bytes).
DEFAULT_CACHE_BYTES = 256 * 2**20

#: Symmetric-difference budget for a cached *superset* of a query
#: (restoration-only deltas, pure O(n^2) insertion rules); also caps
#: the padded union solves.  Never below the solver's ``delta_k``.
RESTORE_K = 12

#: Maximum delta-chain depth: a query whose every candidate neighbor
#: sits this deep is fully solved, bounding float drift.
MAX_CHAIN = 64


def affected_sources(base: np.ndarray, changes) -> np.ndarray:
    """Sources whose distance rows can change when edges are worsened.

    ``base`` is an exact all-pairs matrix of the *pre-change* graph and
    ``changes`` an iterable of ``(a, b, old_weight)`` for the edges
    about to be worsened or removed.  Source ``s`` is affected only if
    some changed edge is tight on a shortest path from ``s``
    (``d[s,a] + w == d[s,b]`` in either orientation).  The comparison
    carries a 1e-9 relative guard band, so float association error can
    only cause over-recomputation, never a stale row.

    Shared by :func:`distances_with_edges_removed` and the failure-set
    solver's delta route.
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


def distances_with_edges_removed(
    kernel: GraphKernel, base: np.ndarray, changes
) -> np.ndarray:
    """All-pairs distances of ``kernel``'s graph with edges worsened.

    Args:
        kernel: the unchanged base graph.
        base: ``kernel.distances()``, passed in so that a caller holding
            it reads no memoized solve again.
        changes: a sequence of ``(a, b, new_weight)``, one per
            undirected edge, each an edge of ``kernel``'s graph whose
            ``new_weight`` (``inf`` removes it) is strictly above its
            weight — the canonical form
            :meth:`FailureSetSolver.canonical_key` resolves.

    Only the sources whose rows can change are recomputed
    (:func:`affected_sources`).  When none is, ``base`` itself is
    returned.  On a sparse base, batched Dijkstra restarted from just
    the affected sources recomputes exactly those rows (bit-identical
    to the full sparse solve, whose rows are independent per source).
    A dense base — whose solve is Floyd-Warshall, which cannot restart
    per source — takes one full solve of the modified weights, with the
    method ``GraphKernel(modified)`` would pick, so the result is
    bit-identical to ``GraphKernel(modified).distances()``.  Returns a
    read-only array.
    """
    weights = kernel.weights
    idx = np.flatnonzero(
        affected_sources(base, [(a, b, weights[a, b]) for a, b, _ in changes])
    )
    if idx.size == 0:
        return base
    modified = np.array(weights)
    for a, b, new in changes:
        modified[a, b] = modified[b, a] = new
    # The modified graph's full-solve method, as GraphKernel(modified)
    # would pick it, from the base's edge count: only removals change
    # the count (finite worsenings keep their edge).
    removed = sum(1 for *_, new in changes if new == np.inf)
    n = kernel.n
    pairs = n * (n - 1) // 2
    dense = (kernel.edge_count() - removed) / pairs >= DENSE_DENSITY_THRESHOLD
    solver = GraphKernel.distances_only(modified, "dense" if dense else "sparse")
    # Branch on the *base* graph's density: if the base solve ran dense
    # FW, its rows cannot be merged bitwise with per-source Dijkstra
    # restarts — take one full solve.  A base below the threshold keeps
    # the modified graph below it too (edges are only removed or
    # worsened, never added), so the sparse restart merges Dijkstra
    # rows with Dijkstra rows.
    if idx.size == n or kernel.density() >= DENSE_DENSITY_THRESHOLD:
        return solver.distances()
    rows = solver.distances_from(idx)
    out = np.array(base)
    out[idx, :] = rows
    out.setflags(write=False)
    return out


class _CacheEntry:
    """One cached failure-set solve: the matrix plus delta-chain depth."""

    __slots__ = ("dist", "depth", "seq")

    def __init__(self, dist: np.ndarray, depth: int, seq: int) -> None:
        self.dist = dist
        self.depth = depth
        self.seq = seq


class FailureSetSolver:
    """Memo / delta / full-solve router over failure-set queries.

    Args:
        kernel: the base graph (healthy weights); its memoized
            ``distances()`` are pinned as the healthy entry.
        fail_weight: ``(a, b) -> weight`` of a *failed* link (its
            fallback path, e.g. direct fiber); ``None`` means failure
            removes the link outright (``inf``).  A failed weight below
            the healthy weight is rejected — failures only worsen.
        delta_k: maximum symmetric difference (in links) to a cached
            neighbor for the delta route; ``0`` disables deltas, giving
            the memo-only behavior (one full solve per distinct set).
            Cached *supersets* of the query are accepted up to
            ``max(RESTORE_K, delta_k)``.
        cache_bytes: LRU byte budget for cached matrices (``None`` =
            unbounded; default 256 MiB).  The healthy base is pinned.
    """

    def __init__(
        self,
        kernel: GraphKernel,
        fail_weight: Callable | None = None,
        *,
        delta_k: int = 2,
        cache_bytes: float | None = DEFAULT_CACHE_BYTES,
    ) -> None:
        if delta_k < 0:
            raise ValueError("delta_k must be >= 0")
        self._kernel = kernel
        self._fail_weight = fail_weight
        self._delta_k = int(delta_k)
        self._restore_k = max(RESTORE_K, int(delta_k))
        # Per-source Dijkstra restarts stop paying off once too many
        # sources are affected; past the budget the delta route defers
        # to a (union) full solve.  Sparse bases restart per source in
        # the full solve too, so any strict subset of sources wins;
        # dense bases full-solve with C Floyd-Warshall, whose measured
        # break-even sits near n / 6 restarted sources.
        if kernel.density() >= DENSE_DENSITY_THRESHOLD:
            self._restart_budget = max(1, kernel.n // 6)
        else:
            self._restart_budget = max(1, kernel.n - 1)
        # Per-link healthy/failed weights, resolved once per link; links
        # whose failure changes nothing (absent, or equal weight) are
        # dropped from every query key.
        self._healthy: dict[tuple[int, int], float] = {}
        self._fail: dict[tuple[int, int], float] = {}
        self._noop: set[tuple[int, int]] = set()
        # Inverted index: link -> cached sets containing it; `_tiny`
        # additionally tracks cached sets small enough (< delta_k
        # links) to neighbor a query they share no link with.
        self._by_link: dict[tuple[int, int], set[frozenset]] = {}
        self._tiny: set[frozenset] = set()
        # Links seen in recent queries, oldest -> newest (a dict used
        # as an ordered set): full-solve fallbacks pad their solved set
        # with these, so one solve covers the active storm
        # neighborhood instead of a single transient combination.
        self._recent: dict[tuple[int, int], None] = {}
        self._csr_base: tuple | None = None
        # Scratch buffers for the restoration hot loop, allocated once:
        # fresh n x n temporaries per call would pay ~2 * n^2 * 8 bytes
        # of page-fault cost on every delta.
        self._buf: np.ndarray | None = None
        self._alt: np.ndarray | None = None
        self._seq = 0
        self.full_solves = 0
        self.delta_solves = 0
        self.memo_hits = 0
        self.union_solves = 0
        # put() returns the evicted keys: an eviction callback bound to
        # this solver would make solver and cache a reference cycle that
        # keeps every cached matrix alive until a full garbage collection.
        self._cache = LruCache(cache_bytes, size_of=attrgetter("dist.nbytes"))
        self._base = kernel.distances()
        self._cache.pin(frozenset())
        self._remember(frozenset(), self._base, depth=0)

    # -- public surface -------------------------------------------------

    def stats(self) -> dict:
        """Solve-route counters and cache occupancy as plain numbers."""
        return {
            "full_solves": self.full_solves,
            "delta_solves": self.delta_solves,
            "memo_hits": self.memo_hits,
            "union_solves": self.union_solves,
            "cached_sets": len(self._cache),
            "cache_bytes": self._cache.held,
            "evictions": self._cache.evictions,
        }

    def canonical_key(self, failed) -> frozenset:
        """Normalize a failure set: sorted endpoints, no-op links dropped.

        Resolves (and memoizes) each link's healthy and failed weight on
        first sight; a failed weight *below* the healthy weight raises —
        failures may only worsen a link.
        """
        weights = self._kernel.weights
        n = weights.shape[0]
        links = []
        for link in failed:
            a, b = link
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"invalid link ({a}, {b}) for {n} nodes")
            if a > b:
                a, b = b, a
            key = (a, b)
            if key in self._noop:
                continue
            if key not in self._healthy:
                healthy = float(weights[a, b])
                fail = (
                    np.inf
                    if self._fail_weight is None
                    else float(self._fail_weight(a, b))
                )
                if fail < healthy:
                    raise ValueError(
                        f"link ({a}, {b}): failed weight {fail} improves on "
                        f"healthy {healthy}; failures only worsen"
                    )
                if not np.isfinite(healthy) or fail == healthy:
                    self._noop.add(key)
                    continue
                self._healthy[key] = float(healthy)
                self._fail[key] = fail
            links.append(key)
        return frozenset(links)

    def distances_for(self, failed) -> np.ndarray:
        """All-pairs distances with ``failed`` links down (read-only).

        Routes the query through the cheapest of memo hit, delta from
        the nearest cached neighbor, or full solve, and caches the
        result under the LRU byte budget.
        """
        key = self.canonical_key(failed)
        self._touch_recent(key)
        entry = self._cache.get(key)
        if entry is not None:
            self.memo_hits += 1
            return entry.dist
        neighbor = self._nearest(key)
        derived = None
        if neighbor is not None:
            derived = self._delta_from(neighbor, key)
        if derived is None and self._delta_k > 0:
            # Full-solve fallback (no neighbor, or the removal restart
            # was cost-gated).  Promote the solve to a *superset*: the
            # query unioned with the neighbor and the recently active
            # links, capped so later queries can still restore down
            # within the superset budget.  One full solve then covers the
            # storm's whole active neighborhood — the query itself and
            # its surrounding combinations fall out by restorations.
            target = self._padded(key if neighbor is None else key | neighbor)
            if target != key:
                tentry = self._cache.peek(target)
                if tentry is None or tentry.depth >= MAX_CHAIN:
                    tdist = self._full_solve(target)
                    self.full_solves += 1
                    self.union_solves += 1
                    self._remember(target, tdist, depth=0)
                derived = self._delta_from(target, key)
        if derived is not None:
            dist, depth = derived
            self.delta_solves += 1
        else:
            dist = self._full_solve(key)
            depth = 0
            self.full_solves += 1
        self._remember(key, dist, depth)
        return dist

    def _touch_recent(self, key: frozenset) -> None:
        """Mark the query's links as the most recently active."""
        for link in sorted(key):
            self._recent.pop(link, None)
            self._recent[link] = None
        cap = 4 * self._restore_k
        while len(self._recent) > cap:
            del self._recent[next(iter(self._recent))]

    def _padded(self, seed: frozenset) -> frozenset:
        """``seed`` plus recently active links, newest first.

        Capped at ``max(|seed|, RESTORE_K)`` links so every future
        subset query can restore down within the superset neighbor
        budget.
        """
        target = set(seed)
        limit = max(len(seed), self._restore_k)
        for link in reversed(self._recent):
            if len(target) >= limit:
                break
            target.add(link)
        return frozenset(target)

    # -- cache bookkeeping ----------------------------------------------

    def _remember(self, key: frozenset, dist: np.ndarray, depth: int) -> None:
        entry = _CacheEntry(dist, depth, self._seq)
        self._seq += 1
        for link in key:
            self._by_link.setdefault(link, set()).add(key)
        if 0 < len(key) < self._delta_k:
            self._tiny.add(key)
        for victim in self._cache.put(key, entry):
            self._forget(victim)

    def _forget(self, key: frozenset) -> None:
        for link in key:
            bucket = self._by_link.get(link)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_link[link]
        self._tiny.discard(key)

    # -- route selection ------------------------------------------------

    def _nearest(self, key: frozenset) -> frozenset | None:
        """The best cached neighbor of the query, or None.

        Candidates come from the inverted index (sets sharing a link),
        the tiny sets (small enough to neighbor disjoint queries), and
        the pinned healthy base.  Eligible are sets within ``delta_k``
        links (symmetric difference), plus *supersets* of the query up
        to :data:`RESTORE_K` — a superset needs only restorations, each an
        exact O(n^2) insertion rule, so it stays cheap well past the
        radius where a removal restart would.  Ranking prefers
        restoration-only neighbors, then the smallest symmetric
        difference, then the shallowest delta chain, then the most
        recent solve — all deterministic, so identical query sequences
        pick identical routes.
        """
        if self._delta_k == 0 or not key:
            return None
        counts: dict[frozenset, int] = {}
        for link in key:
            for cand in self._by_link.get(link, ()):
                counts[cand] = counts.get(cand, 0) + 1
        candidates = set(counts)
        candidates.update(self._tiny)
        candidates.add(frozenset())
        best = None
        best_rank = None
        for cand in candidates:
            overlap = counts.get(cand, 0)
            symdiff = len(cand) + len(key) - 2 * overlap
            if symdiff == 0:
                continue
            removals = len(key) - overlap
            budget = self._restore_k if removals == 0 else self._delta_k
            if symdiff > budget:
                continue
            entry = self._cache.peek(cand)
            if entry is None or entry.depth >= MAX_CHAIN:
                continue
            rank = (removals > 0, symdiff, entry.depth, -entry.seq)
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, cand
        return best

    # -- the three routes ------------------------------------------------

    def _full_solve(self, key: frozenset) -> np.ndarray:
        changes = [(a, b, self._fail[(a, b)]) for a, b in sorted(key)]
        return distances_with_edges_removed(self._kernel, self._base, changes)

    def _delta_from(
        self, nkey: frozenset, key: frozenset
    ) -> tuple[np.ndarray, int] | None:
        """Derive the query matrix from cached neighbor ``nkey``.

        Restorations first (links failed in the neighbor, healthy in
        the query): each is an exact edge insertion, leaving an exact
        matrix of the intermediate graph.  Then removals (healthy in
        the neighbor, failed in the query): the affected-source test
        runs against that intermediate matrix, and the affected rows
        are recomputed by Dijkstra on the full query graph.  Returns
        None — no cached state touched — when the restart would exceed
        the cost budget (more affected sources than ``n // 6`` on a
        dense base); the caller falls back to a (union) full solve.
        """
        entry = self._cache.get(nkey)
        dist = np.array(entry.dist)
        restorations = sorted(nkey - key)
        if restorations:
            self._restore_edges(dist, restorations)
        removals = sorted(key - nkey)
        if removals:
            changes = [(a, b, self._healthy[(a, b)]) for a, b in removals]
            idx = np.flatnonzero(affected_sources(dist, changes))
            if idx.size > self._restart_budget:
                return None
            if idx.size:
                dist[idx, :] = self._restart_rows(key, idx)
        dist.setflags(write=False)
        return dist, entry.depth + 1

    def _restore_edges(self, dist: np.ndarray, edges) -> None:
        """Apply the exact insertion rule for each edge, in place.

        The same min-plus update as chaining
        :func:`~repro.graph.kernel.edge_delta_distances` — restoring
        edge ``(a, b)`` admits every path detouring through it — but
        tuned for the solver's hot loop: the edge weight is folded
        into an O(n) column vector (one fewer n x n pass per edge,
        with rounding differences far inside the 1e-9 contract) and
        two solver-owned scratch buffers replace the ~5 fresh n x n
        temporaries a generic expression would allocate per edge.
        """
        if self._buf is None:
            self._buf = np.empty_like(dist)
            self._alt = np.empty_like(dist)
        buf, alt = self._buf, self._alt
        for a, b in edges:
            weight = self._healthy[(a, b)]
            np.add((dist[:, a] + weight)[:, None], dist[b, :][None, :], out=buf)
            np.add((dist[:, b] + weight)[:, None], dist[a, :][None, :], out=alt)
            np.minimum(buf, alt, out=buf)
            np.minimum(dist, buf, out=dist)

    def _restart_rows(self, key: frozenset, idx: np.ndarray) -> np.ndarray:
        """Exact Dijkstra rows of the query graph for the given sources."""
        if all(np.isfinite(self._fail[link]) for link in key):
            graph = self._patched_csr(key)
            return dijkstra(
                graph, directed=False, indices=np.asarray(idx, dtype=np.intp)
            )
        # inf failures change the sparsity pattern: build the query
        # graph's kernel from scratch.
        weights = np.array(self._kernel.weights)
        for a, b in sorted(key):
            weights[a, b] = weights[b, a] = self._fail[(a, b)]
        return GraphKernel(weights).distances_from(idx)

    def _patched_csr(self, key: frozenset) -> csr_matrix:
        """The query graph's CSR by patching the base CSR's data vector.

        Finite failed weights keep the base sparsity pattern, so the
        indices/indptr arrays are built once and only the few changed
        data slots are rewritten per query — no O(n^2) matrix rebuild,
        no coo -> csr conversion.  The canonical (row-major, sorted)
        layout matches :meth:`~repro.graph.kernel.GraphKernel.csr`, so
        the Dijkstra rows are bit-identical to the kernel's.
        """
        if self._csr_base is None:
            w = self._kernel.weights
            n = w.shape[0]
            finite = np.isfinite(w)
            np.fill_diagonal(finite, False)
            rows, cols = np.nonzero(finite)
            counts = np.bincount(rows, minlength=n)
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
            self._csr_base = (cols.astype(np.int32), indptr, w[rows, cols], n)
        indices, indptr, base_data, n = self._csr_base
        data = base_data.copy()
        for a, b in sorted(key):
            w = self._fail[(a, b)]
            for u, v in ((a, b), (b, a)):
                lo, hi = int(indptr[u]), int(indptr[u + 1])
                data[lo + int(np.searchsorted(indices[lo:hi], v))] = w
        return csr_matrix((data, indices, indptr), shape=(n, n))
