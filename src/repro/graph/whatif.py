"""Delta-reuse failure-set solver for storm-track what-if queries.

:class:`FailureSetSolver` answers a *stream* of failure-set distance
queries against one frozen base :class:`~repro.graph.view.GraphView`.
The weather layer's storm tracks produce long chains of near-identical
sets — one or two links flapping in and out between days — and whole-set
memoization (PR 5) still pays one full all-pairs solve per *distinct*
set.  The solver instead picks the cheapest route per query:

* **memo hit** — the exact set was solved before: return the cached
  matrix (bit-identical, zero work).
* **delta solve** — a previously solved *neighbor* set differs from the
  query by at most ``delta_k`` links (symmetric difference).  Links
  failed in the neighbor but healthy in the query are *restored* by the
  kernel's exact O(n^2) single-edge insertion rule
  (:func:`~repro.graph.kernel.edge_delta_distances` — a weight decrease
  is an edge insertion in parallel with the worse edge); links failed
  in the query but healthy in the neighbor are *removed* by the
  affected-source machinery behind
  :meth:`~repro.graph.view.GraphView.distances_with_edges_removed`:
  only sources with a tight shortest path through a removed link are
  restarted (batched Dijkstra on the query graph) and merged into the
  neighbor's matrix.  A cached *superset* of the query needs only
  restorations — no restart at all — so supersets are accepted up to
  the larger :data:`RESTORE_K` budget and preferred over any neighbor
  that needs removals.
* **full solve** — no cached neighbor is close enough: fall back to the
  view's batch what-if query, exactly as before.

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
the cached sets.  Cached matrices live under an LRU byte budget
(:class:`ByteBudgetLRU`) so long daily-resolution runs cannot exhaust
memory; the healthy-base matrix is pinned.  Route counters
(``full_solves`` / ``delta_solves`` / ``memo_hits``, plus cache bytes
and evictions) surface in the weather stage records through
:meth:`FailureSetSolver.stats`.

Accuracy contract: delta-derived matrices match the full solve to
<= 1e-9 relative.  The restoration rule is exact and removals restart
affected rows from scratch, so the only divergence from a full solve is
float association error, bounded by capping delta-chain depth
(:data:`MAX_CHAIN`); a removal-only delta taken directly from the base of a
*sparse* view is bit-identical to the full solve (same machinery).
Route selection is deterministic, so identical query sequences through
identically configured solvers return bitwise-identical results.
"""

from __future__ import annotations

import numbers
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .kernel import DENSE_DENSITY_THRESHOLD, GraphKernel
from .view import GraphView, affected_sources

#: Default LRU budget for cached distance matrices (bytes).
DEFAULT_CACHE_BYTES = 256 * 2**20

#: Symmetric-difference budget for a cached *superset* of a query
#: (restoration-only deltas, pure O(n^2) insertion rules); also caps
#: the padded union solves.  Never below the solver's ``delta_k``.
RESTORE_K = 12

#: Maximum delta-chain depth: a query whose every candidate neighbor
#: sits this deep is fully solved, bounding float drift.
MAX_CHAIN = 64


class ByteBudgetLRU:
    """An LRU mapping bounded by the total byte size of its values.

    Args:
        budget_bytes: evict least-recently-used entries once the held
            bytes exceed this (``None`` = unbounded).
        size_of: value -> size in bytes (default: ``value.nbytes``).

    Pinned keys (:meth:`pin`) and the most recently inserted entry are
    never evicted, so the cache can exceed its budget by at most one
    working entry plus the pinned ones — a cache that cannot hold the
    entry it was just asked to keep would thrash.
    """

    def __init__(
        self,
        budget_bytes: float | None = None,
        size_of: Callable | None = None,
    ) -> None:
        # A positive test, so NaN (which fails every comparison) is
        # rejected too rather than evicting all but the newest entry.
        if budget_bytes is not None and not (
            isinstance(budget_bytes, numbers.Real)
            and not isinstance(budget_bytes, bool)
            and budget_bytes >= 0
        ):
            raise ValueError(
                f"budget_bytes must be None or a number >= 0, got {budget_bytes!r}"
            )
        self._budget = None if budget_bytes is None else float(budget_bytes)
        self._size_of = size_of or (lambda value: int(value.nbytes))
        self._data: dict = {}
        self._sizes: dict = {}
        self._pinned: set = set()
        self._bytes = 0
        self.evictions = 0

    @property
    def bytes_held(self) -> int:
        """Total byte size of all held values."""
        return self._bytes

    @property
    def budget_bytes(self) -> float | None:
        return self._budget

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def keys(self):
        """Keys in LRU -> MRU order."""
        return iter(list(self._data))

    def pin(self, key) -> None:
        """Exempt ``key`` from eviction (it need not be present yet)."""
        self._pinned.add(key)

    def peek(self, key, default=None):
        """Look up without touching recency."""
        return self._data.get(key, default)

    def get(self, key, default=None):
        """Look up and mark most-recently-used."""
        value = self._data.get(key, default)
        if key in self._data:
            # dicts preserve insertion order: re-inserting moves to MRU.
            self._data[key] = self._data.pop(key)
            self._sizes[key] = self._sizes.pop(key)
        return value

    def put(self, key, value) -> list:
        """Insert/replace ``key`` at MRU, then evict down to budget.

        Returns the evicted keys, least recently used first (a
        replacement of ``key`` itself is not an eviction).
        """
        size = int(self._size_of(value))
        if key in self._data:
            del self._data[key]
            self._bytes -= self._sizes.pop(key)
        self._data[key] = value
        self._sizes[key] = size
        self._bytes += size
        evicted: list = []
        if self._budget is None:
            return evicted
        for victim in list(self._data):
            if self._bytes <= self._budget:
                break
            if victim == key or victim in self._pinned:
                continue
            del self._data[victim]
            self._bytes -= self._sizes.pop(victim)
            self.evictions += 1
            evicted.append(victim)
        return evicted


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
        view: the frozen base graph (healthy weights).  Mutating it
            after construction invalidates the solver — queries then
            raise.
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
        base_distances: optional exact all-pairs matrix of ``view``'s
            weights to seed the healthy entry without a solve.
    """

    def __init__(
        self,
        view: GraphView,
        fail_weight: Callable | None = None,
        *,
        delta_k: int = 2,
        cache_bytes: float | None = DEFAULT_CACHE_BYTES,
        base_distances: np.ndarray | None = None,
    ) -> None:
        if delta_k < 0:
            raise ValueError("delta_k must be >= 0")
        self._view = view
        self._fail_weight = fail_weight
        self._base_version = view.version
        self._delta_k = int(delta_k)
        self._restore_k = max(RESTORE_K, int(delta_k))
        # Per-source Dijkstra restarts stop paying off once too many
        # sources are affected; past the budget the delta route defers
        # to a (union) full solve.  Sparse bases restart per source in
        # the full solve too, so any strict subset of sources wins;
        # dense bases full-solve with C Floyd-Warshall, whose measured
        # break-even sits near n / 6 restarted sources.
        if view.kernel().density() >= DENSE_DENSITY_THRESHOLD:
            self._restart_budget = max(1, view.n // 6)
        else:
            self._restart_budget = max(1, view.n - 1)
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
        self._cache = ByteBudgetLRU(
            cache_bytes,
            size_of=lambda entry: int(entry.dist.nbytes),
        )
        base = (
            np.asarray(base_distances, dtype=float)
            if base_distances is not None
            else view.distances()
        )
        if base.shape != (view.n, view.n):
            raise ValueError(
                f"base_distances shape {base.shape} does not match n={view.n}"
            )
        self._cache.pin(frozenset())
        self._remember(frozenset(), base, depth=0)

    # -- public surface -------------------------------------------------

    def stats(self) -> dict:
        """Solve-route counters and cache occupancy as plain numbers."""
        return {
            "full_solves": self.full_solves,
            "delta_solves": self.delta_solves,
            "memo_hits": self.memo_hits,
            "union_solves": self.union_solves,
            "cached_sets": len(self._cache),
            "cache_bytes": self._cache.bytes_held,
            "evictions": self._cache.evictions,
        }

    def cached_failure_sets(self) -> tuple[frozenset, ...]:
        """Currently cached canonical keys, LRU -> MRU."""
        return tuple(self._cache.keys())

    def canonical_key(self, failed) -> frozenset:
        """Normalize a failure set: sorted endpoints, no-op links dropped.

        Resolves (and memoizes) each link's healthy and failed weight on
        first sight; a failed weight *below* the healthy weight raises —
        failures may only worsen a link.
        """
        n = self._view.n
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
                healthy = self._view.weight(a, b)
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
        if self._view.version != self._base_version:
            raise RuntimeError(
                "base GraphView mutated under the FailureSetSolver; "
                "build a new solver for the new graph state"
            )
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
        edges = [(a, b, self._fail[(a, b)]) for a, b in sorted(key)]
        return self._view.distances_with_edges_removed(edges)

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
        weights = self._view.weights_copy()
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
            w = self._view.weights_copy()
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
