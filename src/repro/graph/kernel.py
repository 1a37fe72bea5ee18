"""The shared graph kernel: one distance/routing engine for the repo.

Every layer of the pipeline — topology design (mean-stretch objective),
the packet/fluid simulators, weather rerouting, and the application
studies — asks the same two questions of the hybrid fiber/MW graph:
*how far* (all-pairs / per-source shortest distances) and *which way*
(the shortest route itself).  Before this module each layer answered
them with its own stack (dense Floyd-Warshall matrices, networkx
graphs, predecessor-row reconstruction); now they all go through one
kernel with three complementary query paths:

* **full solves** — :meth:`GraphKernel.distances` /
  :meth:`GraphKernel.predecessors` pick the fastest exact method for
  the graph's density: scipy's C Floyd-Warshall for dense inputs (the
  hybrid graph is a metric closure, so it is complete) and batched CSR
  Dijkstra for sparse ones.  This module is the *only* place a dense
  FW solve may appear (enforced by a test).
* **per-source queries** — :meth:`GraphKernel.distances_from` runs
  batched sparse Dijkstra for a handful of sources without paying for
  all pairs.
* **incremental deltas** — :func:`edge_delta_distances` applies the
  exact single-edge insertion rule

      d'(s, t) = min(d(s, t), d(s, a) + w_ab + d(b, t),
                              d(s, b) + w_ab + d(a, t))

  vectorized over all pairs, O(n^2) per edge instead of O(n^3) per
  solve.  The rule is exact for nonnegative weights because a shortest
  path crosses a newly inserted edge at most once.
  :func:`edge_delta_with_carry` additionally maintains an additive
  per-pair quantity along the rerouted paths (e.g. MW-km carried),
  which is what lets the evolution backend score every budget prefix
  without ever reconstructing routes.

A kernel is immutable, so it is the one graph handle: a what-if over
it (a failure set, a removed link) never edits it but solves a
modified copy of its weights (:mod:`repro.graph.whatif`), and
``Topology.graph_kernel()`` memoizes the hybrid graph's kernel.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, floyd_warshall

#: Code-version tag of the kernel's semantics.  The experiment
#: orchestration layer embeds it in stage cache keys (like
#: ``solver_version``), so bumping it retires every cached artifact
#: whose values flowed through the kernel.
KERNEL_VERSION = "1"

#: Fraction of finite off-diagonal entries above which the dense
#: Floyd-Warshall path is used for full solves.  Hybrid fiber/MW
#: matrices are metric closures (complete graphs), where scipy's FW is
#: ~3x faster than CSR Dijkstra; genuinely sparse graphs go the other
#: way.
DENSE_DENSITY_THRESHOLD = 0.25


def graph_kernel_version() -> str:
    """The kernel's code-version tag (cache-key ingredient)."""
    return KERNEL_VERSION


def edge_delta_distances(
    dist: np.ndarray, a: int, b: int, weight: float
) -> np.ndarray:
    """All-pairs distances after inserting undirected edge (a, b, weight).

    Exact for nonnegative weights given that ``dist`` is an exact
    all-pairs matrix of the pre-insertion graph.  Returns a new array;
    ``dist`` is not modified.
    """
    via = np.minimum(
        dist[:, a][:, None] + dist[b, :][None, :],
        dist[:, b][:, None] + dist[a, :][None, :],
    )
    return np.minimum(dist, via + weight)


def edge_delta_with_carry(
    dist: np.ndarray,
    carry: np.ndarray,
    a: int,
    b: int,
    weight: float,
    edge_carry: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The delta rule, also tracking an additive per-pair path quantity.

    ``carry[s, t]`` is some additive quantity accumulated along the
    current canonical shortest route (MW-km, hop counts, ...).  Pairs
    whose distance *strictly* improves reroute through the new edge;
    their carried quantity becomes ``carry[s, a] + edge_carry +
    carry[b, t]`` (or the mirrored orientation, whichever won the
    minimum; ties prefer the ``a`` orientation, matching
    :func:`edge_delta_distances`'s ``np.minimum`` order).  Pairs whose
    distance ties or worsens keep their old route and carry.

    Args:
        dist: exact all-pairs distances before the insertion.
        carry: the per-pair carried quantity before the insertion.
        a / b: endpoints of the inserted undirected edge.
        weight: the edge's length.
        edge_carry: the edge's own contribution to the carried quantity
            (defaults to ``weight``).

    Returns ``(new_dist, new_carry)`` — new arrays, inputs unmodified.
    The distance result is bit-identical to
    :func:`edge_delta_distances` on the same inputs.
    """
    if edge_carry is None:
        edge_carry = weight
    via_a = dist[:, a][:, None] + dist[b, :][None, :]
    via_b = dist[:, b][:, None] + dist[a, :][None, :]
    via = np.minimum(via_a, via_b)
    new_dist = np.minimum(dist, via + weight)
    improved = new_dist < dist
    carry_via_a = carry[:, a][:, None] + edge_carry + carry[b, :][None, :]
    carry_via_b = carry[:, b][:, None] + edge_carry + carry[a, :][None, :]
    rerouted = np.where(via_a <= via_b, carry_via_a, carry_via_b)
    new_carry = np.where(improved, rerouted, carry)
    return new_dist, new_carry


class GraphKernel:
    """Immutable all-pairs/per-source engine over one weight matrix.

    Args:
        weights: dense (n, n) symmetric matrix of edge weights;
            ``inf`` marks absent edges, the diagonal is forced to 0.
            The kernel keeps a private read-only copy.
        method: ``"auto"`` (density-based, the default), ``"dense"``
            (Floyd-Warshall), or ``"sparse"`` (batched CSR Dijkstra)
            for full solves.  Per-source queries always use sparse
            Dijkstra.

    All cached results (distances, predecessors) are returned as
    read-only arrays shared across callers; copy before mutating.
    """

    __slots__ = (
        "_weights", "_method", "_csr", "_dist", "_pred", "_edges", "_density", "_paths",
    )

    def __init__(self, weights: np.ndarray, method: str = "auto") -> None:
        if method not in ("auto", "dense", "sparse"):
            raise ValueError("method must be 'auto', 'dense', or 'sparse'")
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        self._weights = w
        self._method = method
        self._csr: csr_matrix | None = None
        self._dist: np.ndarray | None = None
        self._pred: np.ndarray | None = None
        self._edges: int | None = None
        self._density: float | None = None
        # Whether distances() also fills the predecessor matrix, so that
        # a later predecessors() call costs no second solve.
        self._paths = True

    @classmethod
    def distances_only(cls, weights: np.ndarray, method: str) -> "GraphKernel":
        """A kernel for one distances solve over a caller-owned matrix.

        ``weights`` must be a float (n, n) array with a zero diagonal
        that no one else writes to: the kernel takes it over without a
        copy and makes it read-only.  ``method`` (``"dense"`` or
        ``"sparse"``) is the caller's density decision, so nothing is
        recounted, and :meth:`distances` fills no predecessor matrix.
        """
        if method not in ("dense", "sparse"):
            raise ValueError("method must be 'dense' or 'sparse'")
        kernel = cls.__new__(cls)
        weights.setflags(write=False)
        kernel._weights = weights
        kernel._method = method
        kernel._csr = kernel._dist = kernel._pred = None
        kernel._edges = kernel._density = None
        kernel._paths = False
        return kernel

    @property
    def n(self) -> int:
        return self._weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The (read-only) dense weight matrix."""
        return self._weights

    def edge_count(self) -> int:
        """Number of undirected edges (finite off-diagonal pairs), counted once."""
        if self._edges is None:
            iu = np.triu_indices(self.n, k=1)
            self._edges = int(np.isfinite(self._weights[iu]).sum())
        return self._edges

    def density(self) -> float:
        """Fraction of site pairs with a direct edge (computed once)."""
        if self._density is None:
            pairs = self.n * (self.n - 1) // 2
            self._density = self.edge_count() / pairs if pairs else 0.0
        return self._density

    def csr(self) -> csr_matrix:
        """The sparse CSR adjacency (finite off-diagonal entries)."""
        if self._csr is None:
            iu, ju = np.triu_indices(self.n, k=1)
            vals = self._weights[iu, ju]
            finite = np.isfinite(vals)
            rows = np.concatenate([iu[finite], ju[finite]])
            cols = np.concatenate([ju[finite], iu[finite]])
            data = np.concatenate([vals[finite], vals[finite]])
            self._csr = csr_matrix(
                (data, (rows, cols)), shape=(self.n, self.n)
            )
        return self._csr

    def _use_dense(self) -> bool:
        if self._method == "dense":
            return True
        if self._method == "sparse":
            return False
        return self.density() >= DENSE_DENSITY_THRESHOLD

    def _solve(self, return_predecessors: bool):
        if self._use_dense():
            # floyd_warshall itself, not shortest_path(method="FW"): the
            # wrapper validates the dense input once more, with the same
            # result, before floyd_warshall validates it again.  That
            # validation copies the (read-only) weights it is given.
            return floyd_warshall(
                self._weights,
                directed=False,
                return_predecessors=return_predecessors,
            )
        return dijkstra(
            self.csr(), directed=False, return_predecessors=return_predecessors
        )

    def distances(self) -> np.ndarray:
        """All-pairs shortest distances (cached, read-only).

        Solved together with the predecessor matrix, so any order of
        ``distances()`` / ``predecessors()`` calls pays exactly one full
        solve; a :meth:`distances_only` kernel solves distances alone.
        Both solves give bitwise the same distances.
        """
        if self._dist is None:
            if self._paths:
                self.predecessors()
            else:
                dist = self._solve(return_predecessors=False)
                dist.setflags(write=False)
                self._dist = dist
        assert self._dist is not None
        return self._dist

    def predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(distances, predecessors)`` for path reconstruction (cached).

        ``predecessors[s, t]`` is the node before ``t`` on the shortest
        s -> t path, or a negative sentinel when unreachable.
        """
        if self._pred is None:
            dist, pred = self._solve(return_predecessors=True)
            dist.setflags(write=False)
            pred.setflags(write=False)
            self._dist = dist
            self._pred = pred
        assert self._dist is not None
        return self._dist, self._pred

    def distances_from(
        self, sources, return_predecessors: bool = False
    ):
        """Shortest distances from a few sources (batched sparse Dijkstra).

        Args:
            sources: int or sequence of ints; rows of the result follow
                their order.
            return_predecessors: also return the predecessor rows.
        """
        indices = np.atleast_1d(np.asarray(sources, dtype=np.intp))
        return dijkstra(
            self.csr(),
            directed=False,
            indices=indices,
            return_predecessors=return_predecessors,
        )

    def path(self, s: int, t: int) -> list[int] | None:
        """The shortest s -> t node sequence, or None when unreachable."""
        dist, pred = self.predecessors()
        if s == t:
            return [s]
        if not np.isfinite(dist[s, t]):
            return None
        path = [t]
        node = t
        while node != s:
            node = int(pred[s, node])
            if node < 0:  # defensive: finite distance implies a chain
                return None
            path.append(node)
        path.reverse()
        return path
