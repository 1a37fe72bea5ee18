"""The shared distance/routing engine (see ``kernel.py``).

Public surface:

* :class:`GraphKernel` — immutable all-pairs / per-source solver over
  one weight matrix (dense FW or batched sparse Dijkstra, chosen by
  density; the only module allowed to run dense Floyd-Warshall).  It is
  the one graph handle: ``Topology.graph_kernel()`` memoizes the hybrid
  graph's, and no layer edits a graph in place.
* :func:`edge_delta_distances` / :func:`edge_delta_with_carry` — the
  vectorized single-edge insertion rule the design heuristics and the
  evolution backend share.
* :class:`FailureSetSolver` — the delta-reuse router over failure-set
  query streams (``whatif.py``): memo hit, compositional delta from
  the nearest cached neighbor set, or full solve
  (``whatif.distances_with_edges_removed``: affected-source Dijkstra
  restart, the kernel untouched), its matrices in a byte-budgeted
  :class:`~repro.cache.LruCache`.  The weather evaluator rides on it.
* :func:`graph_kernel_version` — cache-key ingredient for the
  experiment orchestration layer.
"""

from .kernel import (
    DENSE_DENSITY_THRESHOLD,
    KERNEL_VERSION,
    GraphKernel,
    edge_delta_distances,
    edge_delta_with_carry,
    graph_kernel_version,
)
from .whatif import DEFAULT_CACHE_BYTES, FailureSetSolver

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "DENSE_DENSITY_THRESHOLD",
    "KERNEL_VERSION",
    "FailureSetSolver",
    "GraphKernel",
    "edge_delta_distances",
    "edge_delta_with_carry",
    "graph_kernel_version",
]
