"""The cISP topology-design heuristic (paper §3.2).

The paper's near-optimal, scalable pipeline:

1. *Pruning oracle* — drop MW candidates dominated by fiber (exact).
2. *Greedy candidate generation* — with an inflated budget (2x by
   default), repeatedly add the MW link that reduces the traffic-
   weighted mean stretch the most; the picked links become the ILP's
   candidate set.
3. *Final ILP* — solve the exact ILP restricted to those candidates at
   the true budget.  At scales where even that is too slow, the greedy
   selection at the true budget is used directly (the paper reports the
   greedy matches the ILP wherever both can run).

The greedy uses lazy re-evaluation: stretch gains only shrink as the
network improves (approximately submodular), so a stale-gain max-heap
re-verifies just a few candidates per iteration instead of all of them.
A single greedy run also yields the whole budget curve (Fig 4a): the
selection is incremental, so every budget corresponds to a prefix.

On larger instances the stale entries at the top of the heap are
re-evaluated together, in speculative batches, and each gain is computed
only on the site pairs the link can shorten (``_restricted_gains``).
Both are exact: the picks, ties included, and every gain are
bit-identical to evaluating one entry at a time over all pairs.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..graph import edge_delta_distances
from .ilp import prune_useless_links, solve_ilp
from .topology import DesignInput, Topology


@dataclass(frozen=True)
class GreedyStep:
    """One greedy pick.

    Attributes:
        link: the (a, b) site pair added.
        cost_towers: the link's tower cost.
        cumulative_cost: total towers spent after this pick.
        mean_stretch: traffic-weighted mean stretch after this pick.
    """

    link: tuple[int, int]
    cost_towers: float
    cumulative_cost: float
    mean_stretch: float


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of the full heuristic pipeline.

    Attributes:
        topology: the final topology at the true budget.
        objective: its traffic-weighted mean stretch.
        greedy_steps: the greedy sequence (to the inflated budget).
        used_ilp_refinement: whether step 3 ran the restricted ILP.
        runtime_s: wall-clock time for the whole pipeline.
    """

    topology: Topology
    objective: float
    greedy_steps: tuple[GreedyStep, ...]
    used_ilp_refinement: bool
    runtime_s: float


#: Stale heap entries re-evaluated together in one batched gain pass.
#: A pick usually lands within the first few re-evaluations, so larger
#: batches mostly add speculative work: at 120 sites 16 measured within
#: noise of 8, and 4 was slower (more passes, each with a fixed NumPy
#: cost).
_BATCH = 8

#: Site count from which gains are batched and pair-restricted.  Below
#: it each pass's fixed NumPy overhead outweighs the pairs it skips
#: (whole greedy runs: 0.74-1.09x at 20 sites, 0.95-1.16x at 40,
#: 1.4-1.6x at 60 and about 2x at 120), so stale entries are
#: re-evaluated one at a time over all pairs.
_BATCH_MIN_SITES = 50


def _restricted_gains(
    dist: np.ndarray,
    weights: np.ndarray,
    mw: np.ndarray,
    links: list[tuple[int, int]],
    tau: float,
    buf: np.ndarray,
) -> list[float]:
    """Stretch gains of adding each link, computed only where it helps.

    A link (a, b) of length m can shorten d(s, t) through a -> b only if
    d(s, a) + m < d(s, b) (s is on the *a-side*) and d(t, b) + m <
    d(t, a) (t is on the *b-side*); by the triangle inequality every
    other pair keeps its distance, and the mirror orientation swaps the
    sides.  Both tests carry the guard band ``tau``, so float error can
    only add pairs, never drop one.  Weights live on the upper triangle,
    so each unordered a-side x b-side pair is computed once, at (s, t)
    with s < t, with the delta rule's own operations in its own order.

    The products go into the zeroed ``buf`` at their (s, t) offsets and
    each candidate's row of n * n is summed: the pairwise summation of
    the all-pairs gain ``(weights * (dist - new)).sum()`` over the same
    array, exact zeros included, so the gains are bit-identical to it.
    Only valid where :func:`_restriction_is_exact` holds.
    """
    n = dist.shape[0]
    k = len(links)
    a = np.array([link[0] for link in links], dtype=np.intp)
    b = np.array([link[1] for link in links], dtype=np.intp)
    w = mw[a, b]
    # Row t of dist for target-side tests, column s for source-side
    # ones: the matrix is symmetric only up to rounding.
    row_a, row_b = dist[a], dist[b]
    col_a, col_b = dist.T[a], dist.T[b]
    margin = (w - tau)[:, None]
    rows, cols = row_b - row_a, col_b - col_a
    c_a, x = np.nonzero((rows > margin) | (cols > margin))
    c_b, y = np.nonzero((rows < -margin) | (cols < -margin))
    # Every a-side node x of candidate c meets every b-side node y of c.
    n_b = np.bincount(c_b, minlength=k)
    reps = n_b[c_a]
    c = np.repeat(c_a, reps)
    x = np.repeat(x, reps)
    offsets = np.arange(c.size) - np.repeat(np.cumsum(reps) - reps, reps)
    y = y[(np.cumsum(n_b) - n_b)[c] + offsets]
    s, t = np.minimum(x, y), np.maximum(x, y)
    st, cs, ct = s * n + t, c * n + s, c * n + t
    d_st = dist.ravel()[st]
    via = np.minimum(
        col_a.ravel()[cs] + row_b.ravel()[ct], col_b.ravel()[cs] + row_a.ravel()[ct]
    )
    new = np.minimum(d_st, via + w[c])
    at = c * (n * n) + st
    out = buf[: k * n * n]
    out[at] = weights.ravel()[st] * (d_st - new)
    gains = out.reshape(k, n * n).sum(axis=1)
    out[at] = 0.0
    return gains.tolist()


def _restriction_is_exact(
    dist: np.ndarray, weights: np.ndarray, lengths: np.ndarray, tau: float
) -> bool:
    """Whether :func:`_restricted_gains` may skip pairs on this input.

    Needs finite nonnegative distances that satisfy the triangle
    inequality to within ``tau / 2`` (a metric closure such as the fiber
    matrix; each pick's delta update adds only a few ulps of slack),
    finite nonnegative link lengths, and finite weights that are +0.0 on
    and below the diagonal and nowhere negative, so every skipped
    product is exactly +0.0.  Anything else takes the full evaluation.
    """
    if not (np.isfinite(dist).all() and (dist >= 0).all() and np.isfinite(weights).all()):
        return False
    if np.signbit(weights).any() or np.tril(weights).any():
        return False
    if not (np.isfinite(lengths).all() and (lengths >= 0).all()):
        return False
    for v in range(dist.shape[0]):
        if (dist[:, v, None] + dist[None, v, :] < dist - tau / 2).any():
            return False
    return True


def _checked_candidates(
    candidates: list[tuple[int, int]], n_sites: int
) -> list[tuple[int, int]]:
    for link in candidates:
        a, b = link
        if not 0 <= a < b < n_sites:
            raise ValueError(
                f"candidates must be (a, b) site pairs with 0 <= a < b < "
                f"{n_sites}, got {link!r}"
            )
    return list(candidates)


def greedy_sequence(
    design: DesignInput,
    budget_towers: float,
    candidates: list[tuple[int, int]] | None = None,
    selection: str = "gain",
) -> list[GreedyStep]:
    """Greedy link selection up to ``budget_towers``.

    Args:
        design: problem input.
        budget_towers: stop when the next affordable pick would exceed
            this; candidates that no longer fit are skipped.  Must be
            >= 0 (``inf`` for no limit).
        candidates: restrict to these links, each ``(a, b)`` with
            ``0 <= a < b < n_sites`` (default: oracle-pruned).
        selection: "gain" picks the largest stretch reduction (the
            paper's rule); "gain_per_cost" normalizes by tower cost.

    Returns the ordered picks; prefixes of the sequence are valid
    solutions for smaller budgets.
    """
    if selection not in ("gain", "gain_per_cost"):
        raise ValueError("selection must be 'gain' or 'gain_per_cost'")
    if not budget_towers >= 0:
        raise ValueError(f"budget_towers must be >= 0, got {budget_towers!r}")
    if candidates is None:
        candidates = prune_useless_links(design)
    links = _checked_candidates(candidates, design.n_sites)
    weights = design.pair_weights()
    # Count each unordered pair once but let links shorten either
    # direction: distances are symmetric, so work on the full matrix
    # with upper-triangle weights.
    dist = design.fiber_km.copy()
    np.fill_diagonal(dist, 0.0)
    cost = design.cost_towers
    mw = design.mw_km
    # mean_stretch_from_distances' per-design terms, computed once: each
    # step's stretch is then the same arithmetic on the same values.
    total_h = np.triu(design.traffic, k=1).sum()

    # The pair restriction's guard band, as in affected_sources (NaN or
    # inf here fails the finiteness check before tau is used).
    tau = 1e-9 * float(dist.max(initial=0.0))
    # The distances after the last per-entry evaluation, reused when that
    # entry is picked; dropped at every pick.
    evaluated: dict[tuple[int, int], np.ndarray] = {}
    if design.n_sites >= _BATCH_MIN_SITES and _restriction_is_exact(
        dist, weights, np.array([mw[a, b] for a, b in links]), tau
    ):
        batch = _BATCH
        buf = np.zeros(batch * design.n_sites**2)

        def gains(todo: list[tuple[int, int]]) -> list[float]:
            return _restricted_gains(dist, weights, mw, todo, tau, buf)

    else:
        batch = 1

        def gains(todo: list[tuple[int, int]]) -> list[float]:
            # The graph kernel's single-edge delta rule over all pairs, as
            # in the evolution backend.
            ((a, b),) = todo
            new_dist = edge_delta_distances(dist, a, b, mw[a, b])
            evaluated.clear()
            evaluated[a, b] = new_dist
            return [float((weights * (dist - new_dist)).sum())]

    def score(gain: float, link_cost: float) -> float:
        if selection == "gain":
            return gain
        return gain / max(link_cost, 1.0)

    # Same entries as pushing each candidate in order: with unique
    # stamps the pop order does not depend on the heap's layout.
    heap: list[tuple[float, int, tuple[int, int]]] = []
    for start in range(0, len(links), batch):
        chunk = links[start : start + batch]
        for (a, b), gain in zip(chunk, gains(chunk)):
            heap.append((-score(gain, cost[a, b]), len(heap), (a, b)))
    heapq.heapify(heap)
    stamp = len(heap)

    # Entries a speculative batch popped ahead of their turn, and the
    # gains at the current ``dist``; both are dropped at every pick.
    pending: list[tuple[float, int, tuple[int, int]]] = []
    cached: dict[tuple[int, int], float] = {}

    def front() -> list[tuple[float, int, tuple[int, int]]]:
        """The heap that holds the next entry in pop order."""
        return pending if pending and (not heap or pending[0] < heap[0]) else heap

    def speculate(link: tuple[int, int]) -> list[tuple[int, int]]:
        """``link`` and the next stale entries the loop would re-verify
        if ``link`` loses to them; their heap entries wait in ``pending``."""
        todo = [link]
        peeked = []
        while len(todo) < batch and (heap or pending):
            entry = heapq.heappop(front())
            peeked.append(entry)
            nxt = entry[2]
            if not (
                nxt in cached
                or nxt in todo
                or nxt in chosen
                or spent + cost[nxt[0], nxt[1]] > budget_towers
            ):
                todo.append(nxt)
        for entry in peeked:
            heapq.heappush(pending, entry)
        return todo

    steps: list[GreedyStep] = []
    spent = 0.0
    chosen: set[tuple[int, int]] = set()
    fresh: dict[tuple[int, int], int] = {}
    epoch = 0
    while heap or pending:
        _, _, link = heapq.heappop(front())
        if link in chosen:
            continue
        a, b = link
        if spent + cost[a, b] > budget_towers:
            continue  # cannot afford; cheaper links may still fit
        gain = cached.get(link)
        if gain is None:
            todo = speculate(link) if batch > 1 else [link]
            cached.update(zip(todo, gains(todo)))
            gain = cached[link]
        current = score(gain, cost[a, b])
        if fresh.get(link, -1) != epoch:
            # Stale entry: re-verify against the next-best stale score.
            following = front()
            next_best = -following[0][0] if following else -np.inf
            if current < next_best - 1e-15:
                fresh[link] = epoch
                heapq.heappush(heap, (-current, stamp, link))
                stamp += 1
                continue
        if gain <= 1e-12:
            break
        new_dist = evaluated.get(link)
        dist = edge_delta_distances(dist, a, b, mw[a, b]) if new_dist is None else new_dist
        chosen.add(link)
        spent += cost[a, b]
        epoch += 1
        for entry in pending:
            heapq.heappush(heap, entry)
        pending.clear()
        cached.clear()
        evaluated.clear()
        if total_h <= 0:
            raise ValueError("no traffic demand")
        steps.append(
            GreedyStep(
                link=link,
                cost_towers=float(cost[a, b]),
                cumulative_cost=spent,
                mean_stretch=float((weights * np.triu(dist, k=1)).sum() / total_h),
            )
        )
    return steps


def solve_heuristic(
    design: DesignInput,
    budget_towers: float,
    inflation: float = 2.0,
    selection: str = "gain",
    ilp_refinement: bool | None = None,
    ilp_max_sites: int = 40,
    time_limit_s: float | None = None,
) -> HeuristicResult:
    """Run the full cISP heuristic pipeline.

    Args:
        design: problem input.
        budget_towers: the true tower budget B.
        inflation: greedy candidate-generation budget multiplier (2x in
            the paper).
        selection: greedy scoring rule.
        ilp_refinement: force the restricted final ILP on/off; default
            (None) enables it when the instance is small enough
            (n_sites <= ilp_max_sites).
        ilp_max_sites: auto-refinement size threshold.
        time_limit_s: time limit for the final ILP, if it runs.
    """
    start = time.perf_counter()
    if not budget_towers >= 0:
        raise ValueError(f"budget_towers must be >= 0, got {budget_towers!r}")
    if not inflation >= 1.0:
        raise ValueError(f"inflation must be >= 1, got {inflation!r}")
    steps = greedy_sequence(
        design, budget_towers * inflation, selection=selection
    )
    if ilp_refinement is None:
        ilp_refinement = design.n_sites <= ilp_max_sites
    if ilp_refinement and steps:
        # Candidate set for the restricted ILP: the union of both greedy
        # scoring rules.  The cost-normalized pass surfaces cheap links
        # the pure-gain pass overlooks, and empirically the union
        # recovers the exact ILP optimum at every scale we can verify.
        other = "gain_per_cost" if selection == "gain" else "gain"
        alt_steps = greedy_sequence(
            design, budget_towers * inflation, selection=other
        )
        candidate_links = sorted(
            {s.link for s in steps} | {s.link for s in alt_steps}
        )
        ilp = solve_ilp(
            design,
            budget_towers,
            candidate_links=candidate_links,
            time_limit_s=time_limit_s,
        )
        topology = ilp.topology
    else:
        links: set[tuple[int, int]] = set()
        spent = 0.0
        for step in steps:
            if spent + step.cost_towers <= budget_towers:
                links.add(step.link)
                spent += step.cost_towers
        topology = Topology(design=design, mw_links=frozenset(links))
    return HeuristicResult(
        topology=topology,
        objective=topology.mean_stretch(),
        greedy_steps=tuple(steps),
        used_ilp_refinement=bool(ilp_refinement and steps),
        runtime_s=time.perf_counter() - start,
    )
