"""Probabilistic tower acquisition and path refinement (paper §6.5).

"In practice, to improve accuracy in preparation for building a MW
route, we assign each tower in a swathe connecting the sites an
acquisition probability, which depends on a number of factors (e.g.,
tower type, ownership, location).  Further, for towers that can be
acquired, we use a uniform distribution to model the height at which
space for antennae is available.  With this probabilistic model, we
compute thousands of candidate MW paths between site pairs, with
refinements as acquisitions and height availabilities are confirmed."

This module implements that engineering workflow: draw acquisition
outcomes, re-run the shortest-path link computation per draw, and
summarize the spread of achievable latency — then *refine* by pinning
confirmed towers and re-drawing the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..datasets.sites import Site
from .hops import HopGraph
from .registry import TowerRegistry


@dataclass(frozen=True)
class AcquisitionModel:
    """Per-tower acquisition probabilities and usable-height draws.

    Attributes:
        rental_acquire_prob: probability a rental-company tower can be
            leased (high: that is their business).
        fcc_acquire_prob: probability a registered broadcast tower has
            space and a willing owner.
        min_height_fraction / max_height_fraction: the uniform range
            from which the *available* mounting height is drawn on
            acquired towers.
    """

    rental_acquire_prob: float = 0.9
    fcc_acquire_prob: float = 0.55
    min_height_fraction: float = 0.4
    max_height_fraction: float = 1.0

    def __post_init__(self) -> None:
        for p in (self.rental_acquire_prob, self.fcc_acquire_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        if not 0.0 < self.min_height_fraction <= self.max_height_fraction <= 1.0:
            raise ValueError("height fractions must satisfy 0 < min <= max <= 1")


@dataclass(frozen=True)
class CandidatePath:
    """One sampled buildable path.

    Attributes:
        draw: sample index.
        mw_km: path length.
        stretch: path length over the site pair's geodesic.
        tower_path: tower ids used.
    """

    draw: int
    mw_km: float
    stretch: float
    tower_path: tuple[int, ...]


@dataclass(frozen=True)
class AcquisitionStudy:
    """Monte-Carlo summary for one site pair.

    Attributes:
        paths: one entry per draw that remained connected.
        n_draws: total draws attempted.
        feasible_fraction: fraction of draws with any path.
    """

    paths: tuple[CandidatePath, ...]
    n_draws: int

    @property
    def feasible_fraction(self) -> float:
        return len(self.paths) / self.n_draws if self.n_draws else 0.0

    def stretch_percentile(self, q: float) -> float:
        if not self.paths:
            raise ValueError("no feasible paths")
        return float(np.percentile([p.stretch for p in self.paths], q))


def sample_acquisitions(
    registry: TowerRegistry,
    model: AcquisitionModel,
    rng: np.random.Generator,
    confirmed: dict[int, bool] | None = None,
) -> np.ndarray:
    """One acquisition draw: a boolean availability mask over towers.

    ``confirmed`` pins known outcomes (tower id -> acquired or not),
    the refinement step of the paper's workflow.
    """
    confirmed = confirmed or {}
    n = len(registry)
    mask = np.zeros(n, dtype=bool)
    for t in registry:
        prob = (
            model.rental_acquire_prob
            if t.source in ("rental", "city")
            else model.fcc_acquire_prob
        )
        mask[t.tower_id] = rng.random() < prob
    for tower_id, acquired in confirmed.items():
        mask[tower_id] = acquired
    return mask


def acquisition_study(
    site_a: Site,
    site_b: Site,
    registry: TowerRegistry,
    hop_graph: HopGraph,
    model: AcquisitionModel | None = None,
    n_draws: int = 200,
    confirmed: dict[int, bool] | None = None,
    seed: int = 0,
) -> AcquisitionStudy:
    """Monte-Carlo candidate paths between two sites under acquisition
    uncertainty.

    Each draw removes unacquired towers and recomputes the shortest MW
    path.  The spread of resulting stretches is what route engineering
    quotes before confirming leases; re-running with ``confirmed``
    entries narrows it (refinement).
    """
    if n_draws <= 0:
        raise ValueError("need at least one draw")
    model = model or AcquisitionModel()
    geodesic = site_a.distance_km(site_b)
    if geodesic <= 0:
        raise ValueError("sites must be distinct")
    rng = np.random.default_rng(seed)

    n_towers = hop_graph.n_towers
    src, dst = n_towers, n_towers + 1
    n_nodes = n_towers + 2
    rows = list(hop_graph.edges_a) + list(hop_graph.edges_b)
    cols = list(hop_graph.edges_b) + list(hop_graph.edges_a)
    vals = list(hop_graph.lengths_km) * 2
    # Imported here: repro.links imports this package.
    from ..links.builder import _reconstruct_path, _site_attachment_edges

    s_rows, s_cols, s_vals = _site_attachment_edges([site_a, site_b], registry)
    rows += s_rows + s_cols
    cols += s_cols + s_rows
    vals += s_vals + s_vals
    rows = np.array(rows)
    cols = np.array(cols)
    vals = np.array(vals)

    paths: list[CandidatePath] = []
    for draw in range(n_draws):
        mask = sample_acquisitions(registry, model, rng, confirmed)
        # Keep edges whose tower endpoints (not site nodes) are acquired.
        ok_row = np.where(rows < n_towers, mask[np.clip(rows, 0, n_towers - 1)], True)
        ok_col = np.where(cols < n_towers, mask[np.clip(cols, 0, n_towers - 1)], True)
        keep = ok_row & ok_col
        graph = csr_matrix(
            (vals[keep], (rows[keep], cols[keep])), shape=(n_nodes, n_nodes)
        )
        dist, pred = dijkstra(
            graph, directed=False, indices=src, return_predecessors=True
        )
        if not np.isfinite(dist[dst]):
            continue
        node_path = _reconstruct_path(pred, dst)
        towers_used = tuple(v for v in node_path if v < n_towers)
        paths.append(
            CandidatePath(
                draw=draw,
                mw_km=float(dist[dst]),
                stretch=float(dist[dst] / geodesic),
                tower_path=towers_used,
            )
        )
    return AcquisitionStudy(paths=tuple(paths), n_draws=n_draws)


def refine_with_confirmations(
    study: AcquisitionStudy,
    site_a: Site,
    site_b: Site,
    registry: TowerRegistry,
    hop_graph: HopGraph,
    confirm_fraction: float = 0.3,
    model: AcquisitionModel | None = None,
    n_draws: int = 200,
    seed: int = 1,
) -> tuple[AcquisitionStudy, dict[int, bool]]:
    """One refinement round: confirm the most-used towers, re-sample.

    Confirms (as acquired) the towers that appear most often across the
    study's candidate paths — exactly the towers a build-out would lock
    in first — and returns the narrowed study plus the confirmations.
    """
    if not 0.0 < confirm_fraction <= 1.0:
        raise ValueError("confirm fraction must be in (0, 1]")
    if not study.paths:
        raise ValueError("cannot refine an infeasible study")
    counts: dict[int, int] = {}
    for path in study.paths:
        for t in path.tower_path:
            counts[t] = counts.get(t, 0) + 1
    ranked = sorted(counts, key=lambda t: -counts[t])
    n_confirm = max(1, int(len(ranked) * confirm_fraction))
    confirmed = {t: True for t in ranked[:n_confirm]}
    refined = acquisition_study(
        site_a,
        site_b,
        registry,
        hop_graph,
        model=model,
        n_draws=n_draws,
        confirmed=confirmed,
        seed=seed,
    )
    return refined, confirmed
