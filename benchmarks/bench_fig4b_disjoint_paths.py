"""E5 — Fig 4(b): tower-disjoint shortest paths on the longest link.

The paper picks the ~2,700 km Illinois-California link of Fig 3,
repeatedly removes all towers of the shortest MW path, and shows the
stretch of the k-th disjoint path climbing only gently (1.02 to ~1.15
over 20 iterations) — far below the fiber route's 1.75.
"""

import numpy as np

from repro.links import tower_disjoint_paths
from repro.scenarios import get_scenario

from _support import report


def _illinois_california_pair(scenario):
    """The paper's 2,700 km Illinois-California link: Chicago <-> Los
    Angeles in our site list (falls back to the longest MW pair)."""
    names = [s.name for s in scenario.sites]
    try:
        return names.index("Chicago"), names.index("Los Angeles")
    except ValueError:
        pass
    best, best_d = None, 0.0
    for (a, b), _link in scenario.catalog.links.items():
        d = scenario.geodesic_km[a, b]
        if d > best_d:
            best, best_d = (a, b), d
    return best


def bench_fig4b_disjoint_paths():
    scenario = get_scenario("us")
    a, b = _illinois_california_pair(scenario)
    a, b = min(a, b), max(a, b)
    site_a, site_b = scenario.sites[a], scenario.sites[b]
    fiber_stretch = scenario.fiber_km[a, b] / scenario.geodesic_km[a, b]

    paths = tower_disjoint_paths(
        site_a, site_b, scenario.registry, scenario.hop_graph, max_iterations=20
    )
    rows = [
        f"link: {site_a.name} <-> {site_b.name}, "
        f"{scenario.geodesic_km[a, b]:.0f} km geodesic",
        f"fiber stretch: {fiber_stretch:.3f} (paper: 1.75)",
        "iteration  stretch",
    ]
    for p in paths:
        rows.append(f"{p.iteration:9d}  {p.stretch:.4f}")
    if paths:
        rows.append(
            f"shape: stretch grows {paths[0].stretch:.3f} -> "
            f"{paths[-1].stretch:.3f} over {len(paths)} iterations, "
            f"all below fiber ({fiber_stretch:.2f})"
        )
        stretches = np.array([p.stretch for p in paths])
        assert np.all(np.diff(stretches) >= -1e-9)
    report("fig4b_disjoint_paths", rows)
