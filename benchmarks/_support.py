"""Shared helpers for the benchmark harness.

Every figure benchmark regenerates one table or figure of the paper and
writes its rows/series to ``benchmarks/results/<experiment>.txt`` (and
stdout).  Each is a plain function without arguments.  No pytest
configuration maps the ``bench_*`` files, so run them from
``benchmarks/`` with the patterns given explicitly::

    PYTHONPATH=../src python -m pytest -o python_files='bench_fig*.py
      bench_sec*.py bench_ablation_greedy.py bench_evolution_acquisition.py
      bench_failure_reroute.py' -o python_functions='bench_*'

(one shell line; the ``-o python_files`` value is one quoted string).
The CI gates (``bench_hop_enumeration.py``, ``bench_flow_table.py``,
``bench_storm_track.py``) are plain scripts: ``python bench_X.py``.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def report(experiment: str, lines: list[str]) -> None:
    """Persist an experiment's output table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{experiment}.txt").write_text(text)
    print(f"\n=== {experiment} ===")
    print(text)


@lru_cache(maxsize=1)
def full_us_design_input():
    """The 120-city US design input (one object across benchmarks)."""
    from repro.scenarios import get_scenario

    return get_scenario("us").design_input()


@lru_cache(maxsize=4)
def us_greedy_steps(max_budget: float = 9000.0, max_range_km: float = 100.0):
    """One greedy run whose prefixes give every budget point (Fig 4a)."""
    from repro.core import greedy_sequence
    from repro.scenarios import get_scenario

    if max_range_km == 100.0:
        design = full_us_design_input()
    else:
        design = get_scenario("us", max_range_km=max_range_km).design_input()
    return greedy_sequence(design, max_budget)


@lru_cache(maxsize=2)
def us_topology_3000():
    """The paper's flagship design: 120 cities, 3,000 towers (Fig 3)."""
    from repro.core import solve_heuristic

    result = solve_heuristic(
        full_us_design_input(), 3000.0, ilp_refinement=False
    )
    return result.topology


def stretch_at_budget(steps, budget: float) -> float:
    """Mean stretch of the greedy prefix fitting ``budget``."""
    prefix = [s for s in steps if s.cumulative_cost <= budget]
    if not prefix:
        from repro.core import fiber_only_topology

        return fiber_only_topology(full_us_design_input()).mean_stretch()
    return prefix[-1].mean_stretch
