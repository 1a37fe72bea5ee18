"""Shared helpers for the benchmark harness.

Every figure benchmark regenerates one table or figure of the paper and
writes its rows/series to ``benchmarks/results/<experiment>.txt`` (and
stdout).  No pytest configuration maps the ``bench_*`` files, so run
them from ``benchmarks/`` with the patterns given explicitly::

    PYTHONPATH=../src python -m pytest -o python_files='bench_fig*.py
      bench_sec*.py bench_ablation_greedy.py bench_evolution_acquisition.py
      bench_failure_reroute.py' -o python_functions='bench_*'

(one shell line; the ``-o python_files`` value is one quoted string).
The CI gates (``bench_hop_enumeration.py``, ``bench_flow_table.py``,
``bench_storm_track.py``, ``bench_sweep_runner.py``,
``bench_sweep_service.py``) are plain scripts: ``python bench_X.py``.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent


def report(experiment: str, lines: list[str]) -> None:
    """Persist an experiment's output table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{experiment}.txt").write_text(text)
    print(f"\n=== {experiment} ===")
    print(text)


def write_bench_json(experiment: str, payload: dict) -> Path:
    """Append one run record to ``BENCH_<experiment>.json`` at the repo root.

    The file accumulates a machine-readable perf trajectory across PRs:
    ``{"experiment": ..., "runs": [run, ...]}`` with a UTC date stamped
    onto each run.  Corrupt or pre-existing non-JSON content is
    replaced rather than crashing the benchmark.
    """
    path = REPO_ROOT / f"BENCH_{experiment}.json"
    doc: dict = {"experiment": experiment, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                doc = loaded
        except ValueError:
            pass
    run = {"date": time.strftime("%Y-%m-%d", time.gmtime()), **payload}
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


@lru_cache(maxsize=1)
def full_us_scenario():
    """The 120-city US scenario (cached across benchmarks)."""
    from repro.scenarios import us_scenario

    return us_scenario()


@lru_cache(maxsize=1)
def full_us_design_input():
    return full_us_scenario().design_input()


@lru_cache(maxsize=4)
def us_greedy_steps(max_budget: float = 9000.0, max_range_km: float = 100.0):
    """One greedy run whose prefixes give every budget point (Fig 4a)."""
    from repro.core import greedy_sequence
    from repro.scenarios import us_scenario

    if max_range_km == 100.0:
        design = full_us_design_input()
    else:
        design = us_scenario(max_range_km=max_range_km).design_input()
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
