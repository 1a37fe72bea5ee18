"""Golden paper records: the headline results at CI scale.

``tests/golden/paper_records.json`` pins, as canonical JSON, the
records of three runs through the orchestration layer:

* ``us``: one experiment on the 20-site US scenario — design with 800
  towers provisioned for 100 Gbps (Fig 3 stretch and cost), the
  120-interval weather year with the graded model (Fig 7), the §6.6
  fast-path plan and the §8 value-per-GB table;
* ``budget_sweep``: the Fig 4a budget curve, the evolution backend
  swept over five budgets by ``SweepService``;
* ``europe_weather``: the weather year on the Europe scenario (1,500
  towers), which rains European storms on European hops.

Any change that moves a single bit of these numbers fails here.

Regenerate (only for an intended numeric change) with::

    PYTHONPATH=src python tests/test_golden_paper.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.exp import ExperimentSpec, NullStore, SweepService, run_experiment
from repro.exp.spec import canonical_json

GOLDEN = Path(__file__).parent / "golden" / "paper_records.json"

NO_ILP = {"ilp_refinement": False}

US_SPEC = {
    "scenario": {"name": "us", "sites": 20},
    "design": {
        "budget_towers": 800, "aggregate_gbps": 100, "solver_opts": NO_ILP,
    },
    "weather": {"n_intervals": 120, "graded": True},
    "apps": {},
    "econ": {},
}

BUDGET_SWEEP_SPEC = {
    "scenario": {"name": "us", "sites": 20},
    "design": {"solver": "evolution"},
}
BUDGET_AXES = {"design.budget_towers": [0, 200, 400, 600, 800]}

EUROPE_SPEC = {
    "scenario": {"name": "europe"},
    "design": {"budget_towers": 1500, "solver_opts": NO_ILP},
    "weather": {"n_intervals": 120},
}


def golden_records() -> dict:
    store = NullStore()
    with tempfile.TemporaryDirectory() as journal:
        sweep = SweepService(
            ExperimentSpec.from_dict(BUDGET_SWEEP_SPEC),
            BUDGET_AXES,
            store=store,
            jobs=1,
            journal_dir=journal,
        ).run()
    assert not sweep.failures
    return {
        "us": run_experiment(ExperimentSpec.from_dict(US_SPEC), store).records,
        "budget_sweep": sweep.records,
        "europe_weather": run_experiment(
            ExperimentSpec.from_dict(EUROPE_SPEC), store
        ).records,
    }


@pytest.fixture(scope="module")
def records():
    return golden_records()


def test_records_match_golden_file_exactly(records):
    assert canonical_json(records) + "\n" == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    text = canonical_json(golden_records()) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
