"""Golden CLI specs: what each experiment command hands the orchestration layer.

``tests/golden/cli_specs.json`` pins, for a fixed set of invocations,
the canonical form of what each command passes on: the spec (and the
stages) given to ``run_experiment``, or the spec, sweep axes and job
count given to ``SweepService``.  The invocations cover every
experiment flag on every command that takes it, each command's
defaults, and the ``europe``, ``interdc`` and ``city_dc`` scenarios.
Nothing runs: both entry points are replaced by stubs that record their
arguments, so the whole set takes well under a second.

Regenerate (only for an intended change to what a command runs) with::

    PYTHONPATH=src python tests/test_cli_specs.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.exp as exp
from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_specs.json"

#: Each runs with ``--no-cache`` appended.
INVOCATIONS = [
    "design",
    "design --scenario europe",
    "design --scenario interdc --budget 500 --gbps 40",
    "design --scenario city_dc --sites 8 --seed 3",
    "design --sites 12 --solver ilp",
    "design --solver heuristic --refine --budget 700",
    "design --solver evolution --gbps 50 --map",
    "sweep",
    "sweep --scenario europe --max-budget 2000 --points 5",
    "sweep --scenario city_dc --sites 10 --seed 9 --solver heuristic",
    "sweep --scenario interdc",
    "sweep --sites 40 --max-budget 3000 --jobs 4",
    "netsim",
    "netsim --scenario europe --budget 900 --gbps 80",
    "netsim --engine fluid --transport tcp --loads 0.2,0.4 --demand users "
    "--hour-utc 8 --demand-seed 2 --users-millions 5",
    "netsim --duration 0.1 --flow-seed 4 --sites 12 --seed 5",
    "netsim --scenario city_dc",
    "netsim --scenario interdc --engine fluid",
    "weather",
    "weather --scenario interdc --budget 600 --intervals 30 --graded",
    "weather --frequency-ghz 18 --interval-days 7 --sites 25 --seed 11",
    "weather --scenario europe",
    "weather --scenario city_dc --sites 12",
    "econ",
    "econ --cost-per-gb 0.5",
]


class Handed(Exception):
    """Carries what a command passed to the orchestration layer."""


def _run_experiment(spec, store=None, stages=None):
    raise Handed({"spec": spec.to_dict(), "stages": stages})


def _sweep_service(spec, axes, jobs, **kwargs):
    raise Handed({"spec": spec.to_dict(), "axes": axes, "jobs": jobs})


def handed() -> dict:
    """invocation -> what its command passed on, in JSON form."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exp, "run_experiment", _run_experiment)
        patch.setattr(exp, "SweepService", _sweep_service)
        for argv in INVOCATIONS:
            with pytest.raises(Handed) as info:
                main([*argv.split(), "--no-cache"])
            out[argv] = json.loads(json.dumps(info.value.args[0]))
    return out


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_specs_match_golden_file_exactly():
    assert render(handed()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    text = render(handed())
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
