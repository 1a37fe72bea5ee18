"""Golden CLI transcripts: what ``repro sweep`` and ``repro run`` print.

``tests/golden/cli_transcripts.json`` pins the stdout and exit code of
a fixed set of invocations over the 6-site sweep spec the sweep-service
tests use: with a fresh artifact store, with ``--no-cache`` inline and
with two workers, ``--json`` output, a bare (axis-free) spec, and a
sweep whose second point fails.  Each invocation runs in-process
through :func:`repro.cli.main`.  ``design`` is left out because it
prints the solver's wall time.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main

from test_sweep_service import SPEC_DOC

GOLDEN = Path(__file__).parent / "golden" / "cli_transcripts.json"

SWEEP = [
    "sweep", "--sites", "6", "--max-budget", "300", "--points", "3",
    "--solver", "heuristic",
]

#: Spec files written next to the stores; ``run`` reads them.
SPEC_FILES = {
    "spec.json": SPEC_DOC,
    "single.json": SPEC_DOC["spec"],
    "failing.json": {
        "spec": SPEC_DOC["spec"],
        "axes": {"design.aggregate_gbps": [20, None]},
    },
}

#: name -> argv; ``{dir}`` is the spec-file directory and ``{store}`` a
#: fresh artifact-store directory for that invocation alone.
INVOCATIONS = {
    "sweep --cache-dir": [*SWEEP, "--cache-dir", "{store}"],
    "sweep --no-cache": [*SWEEP, "--no-cache"],
    "sweep --no-cache --jobs 2": [*SWEEP, "--no-cache", "--jobs", "2"],
    "run --cache-dir": ["run", "{dir}/spec.json", "--cache-dir", "{store}"],
    "run --json --no-cache": ["run", "{dir}/spec.json", "--json", "--no-cache"],
    "run --no-cache --jobs 2": [
        "run", "{dir}/spec.json", "--no-cache", "--jobs", "2",
    ],
    "run single --cache-dir": [
        "run", "{dir}/single.json", "--cache-dir", "{store}",
    ],
    "run failing point --cache-dir --retries 1": [
        "run", "{dir}/failing.json", "--cache-dir", "{store}",
        "--retries", "1",
    ],
}


def transcripts(workdir: Path) -> dict:
    """name -> {argv, exit, stdout lines} for every invocation."""
    for name, doc in SPEC_FILES.items():
        (workdir / name).write_text(json.dumps(doc))
    out = {}
    for i, (name, argv) in enumerate(INVOCATIONS.items()):
        args = [
            a.format(dir=workdir, store=workdir / f"store-{i}") for a in argv
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args)
        out[name] = {
            "argv": argv,
            "exit": code,
            "stdout": stdout.getvalue().split("\n"),
        }
    return out


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_transcripts_match_golden_file_exactly(tmp_path):
    assert render(transcripts(tmp_path)) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        text = render(transcripts(Path(workdir)))
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
