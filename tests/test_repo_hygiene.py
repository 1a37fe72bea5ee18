"""The checkout tracks no artifact-store pickles and no ledger workdirs.

A ledger run keeps its template stores in ``work-<pid>/`` directories
beside its record; a killed run can leave them behind, and a
``git add -A`` then commits megabytes of pickles.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path, PurePosixPath

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True
    )


def tracked_paths() -> list[str]:
    """Every path ``git ls-files`` lists; skips outside a checkout."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("the tree is not a git checkout")
    listed = _git("ls-files", "-z")
    assert listed.returncode == 0, listed.stderr
    return [path for path in listed.stdout.split("\0") if path]


def test_no_pickles_or_workdirs_are_tracked():
    leaks = [
        path
        for path in tracked_paths()
        if path.endswith(".pkl")
        or any(part.startswith("work-") for part in PurePosixPath(path).parts[:-1])
    ]
    assert not leaks, f"tracked build or run leftovers: {leaks[:5]}"
