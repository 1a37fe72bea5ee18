"""Deterministic, seed-pinned fault injection for sweep chaos testing.

A :class:`FaultPlan` is a declarative list of faults keyed by
``(point index, attempt number)`` — no wall-clock randomness, so a
chaos run is exactly reproducible: the same plan against the same sweep
kills the same workers at the same points every time.

Actions:

* ``kill``    — the worker process exits immediately via ``os._exit``
  (models an OOM kill / SIGKILL; in an inline ``jobs=1`` run this kills
  the *parent*, which is the crash-resume scenario).
* ``fail``    — raise :class:`FaultInjected` (a deterministic point
  failure, exercising retry and quarantine paths).
* ``delay``   — sleep ``seconds`` before the point executes (models a
  stalled stage; with a long delay it trips the service watchdog).
* ``corrupt`` — after the point completes, overwrite its cached
  ``stage`` artifact with garbage bytes (models a torn artifact write;
  exercises the store's quarantine-on-read path).

Plans round-trip through JSON (``to_dict`` / ``from_dict``) so the
service can ship them to pool workers, and ``repro run --fault-plan
plan.json`` injects them from the CLI for end-to-end chaos tests.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Iterable

from .spec import (
    _NON_NEGATIVE,
    ExperimentSpec,
    _check_choice,
    _check_int,
    _check_real,
)
from .stages import STAGES, stage_key
from .store import ArtifactStore, NullStore

logger = logging.getLogger(__name__)

#: Fault actions.
KILL = "kill"
FAIL = "fail"
DELAY = "delay"
CORRUPT = "corrupt"
ACTIONS = (KILL, FAIL, DELAY, CORRUPT)

#: Exit status used by ``kill`` faults (the conventional SIGKILL code).
KILL_EXIT_CODE = 137


class FaultInjected(RuntimeError):
    """The error raised by a ``fail`` fault (and by nothing else)."""


@dataclass(frozen=True)
class Fault:
    """One injected fault, firing when ``point`` runs its ``attempt``-th try.

    Attributes:
        point: sweep-order point index the fault targets.
        action: one of ``kill`` / ``fail`` / ``delay`` / ``corrupt``.
        attempt: 1-based attempt number the fault fires on (so a fault
            at ``attempt=1`` lets the retry succeed deterministically).
        seconds: sleep length for ``delay``.
        stage: which cached stage artifact ``corrupt`` targets.

    Plans arrive from JSON files, so each field is checked when the
    fault is built, not when it fires: a bad one raises a
    ``ValueError`` that names it.
    """

    point: int
    action: str
    attempt: int = 1
    seconds: float = 0.0
    stage: str = "netsim"

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(choose from {', '.join(ACTIONS)})"
            )
        _check_int("fault point", self.point, 0)
        _check_int("fault attempt (1-based)", self.attempt, 1)
        _check_real("fault seconds", self.seconds, *_NON_NEGATIVE)
        _check_choice("fault stage", self.stage, tuple(STAGES))

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "action": self.action,
            "attempt": self.attempt,
            "seconds": self.seconds,
            "stage": self.stage,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        known = {"point", "action", "attempt", "seconds", "stage"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults for one sweep."""

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def check_sweep(self, n_points: int, stages: tuple[str, ...]) -> None:
        """Reject a fault that could never fire on a sweep of ``n_points``
        points running ``stages``: one at a point outside the sweep, or a
        ``corrupt`` fault naming a stage the sweep does not run."""
        for fault in self.faults:
            if fault.point >= n_points:
                raise ValueError(
                    f"fault plan: point {fault.point} is not in this "
                    f"{n_points}-point sweep"
                )
            if fault.action == CORRUPT and fault.stage not in stages:
                raise ValueError(
                    f"fault plan: corrupt fault at point {fault.point} names "
                    f"stage {fault.stage!r}, which this sweep does not run "
                    f"(runs: {', '.join(stages)})"
                )

    def for_point(self, point: int, attempt: int) -> list[Fault]:
        return [
            f for f in self.faults if f.point == point and f.attempt == attempt
        ]

    def fire_before(self, point: int, attempt: int) -> None:
        """Inject pre-execution faults (kill / fail / delay)."""
        for fault in self.for_point(point, attempt):
            if fault.action == DELAY:
                time.sleep(fault.seconds)
            elif fault.action == KILL:
                # Bypass every finally/atexit, exactly like SIGKILL.
                os._exit(KILL_EXIT_CODE)
            elif fault.action == FAIL:
                raise FaultInjected(
                    f"injected failure at point {point} attempt {attempt}"
                )

    def fire_after(
        self,
        point: int,
        attempt: int,
        spec: ExperimentSpec,
        store: ArtifactStore,
    ) -> None:
        """Inject post-execution faults (corrupt the point's artifacts)."""
        for fault in self.for_point(point, attempt):
            if fault.action != CORRUPT:
                continue
            if isinstance(store, NullStore):
                continue  # nothing on disk to corrupt
            try:
                corrupt_artifact(store, stage_key(spec, fault.stage))
            except FileNotFoundError:
                logger.warning(
                    "corrupt fault at point %d: no %r artifact on disk",
                    point,
                    fault.stage,
                )

    def to_dict(self) -> dict:
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        unknown = set(data) - {"faults"}
        if unknown:
            raise ValueError(
                f"unknown fault plan field(s): {', '.join(sorted(unknown))}"
            )
        raw = data.get("faults", [])
        if not isinstance(raw, Iterable) or isinstance(raw, (str, bytes)):
            raise ValueError("'faults' must be a list of fault objects")
        return cls(faults=tuple(Fault.from_dict(dict(f)) for f in raw))

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def corrupt_artifact(
    store: ArtifactStore, key: str, mode: str = "garbage"
) -> None:
    """Deterministically damage one on-disk store entry.

    ``garbage`` overwrites the pickle with non-pickle bytes; ``truncate``
    keeps only the first third (a torn write).  Either way the next
    :meth:`~repro.exp.store.ArtifactStore.get` must treat the entry as a
    miss and quarantine the file.
    """
    path = store.path_for(key)
    if not path.exists():
        raise FileNotFoundError(f"no artifact on disk for key {key}")
    if mode == "garbage":
        path.write_bytes(b"\x00repro-fault-injected-garbage\x00")
    elif mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 3)])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
