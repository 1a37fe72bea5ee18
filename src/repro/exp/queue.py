"""Durable, crash-consistent work queue for resumable sweeps.

A :class:`WorkQueue` journals every sweep point as a task record —
status (``pending`` / ``running`` / ``done`` / ``failed``), attempt
count, owner, last error — in a directory next to the artifact store:

.. code-block:: text

    <journal_dir>/
        meta.json       # sweep fingerprint + task count (atomic write)
        journal.jsonl   # append-only event log (one JSON object/line)
        hb/worker-<pid>.json  # worker heartbeats (atomic replace)
        failures.json   # quarantine report of retry-exhausted points

State mutation is append-only: each transition is one JSON line,
stamped with its wall-clock time ``t``, and every *completion*
transition (done / failed / requeued) is flushed, so a process killed
at any instruction leaves a journal whose replay is consistent — at
worst the tail is a buffered ``start`` or a torn line, both of which
replay as "point still pending" and the point re-runs.
The ``done`` event carries the point's completion summary (stage
status, attempts, owner) in the same line, so a ``done`` that survived
the crash always implies a readable summary, and checkpointing a
finished point costs exactly one write + flush.  The rows themselves
live in the content-addressed artifact store, not the journal.
``meta.json`` is written via temp-file + ``os.replace`` (atomic).

On resume, tasks left ``running`` by a crash are normalized back to
``pending`` (their interrupted attempt stays counted), and ``done``
tasks whose summary payload is missing or unreadable are demoted to
``pending`` — the journal never claims work it cannot account for.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)


def _encode_event(event: dict) -> bytes:
    """Serialize one journal event to a compact JSON line (no newline).

    The journal is replayed with ``json.loads``.  Tuples (sweep axis
    values ride inside result payloads) encode as JSON arrays, matching
    what ``json.loads`` hands back on replay.
    """
    return json.dumps(event, separators=(",", ":")).encode("utf-8")

#: Task lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATUSES = (PENDING, RUNNING, DONE, FAILED)

#: Journal event tags (one per state transition).
EV_START = "start"
EV_DONE = "done"
EV_FAIL = "fail"
EV_REQUEUE = "requeue"

#: ``meta.json`` schema version.
JOURNAL_VERSION = 1


@dataclass
class TaskRecord:
    """One sweep point's durable execution state."""

    index: int
    status: str = PENDING
    attempts: int = 0
    owner: str | None = None
    error: str | None = None
    interrupted: bool = False


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class WorkQueue:
    """The persistent task journal backing one sweep.

    Args:
        journal_dir: directory holding this sweep's journal (one sweep
            fingerprint per directory).
        fingerprint: content hash of (base spec, axes); a resume against
            a journal recorded for a different sweep is rejected.
        n_tasks: number of sweep points; must match on resume.
        resume: load the existing journal instead of starting fresh.
            ``resume=True`` with no journal on disk starts fresh (so
            ``--resume`` is safe to pass unconditionally);
            ``resume=False`` over an existing journal discards it —
            artifacts stay cached in the store, so a restart recomputes
            cheaply.
    """

    def __init__(
        self,
        journal_dir: Path | str,
        fingerprint: str,
        n_tasks: int,
        resume: bool = False,
    ) -> None:
        if n_tasks < 1:
            raise ValueError("a sweep journal needs at least one task")
        self.journal_dir = Path(journal_dir)
        self.fingerprint = fingerprint
        self.n_tasks = n_tasks
        self.meta_path = self.journal_dir / "meta.json"
        self.journal_path = self.journal_dir / "journal.jsonl"
        self.heartbeat_dir = self.journal_dir / "hb"
        self.failure_report_path = self.journal_dir / "failures.json"

        self.tasks: dict[int, TaskRecord] = {
            i: TaskRecord(index=i) for i in range(n_tasks)
        }
        self._results: dict[int, dict] = {}
        existing = self.meta_path.exists()
        if resume and existing:
            self._load_meta()
            self._replay()
            self._normalize_after_load()
        else:
            if existing:
                self._discard_existing()
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            self.heartbeat_dir.mkdir(exist_ok=True)
            _atomic_write_text(
                self.meta_path,
                json.dumps(
                    {
                        "version": JOURNAL_VERSION,
                        "fingerprint": fingerprint,
                        "n_tasks": n_tasks,
                        "created_at": time.time(),
                    },
                    sort_keys=True,
                    indent=2,
                )
                + "\n",
            )
        self.heartbeat_dir.mkdir(exist_ok=True)
        # Raw O_APPEND fd: one syscall per flushed transition, with
        # unflushed lines staged in ``_pending`` (see ``_append``).
        self._journal_fd: int | None = os.open(
            str(self.journal_path),
            os.O_WRONLY | os.O_APPEND | os.O_CREAT,
            0o644,
        )
        self._pending = bytearray()

    # -- loading ----------------------------------------------------------

    def _discard_existing(self) -> None:
        """Drop a previous sweep's journal files (fresh, non-resume open)."""
        for path in (
            self.meta_path,
            self.journal_path,
            self.failure_report_path,
        ):
            try:
                path.unlink()
            except OSError:
                pass
        if self.heartbeat_dir.is_dir():
            for beat in self.heartbeat_dir.glob("worker-*.json*"):
                try:
                    beat.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        else:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    def _load_meta(self) -> None:
        meta = json.loads(self.meta_path.read_text())
        if meta.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"journal at {self.journal_dir} records a different sweep "
                f"(fingerprint {meta.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); refusing to resume"
            )
        if meta.get("n_tasks") != self.n_tasks:
            raise ValueError(
                f"journal at {self.journal_dir} records {meta.get('n_tasks')} "
                f"tasks, this sweep has {self.n_tasks}; refusing to resume"
            )

    def _replay(self) -> None:
        for event in self._read_jsonl(self.journal_path):
            self._apply(event)

    def _read_jsonl(self, path: Path) -> list[dict]:
        try:
            raw = path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return []
        docs: list[dict] = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except ValueError:
                # A torn tail from a killed process; later lines cannot
                # exist (appends are ordered), so skipping is safe.
                logger.warning("skipping torn journal line in %s", path)
        return docs

    def _apply(self, event: dict) -> None:
        index = event.get("i")
        if not isinstance(index, int) or index not in self.tasks:
            return
        rec = self.tasks[index]
        kind = event.get("e")
        if kind == EV_START:
            rec.status = RUNNING
            rec.attempts += 1
            rec.owner = event.get("o")
        elif kind == EV_DONE:
            rec.status = DONE
            rec.owner = event.get("o", rec.owner)
            rec.error = None
            if event.get("r") is not None:
                self._results[index] = event["r"]
        elif kind == EV_FAIL:
            rec.status = FAILED
            rec.error = event.get("err")
        elif kind == EV_REQUEUE:
            rec.status = PENDING
            rec.owner = None
            rec.error = event.get("err", rec.error)

    def _normalize_after_load(self) -> None:
        for rec in self.tasks.values():
            if rec.status == RUNNING:
                # The owning process died mid-point; the started attempt
                # stays counted and the point re-runs.
                rec.status = PENDING
                rec.interrupted = True
                rec.owner = None
            elif rec.status == DONE and self.load_result(rec.index) is None:
                logger.warning(
                    "journal task %d is done but its result payload is "
                    "missing/unreadable; re-running the point",
                    rec.index,
                )
                rec.status = PENDING
                rec.interrupted = True

    # -- transitions ------------------------------------------------------

    def _append(self, event: dict, flush: bool = True) -> None:
        line = _encode_event(event) + b"\n"
        if not flush:
            self._pending += line
            return
        if self._pending:
            line = bytes(self._pending) + line
            self._pending.clear()
        os.write(self._journal_fd, line)

    def mark_running(self, index: int, owner: str | None = None) -> None:
        rec = self.tasks[index]
        rec.status = RUNNING
        rec.attempts += 1
        rec.owner = owner
        # Buffered, not flushed: appends to one handle stay ordered, so
        # any later flushed completion event carries this line out with
        # it.  A crash before that flush loses at most the start record
        # — replay then sees the point pending and simply re-runs it.
        self._append(
            {"e": EV_START, "i": index, "t": time.time(), "o": owner},
            flush=False,
        )

    def mark_done(
        self,
        index: int,
        owner: str | None = None,
        result: dict | None = None,
    ) -> None:
        """Complete a task, durably checkpointing its result summary.

        The payload rides in the ``done`` journal line itself, so the
        event and its summary are atomic: a crash either preserves both
        or (torn tail) neither, and the point simply re-runs.
        """
        rec = self.tasks[index]
        rec.status = DONE
        rec.owner = owner or rec.owner
        rec.error = None
        if result is not None:
            self._results[index] = result
        self._append(
            {
                "e": EV_DONE,
                "i": index,
                "t": time.time(),
                "o": rec.owner,
                "r": result,
            }
        )

    def mark_failed(self, index: int, error: str) -> None:
        """Terminal failure: the point is quarantined, not retried."""
        rec = self.tasks[index]
        rec.status = FAILED
        rec.error = error
        self._append(
            {"e": EV_FAIL, "i": index, "t": time.time(), "err": error}
        )

    def mark_requeued(self, index: int, error: str | None = None) -> None:
        """A retryable failure or interruption: back to pending."""
        rec = self.tasks[index]
        rec.status = PENDING
        rec.owner = None
        if error is not None:
            rec.error = error
        self._append(
            {"e": EV_REQUEUE, "i": index, "t": time.time(), "err": error}
        )

    # -- queries ----------------------------------------------------------

    def record(self, index: int) -> TaskRecord:
        return self.tasks[index]

    def indices_with_status(self, status: str) -> list[int]:
        return [i for i in range(self.n_tasks) if self.tasks[i].status == status]

    def pending_indices(self) -> list[int]:
        return self.indices_with_status(PENDING)

    def done_indices(self) -> list[int]:
        return self.indices_with_status(DONE)

    def counts(self) -> dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for rec in self.tasks.values():
            out[rec.status] += 1
        return out

    # -- result payloads --------------------------------------------------

    def load_result(self, index: int) -> dict | None:
        """The ``done`` payload for a task (None if never completed)."""
        return self._results.get(index)

    # -- reporting --------------------------------------------------------

    def write_failure_report(self, failures: list[dict]) -> Path:
        """Persist the quarantine report.

        An empty report is only written when a stale one is on disk
        (e.g. a resumed sweep whose failures all retried to success) —
        a clean sweep does not pay for an all-zeros file.
        """
        if not failures and not self.failure_report_path.exists():
            return self.failure_report_path
        _atomic_write_text(
            self.failure_report_path,
            json.dumps(
                {
                    "generated_at": time.time(),
                    "fingerprint": self.fingerprint,
                    "counts": self.counts(),
                    "failures": failures,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n",
        )
        return self.failure_report_path

    def close(self) -> None:
        if self._journal_fd is None:
            return
        try:
            if self._pending:
                os.write(self._journal_fd, bytes(self._pending))
                self._pending.clear()
            os.close(self._journal_fd)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        finally:
            self._journal_fd = None
