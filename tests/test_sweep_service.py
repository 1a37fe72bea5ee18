"""Tests for the fault-tolerant sweep service (``repro.exp`` PR-7).

Covers the acceptance contract: the durable work-queue journal survives
kills at any instruction (torn tails, running-state normalization),
crash resume produces a byte-identical records table while re-executing
only missing points, deterministically failing points retry their
budget then quarantine without aborting the sweep, the watchdog
recovers dead and stalled pool workers by respawning the pool, corrupt
store entries are quarantined as cache misses, and the CLI checkpoints
on SIGINT and emits the exact ``--resume`` command, rejects sweep flags
that would break the run, and journals ``--no-cache`` sweeps in a
temporary directory it removes.
"""

from __future__ import annotations

import json
import logging
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.exp import (
    ArtifactStore,
    DesignSpec,
    EconSpec,
    ExperimentSpec,
    Fault,
    FaultInjected,
    FaultPlan,
    KILL_EXIT_CODE,
    NetsimSpec,
    NullStore,
    RetryPolicy,
    ScenarioSpec,
    SweepService,
    WorkQueue,
    canonical_json,
    corrupt_artifact,
    expand_points,
    run_experiment,
    stage_key,
    sweep_fingerprint,
)
from repro.cli import main
from repro.exp import service as service_module
from repro.exp.runner import _axis_list

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def tiny_spec(**overrides) -> ExperimentSpec:
    """A 6-site US experiment cheap enough for per-test cold builds."""
    kwargs = dict(
        scenario=ScenarioSpec(name="us", sites=6, seed=42),
        design=DesignSpec(
            budget_towers=150.0,
            solver="heuristic",
            aggregate_gbps=20.0,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(loads=(0.3, 0.9), engine="fluid", seed=0),
        econ=EconSpec(),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


AXES = {
    "design.budget_towers": [100.0, 150.0],
    "netsim.loads": [(0.3,), (0.9,)],
}

#: RetryPolicy used throughout; ``fast_backoff`` keeps its retries quick.
FAST_RETRY = RetryPolicy(max_attempts=3)


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Retries back off 0.01 s instead of 0.25 s, so they don't slow tests."""
    monkeypatch.setattr(service_module, "BACKOFF_BASE_S", 0.01)


def reference_records(spec, axes, store) -> list[dict]:
    """The plain loop a sweep must reproduce: every point, in order."""
    rows = []
    for index, (assignment, point) in enumerate(
        expand_points(spec, _axis_list(axes))
    ):
        for row in run_experiment(point, store=store).records:
            rows.append({"point": index, **assignment, **row})
    return rows


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The reference table every service run must match, byte for byte."""
    store = ArtifactStore(tmp_path_factory.mktemp("baseline-store"))
    return reference_records(tiny_spec(), AXES, store)


# --------------------------------------------------------------------------
# WorkQueue journal.
# --------------------------------------------------------------------------


class TestWorkQueue:
    def test_lifecycle_and_counts(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 3)
        assert q.pending_indices() == [0, 1, 2]
        q.mark_running(0, owner="w1")
        q.mark_done(0, result={"records": [], "stage_status": {}})
        q.mark_running(1)
        q.mark_requeued(1, error="transient")
        q.mark_running(2)
        q.mark_failed(2, "boom")
        assert q.counts() == {"pending": 1, "running": 0, "done": 1,
                              "failed": 1}
        assert q.record(1).attempts == 1
        assert q.record(2).error == "boom"

    def test_replay_reconstructs_state(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 3)
        q.mark_running(0, owner="w1")
        q.mark_done(0, result={"records": [{"x": 1}], "stage_status": {}})
        q.mark_running(1)
        q.mark_requeued(1, error="transient")
        q.close()
        q2 = WorkQueue(tmp_path / "j", "fp", 3, resume=True)
        assert q2.done_indices() == [0]
        assert q2.record(0).status == "done"
        assert q2.record(1).status == "pending"
        assert q2.record(1).attempts == 1
        assert q2.load_result(0) == {"records": [{"x": 1}], "stage_status": {}}

    def test_running_tasks_normalize_to_pending_on_resume(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0, owner="died")
        q.close()  # process "crashed" mid-point
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        rec = q2.record(0)
        assert rec.status == "pending"
        assert rec.attempts == 1  # the interrupted attempt stays counted
        assert rec.interrupted

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.mark_done(0, result={"records": [], "stage_status": {}})
        q.close()
        with open(q.journal_path, "a") as fh:
            fh.write('{"e": "start", "i": 1, "t":')  # torn mid-write
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q2.record(0).status == "done"
        assert q2.record(1).status == "pending"

    def test_done_without_result_payload_demotes_to_pending(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.close()
        # Model a defective done event that carries no result payload
        # (e.g. written by a buggy or older producer).
        with open(q.journal_path, "a") as fh:
            fh.write('{"e": "done", "i": 0, "t": 0.0, "o": null}\n')
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q2.record(0).status == "pending"

    def test_torn_done_line_demotes_only_that_point(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.mark_done(0, result={"records": [{"x": 1}], "stage_status": {}})
        q.mark_running(1)
        q.mark_done(1, result={"records": [{"x": 2}], "stage_status": {}})
        q.close()
        # Tear the final done line (killed mid-append): point 1 loses
        # its completion and must re-run; point 0 is untouched.
        raw = q.journal_path.read_text().splitlines()
        torn = raw[-1][: len(raw[-1]) // 2]
        q.journal_path.write_text("\n".join(raw[:-1]) + "\n" + torn)
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q2.record(0).status == "done"
        assert q2.load_result(0) == {"records": [{"x": 1}], "stage_status": {}}
        assert q2.record(1).status == "pending"

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        WorkQueue(tmp_path / "j", "fp-a", 2).close()
        with pytest.raises(ValueError, match="different sweep"):
            WorkQueue(tmp_path / "j", "fp-b", 2, resume=True)
        with pytest.raises(ValueError, match="refusing to resume"):
            WorkQueue(tmp_path / "j", "fp-a", 3, resume=True)

    def test_fresh_open_discards_old_journal(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.mark_done(0, result={"records": [], "stage_status": {}})
        q.close()
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=False)
        assert q2.pending_indices() == [0, 1]
        assert q2.load_result(0) is None

    def test_resume_with_no_journal_starts_fresh(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q.pending_indices() == [0, 1]


# --------------------------------------------------------------------------
# Fault plans.
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_round_trip_and_selection(self):
        plan = FaultPlan(faults=(
            Fault(point=1, action="fail"),
            Fault(point=1, action="delay", attempt=2, seconds=0.5),
        ))
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert [f.action for f in again.for_point(1, 1)] == ["fail"]
        assert [f.action for f in again.for_point(1, 2)] == ["delay"]
        assert again.for_point(0, 1) == []

    def test_fail_fault_raises(self):
        plan = FaultPlan(faults=(Fault(point=0, action="fail"),))
        with pytest.raises(FaultInjected):
            plan.fire_before(0, 1)
        plan.fire_before(0, 2)  # attempt 2 is clean

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault(point=0, action="explode")
        with pytest.raises(ValueError, match="1-based"):
            Fault(point=0, action="kill", attempt=0)
        with pytest.raises(ValueError, match="unknown fault field"):
            Fault.from_dict({"point": 0, "action": "kill", "when": "now"})

    @pytest.mark.parametrize(
        "field, message",
        [
            # Accepted before, and never fired.
            ({"point": 1.5}, "fault point must be an integer >= 0, got 1.5"),
            (
                {"attempt": True},
                "fault attempt (1-based) must be an integer >= 1, got True",
            ),
            # Accepted before; time.sleep then raised inside the point.
            (
                {"seconds": float("nan")},
                "fault seconds must be a finite number >= 0, got nan",
            ),
            # Accepted before; stage_key then raised KeyError at fire time.
            (
                {"stage": "nonsense"},
                "fault stage must be one of substrate, design, netsim, "
                "weather, apps, econ, got 'nonsense'",
            ),
            # Raised TypeError: '<' not supported before.
            ({"point": "1"}, "fault point must be an integer >= 0, got '1'"),
            (
                {"seconds": "5"},
                "fault seconds must be a finite number >= 0, got '5'",
            ),
        ],
        ids=[
            "point-float", "attempt-bool", "seconds-nan", "stage-unknown",
            "point-str", "seconds-str",
        ],
    )
    def test_plan_fields_fail_by_name(self, field, message):
        doc = {"faults": [{"point": 0, "action": "delay", **field}]}
        with pytest.raises(ValueError) as info:
            FaultPlan.from_dict(doc)
        assert str(info.value) == message

    def test_corrupt_fault_on_a_stage_the_sweep_skips_fails_at_build(
        self, tmp_path
    ):
        # Checked before any work: at run time the fault can only fail a
        # point whose work succeeded.
        store = ArtifactStore(tmp_path / "s")
        axes = {"design.budget_towers": [100.0, 150.0]}

        def plan(stage):
            return FaultPlan(faults=(Fault(point=0, action="corrupt", stage=stage),))

        with pytest.raises(ValueError) as info:
            SweepService(tiny_spec(), axes, store=store, fault_plan=plan("weather"))
        assert str(info.value) == (
            "fault plan: corrupt fault at point 0 names stage 'weather', which "
            "this sweep does not run (runs: substrate, design, netsim, econ)"
        )
        assert not (tmp_path / "s" / "sweeps").exists()  # no journal either
        SweepService(tiny_spec(), axes, store=store, fault_plan=plan("design"))

    def test_fault_outside_the_sweep_fails_through_the_cli(self, cli_sweep_dir):
        # Otherwise the fault would silently never fire.
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [{"point": 4, "action": "fail"}]}
        ))
        with pytest.raises(SystemExit) as info:
            main(["run", str(cli_sweep_dir / "spec.json"),
                  "--cache-dir", str(cli_sweep_dir / "store"),
                  "--fault-plan", str(cli_sweep_dir / "plan.json")])
        assert str(info.value) == "fault plan: point 4 is not in this 4-point sweep"

    #: The rejection of a fault on attempt 5 of a 3-attempt sweep.
    PAST_BUDGET = (
        "fault plan: fail fault at point 0 fires on attempt 5, but this "
        "sweep tries each point at most 3 time(s)"
    )

    def test_fault_past_the_attempt_budget_fails_at_build(self, tmp_path):
        # A fresh sweep never reaches the attempt, so the fault would
        # silently never fire.
        store = ArtifactStore(tmp_path / "s")
        axes = {"design.budget_towers": [100.0, 150.0]}
        plan = FaultPlan(faults=(Fault(point=0, action="fail", attempt=5),))
        with pytest.raises(ValueError) as info:
            SweepService(tiny_spec(), axes, store=store,
                         retry=RetryPolicy(max_attempts=3), fault_plan=plan)
        assert str(info.value) == self.PAST_BUDGET
        assert not (tmp_path / "s" / "sweeps").exists()  # no journal either
        # The budget's last attempt can fire; so can any attempt of a
        # resumed sweep, whose requeued points carry their attempts.
        SweepService(tiny_spec(), axes, store=store,
                     retry=RetryPolicy(max_attempts=5), fault_plan=plan)
        SweepService(tiny_spec(), axes, store=store, resume=True,
                     retry=RetryPolicy(max_attempts=3), fault_plan=plan)

    def test_fault_past_the_attempt_budget_fails_through_the_cli(self, cli_sweep_dir):
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [{"point": 0, "action": "fail", "attempt": 5}]}
        ))
        with pytest.raises(SystemExit) as info:
            main(["run", str(cli_sweep_dir / "spec.json"),
                  "--cache-dir", str(cli_sweep_dir / "store"),
                  "--fault-plan", str(cli_sweep_dir / "plan.json"),
                  "--retries", "3"])
        assert str(info.value) == self.PAST_BUDGET
        assert not (cli_sweep_dir / "store" / "sweeps").exists()


# --------------------------------------------------------------------------
# Store corruption quarantine (satellite b).
# --------------------------------------------------------------------------


class TestStoreQuarantine:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path, caplog):
        store = ArtifactStore(tmp_path / "store")
        spec = tiny_spec()
        run_experiment(spec, store=store)
        key = stage_key(spec, "substrate")
        corrupt_artifact(store, key, mode="garbage")
        fresh = ArtifactStore(tmp_path / "store")  # no memory layer
        with caplog.at_level(logging.WARNING, logger="repro.exp.store"):
            found, _ = fresh.get(key)
        assert not found
        assert "quarantin" in caplog.text
        quarantined = store.path_for(key).with_name(
            store.path_for(key).name + ".corrupt"
        )
        assert quarantined.exists()
        assert not store.path_for(key).exists()
        # The recompute republishes into the now-empty slot.
        rerun = run_experiment(spec, store=fresh)
        assert rerun.stage_status["substrate"] == "computed"
        assert fresh.get(key)[0]

    def test_truncated_entry_is_also_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = tiny_spec()
        run_experiment(spec, store=store)
        key = stage_key(spec, "design")
        corrupt_artifact(store, key, mode="truncate")
        assert not ArtifactStore(tmp_path / "store").get(key)[0]


# --------------------------------------------------------------------------
# A failing point is named and quarantined; the other points survive.
# --------------------------------------------------------------------------

FAILING_AXES = {"design.aggregate_gbps": [20.0, None]}


class TestQuarantinedPoint:
    @staticmethod
    def _check(result, store):
        """Point 1 is quarantined with its cause; point 0's rows survive."""
        [failure] = result.failures
        assert failure.index == 1
        assert failure.assignment == {"design.aggregate_gbps": None}
        assert failure.error == (
            "ValueError: the netsim stage needs design.aggregate_gbps (link "
            "capacities derive from routing the design traffic)"
        )
        assert result.records == reference_records(
            tiny_spec(), {"design.aggregate_gbps": [20.0]}, store
        )

    def test_inline_failure_names_point_and_keeps_rows(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        result = SweepService(
            tiny_spec(), axes=FAILING_AXES, store=store, jobs=1,
            retry=FAST_RETRY,
        ).run()
        assert result.failures[0].attempts == FAST_RETRY.max_attempts
        self._check(result, store)

    def test_pool_failure_names_point(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        result = SweepService(
            tiny_spec(), axes=FAILING_AXES, store=store, jobs=2,
            retry=FAST_RETRY,
        ).run()
        self._check(result, store)


# --------------------------------------------------------------------------
# SweepService.
# --------------------------------------------------------------------------


class TestSweepService:
    def test_matches_sweep_runner_byte_for_byte(self, tmp_path, baseline):
        """Identical to the reference loop (what a plain runner did)."""
        service = SweepService(
            tiny_spec(), axes=AXES,
            store=ArtifactStore(tmp_path / "s"), jobs=1, retry=FAST_RETRY,
        )
        result = service.run()
        assert result.records_json() == canonical_json(baseline)
        assert result.executed_points == 4
        assert not result.interrupted
        assert not result.failures
        # A clean sweep writes no quarantine report.
        assert not service.queue.failure_report_path.exists()

    def test_nullstore_requires_journal_dir(self):
        with pytest.raises(ValueError, match="journal_dir"):
            SweepService(tiny_spec(), axes=AXES, store=NullStore())

    @pytest.mark.parametrize(
        "value", [0, -5.0, float("nan"), float("inf"), "5", True]
    )
    def test_point_timeout_must_be_finite_and_positive(self, tmp_path, value):
        with pytest.raises(ValueError) as info:
            SweepService(
                tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
                point_timeout_s=value,
            )
        assert str(info.value) == (
            f"point_timeout_s must be a finite number > 0, got {value!r}"
        )

    @pytest.mark.parametrize("value", [0, 2.5, True, "2", float("nan")])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, value):
        # 2.5 and True were accepted before; "2" raised TypeError.
        with pytest.raises(ValueError) as info:
            SweepService(
                tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
                jobs=value,
            )
        assert str(info.value) == f"jobs must be an integer >= 1, got {value!r}"

    @pytest.mark.parametrize("value", [0, float("nan"), 2.5, True, "3"])
    def test_max_attempts_must_be_a_positive_integer(self, value):
        # A NaN budget never quarantined, so a failing point retried
        # forever; 2.5 and True were accepted and "3" raised TypeError.
        with pytest.raises(ValueError) as info:
            RetryPolicy(max_attempts=value)
        assert str(info.value) == (
            f"max_attempts must be an integer >= 1, got {value!r}"
        )

    def test_transient_fault_retries_to_success(self, tmp_path, baseline):
        plan = FaultPlan(faults=(Fault(point=1, action="fail", attempt=1),))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=1, retry=FAST_RETRY, fault_plan=plan,
        )
        result = service.run()
        assert result.records_json() == canonical_json(baseline)
        assert service.queue.record(1).attempts == 2
        assert not result.failures

    def test_deterministic_failure_quarantines_without_aborting(
        self, tmp_path, baseline
    ):
        plan = FaultPlan(faults=tuple(
            Fault(point=2, action="fail", attempt=a) for a in (1, 2, 3)
        ))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=1, retry=FAST_RETRY, fault_plan=plan,
        )
        result = service.run()
        # Every other point completed; the table is the baseline minus
        # point 2's rows.
        expected = [r for r in baseline if r["point"] != 2]
        assert result.records == expected
        assert [f.index for f in result.failures] == [2]
        assert result.failures[0].attempts == 3
        assert "FaultInjected" in result.failures[0].error
        report = json.loads(service.queue.failure_report_path.read_text())
        assert report["counts"]["failed"] == 1
        assert report["failures"][0]["index"] == 2
        assert not result.interrupted

    def test_stop_then_resume_is_byte_identical(self, tmp_path, baseline):
        store = ArtifactStore(tmp_path / "s")
        service = SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY,
        )
        seen = []

        def stop_after_two(index, rows):
            seen.append(index)
            if len(seen) == 2:
                service.request_stop()

        first = service.run(on_point=stop_after_two)
        assert first.interrupted
        assert len(service.queue.done_indices()) == 2
        resumed = SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY,
            resume=True,
        )
        result = resumed.run()
        assert result.records_json() == canonical_json(baseline)
        assert not result.interrupted
        assert result.resumed_points == 2
        assert result.executed_points == 2
        # Shared expensive stages came from the first session's store:
        # nothing completed re-executes, and the resume computes exactly
        # the one design (budget 150) the interrupted run never reached.
        assert result.session_executed("substrate") == 0
        assert result.session_executed("design") == 1

    def test_corrupt_design_recomputes_once_byte_identical(
        self, tmp_path, baseline
    ):
        """A corrupted design artifact is a cache miss: a fresh sweep over
        the store recomputes that one design and nothing else."""
        root = tmp_path / "s"
        spec = tiny_spec()
        SweepService(spec, axes=AXES, store=ArtifactStore(root)).run()
        key = stage_key(spec.with_value("design.budget_towers", 100.0), "design")
        corrupt_artifact(ArtifactStore(root), key, mode="garbage")
        result = SweepService(spec, axes=AXES, store=ArtifactStore(root)).run()
        assert result.records_json() == canonical_json(baseline)
        assert result.executed("substrate") == 0
        assert result.executed("design") == 1
        quarantined = ArtifactStore(root).path_for(key).with_suffix(".pkl.corrupt")
        assert quarantined.exists()

    def test_resume_of_complete_sweep_executes_nothing(
        self, tmp_path, baseline
    ):
        store = ArtifactStore(tmp_path / "s")
        SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY
        ).run()
        again = SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY,
            resume=True,
        ).run()
        assert again.records_json() == canonical_json(baseline)
        assert again.executed_points == 0
        assert again.resumed_points == 4

    def test_fingerprint_distinguishes_sweeps(self):
        spec = tiny_spec()
        a = sweep_fingerprint(spec, _axis_list(AXES))
        b = sweep_fingerprint(
            spec, _axis_list({"design.budget_towers": [100.0, 200.0]})
        )
        assert a != b
        assert a == sweep_fingerprint(spec, _axis_list(AXES))

    def test_retry_policy_backoff_deterministic(self, monkeypatch):
        policy = RetryPolicy(max_attempts=4)
        # The constants as shipped (``fast_backoff`` undone): 0.25 s base
        # and 25 % jitter, seeded by the point and attempt alone.
        monkeypatch.undo()
        assert policy.delay_s(2, 5) == 0.25 * (
            1.0 + 0.25 * random.Random(5 * 1_009 + 2).random()
        )
        monkeypatch.setattr(service_module, "BACKOFF_BASE_S", 0.5)
        assert policy.delay_s(1, 0) == 0.0
        d2, d3 = policy.delay_s(2, 5), policy.delay_s(3, 5)
        assert 0.5 <= d2 <= 0.5 * 1.25
        assert 1.0 <= d3 <= 1.0 * 1.25
        assert policy.delay_s(2, 5) == d2  # same point, same jitter
        assert policy.delay_s(2, 6) != d2
        monkeypatch.setattr(service_module, "BACKOFF_CAP_S", 0.75)
        assert 0.75 <= policy.delay_s(4, 5) <= 0.75 * 1.25


class TestSweepServicePool:
    """Pool-mode chaos: dead workers and the watchdog."""

    def test_killed_worker_respawns_pool_and_completes(
        self, tmp_path, baseline, monkeypatch
    ):
        monkeypatch.setattr(service_module, "POLL_INTERVAL_S", 0.05)
        plan = FaultPlan(faults=(Fault(point=2, action="kill", attempt=1),))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=2, retry=FAST_RETRY, fault_plan=plan,
        )
        result = service.run()
        assert result.records_json() == canonical_json(baseline)
        assert result.pool_restarts >= 1
        assert not result.failures

    def test_watchdog_kills_stalled_point(self, tmp_path, baseline, monkeypatch):
        monkeypatch.setattr(service_module, "POLL_INTERVAL_S", 0.1)
        plan = FaultPlan(faults=(
            Fault(point=1, action="delay", attempt=1, seconds=60.0),
        ))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=2, retry=FAST_RETRY, fault_plan=plan, point_timeout_s=2.0,
        )
        start = time.monotonic()
        result = service.run()
        assert time.monotonic() - start < 40.0  # far less than the 60s stall
        assert result.records_json() == canonical_json(baseline)
        assert result.pool_restarts >= 1
        assert not result.failures


# --------------------------------------------------------------------------
# CLI: crash resume, SIGINT checkpoint, quarantine exit codes.
# --------------------------------------------------------------------------


SPEC_DOC = {
    "spec": {
        "scenario": {"name": "us", "sites": 6, "seed": 42},
        "design": {
            "budget_towers": 150.0,
            "solver": "heuristic",
            "aggregate_gbps": 20.0,
            "solver_opts": {"ilp_refinement": False},
        },
        "netsim": {"loads": [0.3, 0.9], "engine": "fluid", "seed": 0},
        "econ": {},
    },
    "axes": {
        "design.budget_towers": [100.0, 150.0],
        "netsim.loads": [[0.3], [0.9]],
    },
}


def _cli_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(args, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_cli_env(), cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture()
def cli_sweep_dir(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC_DOC))
    return tmp_path


def _point_done(store: Path, index: int) -> bool:
    """Whether any sweep journal under ``store`` holds ``index``'s done event."""
    for journal in store.glob("sweeps/*/journal.jsonl"):
        for line in journal.read_text().splitlines():
            try:
                event = json.loads(line)
            except ValueError:  # a line still being appended
                continue
            if event.get("e") == "done" and event.get("i") == index:
                return True
    return False


class TestCliFaultTolerance:
    def test_parent_crash_then_resume_byte_identical(self, cli_sweep_dir):
        # The uninterrupted reference run (separate store).
        clean = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "ref-store"],
            cli_sweep_dir,
        )
        assert clean.returncode == 0, clean.stderr
        # A kill fault in inline mode os._exit()s the parent process —
        # the SIGKILL-the-driver crash of the acceptance contract.
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [{"point": 2, "action": "kill", "attempt": 1}]}
        ))
        crashed = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--fault-plan", "plan.json"],
            cli_sweep_dir,
        )
        assert crashed.returncode == KILL_EXIT_CODE
        resumed = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--resume"],
            cli_sweep_dir,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout  # byte-identical records

    def test_sigint_checkpoints_and_prints_resume_command(
        self, cli_sweep_dir
    ):
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [
                {"point": 1, "action": "delay", "attempt": 1, "seconds": 3.0}
            ]}
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "spec.json", "--json",
             "--cache-dir", "store", "--fault-plan", "plan.json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_cli_env(), cwd=cli_sweep_dir,
        )
        # Interrupt once point 0 is journaled done, i.e. during point 1's
        # delay.
        deadline = time.monotonic() + 120.0
        while not _point_done(cli_sweep_dir / "store", 0):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "point 0 never finished"
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 130, err
        assert "point(s) done" in err
        assert "resume with: python -m repro run spec.json" in err
        assert "--resume" in err
        # And the printed command actually completes the sweep.
        clean = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "ref-store"],
            cli_sweep_dir,
        )
        resumed = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--fault-plan", "plan.json", "--resume"],
            cli_sweep_dir,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout

    def test_quarantined_sweep_exits_one_with_report(self, cli_sweep_dir):
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [
                {"point": 0, "action": "fail", "attempt": a}
                for a in (1, 2)
            ]}
        ))
        out = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--fault-plan", "plan.json", "--retries", "2"],
            cli_sweep_dir,
        )
        assert out.returncode == 1
        assert "quarantined" in out.stderr
        assert "point 0" in out.stderr
        rows = json.loads(out.stdout)
        assert rows and all(row["point"] != 0 for row in rows)

    def test_resume_without_journal_location_is_rejected(self, cli_sweep_dir):
        out = _run_cli(
            ["run", "spec.json", "--no-cache", "--resume"], cli_sweep_dir
        )
        assert out.returncode != 0
        assert "--journal-dir" in out.stderr


FAILING_DOC = {
    "spec": SPEC_DOC["spec"],
    "axes": {"design.aggregate_gbps": [20, None]},
}

SWEEP_ARGS = [
    "sweep", "--sites", "6", "--max-budget", "300", "--solver", "heuristic",
]


class TestCliSweepInput:
    """Sweep flags that would break the run fail before any work."""

    @pytest.mark.parametrize("points", ["1", "0", "-4"])
    def test_fewer_than_two_points_rejected(self, points):
        with pytest.raises(
            SystemExit, match=f"--points must be >= 2, got {points}$"
        ):
            main([*SWEEP_ARGS, "--no-cache", "--points", points])

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_point_timeout_must_be_finite_and_positive(self, tmp_path, value):
        with pytest.raises(SystemExit, match="--point-timeout must be"):
            main([*SWEEP_ARGS, "--points", "3", "--jobs", "2",
                  "--cache-dir", str(tmp_path / "store"),
                  "--point-timeout", value])

    def test_retries_zero_rejected_without_cache(self, cli_sweep_dir):
        with pytest.raises(SystemExit, match="--retries must be >= 1"):
            main(["run", str(cli_sweep_dir / "spec.json"), "--no-cache",
                  "--retries", "0"])


class TestCliScratchJournal:
    """``--no-cache`` sweeps journal into a directory removed on exit."""

    def test_failing_point_prints_other_rows_and_exits_one(
        self, cli_sweep_dir, capsys
    ):
        (cli_sweep_dir / "failing.json").write_text(json.dumps(FAILING_DOC))
        status = main(["run", str(cli_sweep_dir / "failing.json"), "--json",
                       "--no-cache", "--retries", "1"])
        out, err = capsys.readouterr()
        assert status == 1
        rows = json.loads(out)
        assert rows and all(row["point"] == 0 for row in rows)
        assert "1 point(s) quarantined after retries:" in err
        assert "point 1" in err
        # Nothing points into the deleted journal directory.
        assert "failures.json" not in err

    def test_no_scratch_journal_left_behind(self, cli_sweep_dir, monkeypatch):
        scratch = cli_sweep_dir / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        journals = []
        run = SweepService.run

        def recording_run(service, *args, **kwargs):
            journals.append(service.queue.journal_dir)
            return run(service, *args, **kwargs)

        monkeypatch.setattr(SweepService, "run", recording_run)
        spec = str(cli_sweep_dir / "spec.json")
        failing = cli_sweep_dir / "failing.json"
        failing.write_text(json.dumps(FAILING_DOC))
        assert main(["run", spec, "--no-cache"]) == 0
        assert main(["run", spec, "--no-cache", "--jobs", "2"]) == 0
        assert main(["run", str(failing), "--no-cache", "--jobs", "2",
                     "--retries", "1"]) == 1
        assert [path.parent for path in journals] == [scratch] * 3
        assert list(scratch.iterdir()) == []
