"""Tier-1 checks on the performance ledger's own machinery.

Run from the repository root with ``PYTHONPATH=src python -m pytest``;
pytest puts this directory on ``sys.path``, so the harness modules
import by name.  The smoke run uses 8-site workloads through the real
child-process path, so it costs a few seconds, not the full ledger.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import ledger
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]

# A 60 km hop range keeps the 8-site substrate to about a second.
SMOKE_BASE = {
    "scenario": {"name": "us", "sites": 8, "max_range_km": 60},
    "design": {"budget_towers": 300, "aggregate_gbps": 100,
               "solver_opts": {"ilp_refinement": False}},
}
SMOKE_COLD = wl.Workload(
    "smoke-cold", wl.COLD,
    {**SMOKE_BASE, "netsim": {"engine": "fluid", "loads": [0.3, 0.6]},
     "weather": {"n_intervals": 10}, "apps": {}, "econ": {}},
)
SMOKE_WARM = wl.Workload(
    "smoke-warm", wl.WARM,
    {**SMOKE_BASE, "weather": {"n_intervals": 10}},
    axes={"weather.fade_margin_db": [25, 30]},
)


def test_every_patch_target_resolves():
    assert spans.missing_targets() == []


def test_self_time_subtracts_direct_children_only():
    records = [
        [0, "outer", None, 0.0, 10.0, None],
        [1, "inner", 0, 1.0, 4.0, {"items": 3}],
        [2, "leaf", 1, 2.0, 3.0, None],
        [3, "inner", 0, 5.0, 6.0, {"items": 2}],
    ]
    summary = spans.summarize(records, {"counted": 7})
    assert summary["outer"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert summary["inner"] == {"s": 4.0, "self_s": 3.0, "calls": 2, "items": 5}
    assert summary["leaf"] == {"s": 1.0, "self_s": 1.0, "calls": 1}
    assert summary["counted"] == {"calls": 7}
    assert spans.count_under(records, "leaf", "outer") == 1
    assert spans.count_under(records, "inner", "leaf") == 0


def test_wrapped_calls_nest_and_keep_results():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: [x] * x, items=spans._rows)
    outer = tracer.wrap("outer", lambda n: [inner(k) for k in range(1, n + 1)])
    assert outer(3) == [[1], [2, 2], [3, 3, 3]]
    names = [rec[1] for rec in tracer.records]
    assert names == ["outer", "inner", "inner", "inner"]
    assert all(rec[2] == 0 for rec in tracer.records[1:])
    summary = spans.summarize(tracer.records)
    assert summary["inner"]["items"] == 6
    children = sum(rec[4] - rec[3] for rec in tracer.records[1:])
    assert summary["outer"]["self_s"] == pytest.approx(summary["outer"]["s"] - children)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One cold-then-warm ledger run of the 8-site workloads, repeats 1."""
    out = tmp_path_factory.mktemp("ledger")
    record = ledger.run_ledger([SMOKE_COLD, SMOKE_WARM], 1, 42, str(out / "rec.json"))
    return record, out


def test_warm_store_copy_holds_only_substrate_and_design(smoke, tmp_path):
    from repro.exp import ExperimentSpec, stage_key

    _, out = smoke
    session = ledger.Session(42, tmp_path / "work", tmp_path / "spans.jsonl", out / "fixtures")
    try:
        store = session.new_store(SMOKE_WARM)
        assert session.fixture_s == 0.0  # the smoke run's template was reused
        spec = ExperimentSpec.from_dict(SMOKE_WARM.spec_for(42))
        expected = {f"{stage_key(spec, s)}.pkl" for s in wl.BASE_STAGES}
        assert {p.name for p in store.rglob("*.pkl")} == expected
        assert not (store / "sweeps").exists()
    finally:
        session.close()


def test_smoke_run_emits_exactly_the_declared_metrics(smoke):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    record, out = smoke

    assert record["fixture_s"] > 0
    assert record["trace"]["missing"] == []
    assert (out / "rec.trace.jsonl").stat().st_size > 0
    assert not (out / f"work-{os.getpid()}").exists()
    for name in ("smoke-cold", "smoke-warm"):
        gates = record["gates"][name]
        assert gates["failed"] == 0, gates["failures"]
        assert gates["digests_agree"]
        assert {k: m["unit"] for k, m in record["metrics"][name].items()} == e2e
        assert {k: m["unit"] for k, m in record["layers"][name].items()} == layers
        assert all(m["median"] > 0 for m in record["metrics"][name].values())
    cold = record["layers"]["smoke-cold"]
    warm = record["layers"]["smoke-warm"]
    assert cold["exp.stage.substrate.calls"]["value"] == 1
    assert warm["exp.stage.substrate.calls"]["value"] == 0
    assert warm["exp.stage.weather.calls"]["value"] == 2
    assert warm["exp.store.get.hits"]["value"] > 0
