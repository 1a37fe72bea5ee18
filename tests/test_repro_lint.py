"""Tests for the static-analysis layer (``repro.analysis``).

Covers the five rules on synthetic snippets (positive and negative
cases), suppression-comment parsing, the call-graph fingerprints, the
stage-version lockfile round trip, the ``repro lint`` CLI, and the
tier-1 gate that the shipped tree is lint-clean.
"""

from __future__ import annotations

import ast
import json
import textwrap

import pytest

from repro.analysis import (
    LintConfig,
    RuleScope,
    lint_source,
    run_lint,
)
from repro.analysis.callgraph import ProjectIndex, normalized_dump
from repro.analysis.engine import parse_suppressions
from repro.analysis.rules import get_rule, rule_names
from repro.analysis.versions import (
    LOCK_NAME,
    UPDATE_COMMAND,
    LockEntry,
    compare_lock,
    default_lock_path,
    default_package_root,
    read_lock,
    update_lock,
    write_lock,
)
from repro.cli import main


def findings_for(source: str, rule: str) -> list:
    return lint_source(textwrap.dedent(source), rules=[rule]).findings


def lines_for(source: str, rule: str) -> list[int]:
    return [f.line for f in findings_for(source, rule)]


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_all_five_rules_registered(self):
        names = set(rule_names())
        assert {
            "unseeded-rng",
            "wall-clock-in-cached-code",
            "stage-version-drift",
            "dense-fw-ban",
            "nondeterministic-iteration",
        } <= names

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            get_rule("no-such-rule")

    def test_rules_carry_descriptions(self):
        for name in rule_names():
            assert get_rule(name).description


# ---------------------------------------------------------------------------
# unseeded-rng


class TestUnseededRng:
    def test_default_rng_without_seed_flagged(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng()
        """
        assert lines_for(src, "unseeded-rng") == [2]

    def test_default_rng_with_seed_clean(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(1234)
        """
        assert lines_for(src, "unseeded-rng") == []

    def test_explicit_none_seed_flagged(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(None)
        """
        assert lines_for(src, "unseeded-rng") == [2]

    def test_aliased_import_resolved(self):
        src = """\
        from numpy.random import default_rng as make_rng
        rng = make_rng()
        """
        assert lines_for(src, "unseeded-rng") == [2]

    def test_module_level_numpy_draw_flagged(self):
        src = """\
        import numpy as np
        x = np.random.uniform(0.0, 1.0)
        """
        assert lines_for(src, "unseeded-rng") == [2]

    def test_global_random_module_flagged(self):
        src = """\
        import random
        x = random.random()
        """
        assert lines_for(src, "unseeded-rng") == [2]

    def test_seeded_random_instance_clean(self):
        src = """\
        import random
        rng = random.Random(7)
        x = rng.random()
        """
        assert lines_for(src, "unseeded-rng") == []

    def test_generator_method_calls_clean(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 1.0)
        """
        assert lines_for(src, "unseeded-rng") == []


# ---------------------------------------------------------------------------
# wall-clock-in-cached-code


class TestWallClock:
    def test_time_time_flagged(self):
        src = """\
        import time
        stamp = time.time()
        """
        assert lines_for(src, "wall-clock-in-cached-code") == [2]

    def test_datetime_now_flagged(self):
        src = """\
        import datetime
        now = datetime.datetime.now()
        """
        assert lines_for(src, "wall-clock-in-cached-code") == [2]

    def test_from_import_alias_flagged(self):
        src = """\
        from time import time as wall
        stamp = wall()
        """
        assert lines_for(src, "wall-clock-in-cached-code") == [2]

    def test_perf_counter_clean(self):
        src = """\
        import time
        t0 = time.perf_counter()
        t1 = time.monotonic()
        """
        assert lines_for(src, "wall-clock-in-cached-code") == []

    def test_scope_excludes_service_and_queue(self, tmp_path):
        body = "import time\nstamp = time.time()\n"
        for rel in (
            "src/repro/exp/service.py",
            "src/repro/exp/queue.py",
            "src/repro/exp/stages.py",
        ):
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(body)
        result = run_lint(
            [tmp_path / "src"],
            rules=["wall-clock-in-cached-code"],
            config=LintConfig(repo_root=tmp_path),
        )
        assert [f.path for f in result.findings] == ["src/repro/exp/stages.py"]


# ---------------------------------------------------------------------------
# nondeterministic-iteration


class TestNondeterministicIteration:
    def test_set_iteration_with_accumulation_flagged(self):
        src = """\
        def collect(items):
            out = []
            for name in set(items):
                out.append(name)
            return out
        """
        assert lines_for(src, "nondeterministic-iteration") == [3]

    def test_sorted_set_iteration_clean(self):
        src = """\
        def collect(items):
            out = []
            for name in sorted(set(items)):
                out.append(name)
            return out
        """
        assert lines_for(src, "nondeterministic-iteration") == []

    def test_set_iteration_without_accumulation_clean(self):
        src = """\
        def total(items):
            acc = 0.0
            for value in set(items):
                acc += value
            return acc
        """
        assert lines_for(src, "nondeterministic-iteration") == []

    def test_listdir_iteration_flagged(self):
        src = """\
        import os
        def scan(root):
            rows = []
            for name in os.listdir(root):
                rows.append(name)
            return rows
        """
        assert lines_for(src, "nondeterministic-iteration") == [4]

    def test_sorted_listdir_clean(self):
        src = """\
        import os
        def scan(root):
            rows = []
            for name in sorted(os.listdir(root)):
                rows.append(name)
            return rows
        """
        assert lines_for(src, "nondeterministic-iteration") == []

    def test_set_comprehension_source_flagged(self):
        src = """\
        def keys(mapping):
            bucket = {1, 2, 3}
            return [k for k in bucket]
        """
        assert lines_for(src, "nondeterministic-iteration") == [3]

    def test_local_set_variable_tracked_in_for(self):
        src = """\
        def collect(items):
            seen = set(items)
            out = []
            for name in seen:
                out.append(name)
            return out
        """
        assert lines_for(src, "nondeterministic-iteration") == [4]


# ---------------------------------------------------------------------------
# dense-fw-ban (core behaviour lives in tests/test_graph_kernel.py; this
# checks the scope wiring the gate relies on)


class TestDenseFwBanScope:
    def test_graph_package_is_exempt(self, tmp_path):
        body = "from scipy.sparse.csgraph import " "floyd_warshall\n"
        inside = tmp_path / "src/repro/graph/kernel.py"
        outside = tmp_path / "src/repro/design/opt.py"
        for target in (inside, outside):
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(body)
        result = run_lint(
            [tmp_path / "src"],
            rules=["dense-fw-ban"],
            config=LintConfig(repo_root=tmp_path),
        )
        assert [f.path for f in result.findings] == ["src/repro/design/opt.py"]


# ---------------------------------------------------------------------------
# Suppressions


class TestSuppressions:
    def test_same_line_suppression(self):
        src = """\
        import time
        t = time.time()  # repro: allow[wall-clock-in-cached-code] -- test fixture
        """
        result = lint_source(
            textwrap.dedent(src), rules=["wall-clock-in-cached-code"]
        )
        assert result.findings == []
        assert [f.suppress_reason for f in result.suppressed] == ["test fixture"]

    def test_standalone_line_above_suppression(self):
        src = """\
        import time
        # repro: allow[wall-clock-in-cached-code] -- test fixture
        t = time.time()
        """
        result = lint_source(
            textwrap.dedent(src), rules=["wall-clock-in-cached-code"]
        )
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_trailing_comment_above_does_not_leak_down(self):
        src = """\
        import time
        x = 1  # repro: allow[wall-clock-in-cached-code] -- wrong line
        t = time.time()
        """
        result = lint_source(
            textwrap.dedent(src), rules=["wall-clock-in-cached-code"]
        )
        assert [f.line for f in result.findings] == [3]

    def test_suppression_is_rule_specific(self):
        src = """\
        import time
        t = time.time()  # repro: allow[unseeded-rng] -- names the wrong rule
        """
        result = lint_source(
            textwrap.dedent(src), rules=["wall-clock-in-cached-code"]
        )
        assert [f.rule for f in result.findings] == ["wall-clock-in-cached-code"]

    def test_multiple_ids_in_one_suppression(self):
        src = """\
        import time, random
        # repro: allow[wall-clock-in-cached-code, unseeded-rng] -- test fixture
        t = time.time() + random.random()
        """
        result = lint_source(
            textwrap.dedent(src),
            rules=["wall-clock-in-cached-code", "unseeded-rng"],
        )
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_missing_reason_is_reported(self):
        src = """\
        import time
        t = time.time()  # repro: allow[wall-clock-in-cached-code]
        """
        result = lint_source(
            textwrap.dedent(src), rules=["wall-clock-in-cached-code"]
        )
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["bad-suppression", "wall-clock-in-cached-code"]

    def test_unknown_rule_id_is_reported(self):
        src = """\
        x = 1  # repro: allow[no-such-rule] -- typo
        """
        result = lint_source(textwrap.dedent(src), rules=["unseeded-rng"])
        assert [f.rule for f in result.findings] == ["bad-suppression"]
        assert "no-such-rule" in result.findings[0].message

    def test_suppression_inside_string_literal_ignored(self):
        src = """\
        import time
        doc = "# repro: allow[wall-clock-in-cached-code] -- not a comment"
        t = time.time()
        """
        result = lint_source(
            textwrap.dedent(src), rules=["wall-clock-in-cached-code"]
        )
        assert [f.line for f in result.findings] == [3]

    def test_parse_suppressions_known_set(self):
        src = "x = 1  # repro: allow[dense-fw-ban] -- justified\n"
        sups, bad = parse_suppressions(src, "f.py", set(rule_names()))
        assert bad == []
        assert sups[1].rules == ("dense-fw-ban",)
        assert sups[1].standalone is False


# ---------------------------------------------------------------------------
# Scope matching


class TestRuleScope:
    def test_include_glob_crosses_directories(self):
        scope = RuleScope(include=("src/repro/*",))
        assert scope.matches("src/repro/exp/stages.py")
        assert not scope.matches("tests/test_cli.py")

    def test_exclude_wins(self):
        scope = RuleScope(include=("*",), exclude=("src/repro/graph/*",))
        assert scope.matches("src/repro/design/opt.py")
        assert not scope.matches("src/repro/graph/kernel.py")


# ---------------------------------------------------------------------------
# Call-graph fingerprints


@pytest.fixture
def toy_package(tmp_path):
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text(
        textwrap.dedent(
            """\
            from .util import helper

            def payload(x):
                \"\"\"Docstring.\"\"\"
                return helper(x) + 1
            """
        )
    )
    (pkg / "util.py").write_text(
        textwrap.dedent(
            """\
            def helper(x):
                return x * 2
            """
        )
    )
    (pkg / "kernel.py").write_text(
        textwrap.dedent(
            """\
            def fast_path(x):
                return x - 1
            """
        )
    )
    return pkg


def toy_fingerprint(pkg, boundaries=None):
    index = ProjectIndex(pkg, package="toy")
    return index.fingerprint([("toy.core", "payload")], boundaries or {})


class TestCallGraph:
    def test_closure_follows_imported_callee(self, toy_package):
        index = ProjectIndex(toy_package, package="toy")
        defs, markers = index.closure([("toy.core", "payload")], {})
        assert ("toy.util", "helper") in defs
        assert markers == set()

    def test_callee_change_moves_fingerprint(self, toy_package):
        before = toy_fingerprint(toy_package)
        (toy_package / "util.py").write_text(
            "def helper(x):\n    return x * 3\n"
        )
        assert toy_fingerprint(toy_package) != before

    def test_comment_and_docstring_edits_do_not(self, toy_package):
        before = toy_fingerprint(toy_package)
        (toy_package / "core.py").write_text(
            textwrap.dedent(
                """\
                from .util import helper


                def payload(x):
                    \"\"\"A totally rewritten docstring.\"\"\"
                    # a new comment
                    return helper(x) + 1
                """
            )
        )
        assert toy_fingerprint(toy_package) == before

    def test_boundary_package_becomes_opaque_marker(self, toy_package):
        (toy_package / "core.py").write_text(
            textwrap.dedent(
                """\
                from .kernel import fast_path

                def payload(x):
                    return fast_path(x)
                """
            )
        )
        boundaries = {"toy.kernel": "graph:kernel"}
        before = toy_fingerprint(toy_package, boundaries)
        index = ProjectIndex(toy_package, package="toy")
        _, markers = index.closure([("toy.core", "payload")], boundaries)
        assert markers == {"graph:kernel"}
        (toy_package / "kernel.py").write_text(
            "def fast_path(x):\n    return x + 100\n"
        )
        assert toy_fingerprint(toy_package, boundaries) == before

    def test_lazy_function_local_import_followed(self, toy_package):
        (toy_package / "core.py").write_text(
            textwrap.dedent(
                """\
                def payload(x):
                    from .util import helper
                    return helper(x)
                """
            )
        )
        before = toy_fingerprint(toy_package)
        (toy_package / "util.py").write_text(
            "def helper(x):\n    return x * 9\n"
        )
        assert toy_fingerprint(toy_package) != before

    def test_normalized_dump_skips_empty_fields(self):
        dump = normalized_dump(ast.parse("def f(x):\n    return x\n"))
        assert "type_comment" not in dump
        assert "type_params" not in dump
        assert "decorator_list" not in dump


# ---------------------------------------------------------------------------
# Lockfile


def serve_entries(monkeypatch, entries) -> list:
    """Make ``update_lock``'s ``compute_entries`` return ``entries``;
    returns the list that records each call's ``index`` argument."""
    calls = []

    def fake_compute_entries(index=None):
        calls.append(index)
        return entries

    monkeypatch.setattr("repro.analysis.versions.compute_entries", fake_compute_entries)
    return calls


class TestLockfile:
    def test_expected_components_present(self, current_entries):
        names = set(current_entries)
        assert "graph:kernel" in names
        assert {n for n in names if n.startswith("stage:")} >= {
            "stage:substrate",
            "stage:design",
            "stage:netsim",
        }
        assert any(n.startswith("solver:") for n in names)

    def test_round_trip(self, tmp_path, current_entries):
        lock = tmp_path / LOCK_NAME
        write_lock(lock, current_entries)
        assert read_lock(lock) == current_entries
        assert compare_lock(current_entries, read_lock(lock), str(lock)) == []

    def test_missing_lock_reported(self, current_entries):
        findings = compare_lock(current_entries, None, LOCK_NAME)
        assert len(findings) == 1
        assert UPDATE_COMMAND in findings[0].message

    def test_drift_without_bump_demands_bump(self, current_entries):
        stale = dict(current_entries)
        name = sorted(stale)[0]
        stale[name] = LockEntry(
            version=stale[name].version, fingerprint="0" * 64
        )
        findings = compare_lock(current_entries, stale, LOCK_NAME)
        assert len(findings) == 1
        assert "version tag is still" in findings[0].message
        assert UPDATE_COMMAND in findings[0].message

    def test_bumped_version_with_stale_lock_demands_regen(
        self, current_entries
    ):
        stale = dict(current_entries)
        name = sorted(stale)[0]
        stale[name] = LockEntry(version="ancient", fingerprint="0" * 64)
        findings = compare_lock(current_entries, stale, LOCK_NAME)
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_new_and_removed_components_reported(self, current_entries):
        locked = dict(current_entries)
        removed = sorted(locked)[0]
        del locked[removed]
        locked["stage:ghost"] = LockEntry(version="1", fingerprint="f" * 64)
        messages = [
            f.message for f in compare_lock(current_entries, locked, LOCK_NAME)
        ]
        assert any(removed in m and "not in" in m for m in messages)
        assert any("stage:ghost" in m and "no longer" in m for m in messages)

    def test_update_lock_round_trip(self, tmp_path, monkeypatch, current_entries):
        calls = serve_entries(monkeypatch, current_entries)
        lock = tmp_path / LOCK_NAME
        path, entries = update_lock(lock)
        assert calls == [None]
        assert path == lock
        assert read_lock(lock) == entries == current_entries

    def test_committed_lock_is_current(self, current_entries):
        locked = read_lock(default_lock_path())
        assert locked is not None, (
            f"{LOCK_NAME} missing; run: {UPDATE_COMMAND}"
        )
        findings = compare_lock(current_entries, locked, LOCK_NAME)
        assert findings == [], "\n".join(f.message for f in findings)


# ---------------------------------------------------------------------------
# CLI


def serve_lint_result(monkeypatch, result) -> list:
    """Make the CLI's ``run_lint`` return ``result``; returns the list
    that records each call's ``(paths, rules)``."""
    calls = []

    def fake_run_lint(paths, rules=None, config=None):
        calls.append((list(paths), rules))
        return result

    monkeypatch.setattr("repro.analysis.run_lint", fake_run_lint)
    return calls


class TestCli:
    def test_lint_clean_tree_exits_zero(
        self, capsys, monkeypatch, tree_lint, lint_tree_paths
    ):
        calls = serve_lint_result(monkeypatch, tree_lint)
        assert main(["lint"]) == 0
        assert calls == [([str(p) for p in lint_tree_paths], None)]
        out = capsys.readouterr().out
        assert "clean" in out

    def test_json_format(self, capsys, monkeypatch, tree_lint, lint_tree_paths):
        calls = serve_lint_result(monkeypatch, tree_lint)
        assert main(["lint", "--format", "json"]) == 0
        assert calls == [([str(p) for p in lint_tree_paths], None)]
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["summary"]["rules"]
        assert payload["summary"]["files_checked"] > 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in rule_names():
            assert name in out

    def test_unknown_rule_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "--rules", "no-such-rule"])

    def test_offending_path_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "offender.py"
        bad.write_text(
            "from scipy.sparse.csgraph import " "floyd_warshall\n"
        )
        code = main(["lint", str(bad), "--rules", "dense-fw-ban"])
        out = capsys.readouterr().out
        assert code == 1
        assert "dense-fw-ban" in out

    def test_update_lock_writes_current_entries(
        self, tmp_path, capsys, monkeypatch, current_entries
    ):
        calls = serve_entries(monkeypatch, current_entries)
        lock = tmp_path / LOCK_NAME
        assert main(["lint", "--update-lock", "--lock", str(lock)]) == 0
        assert calls == [None]
        assert read_lock(lock) == current_entries


# ---------------------------------------------------------------------------
# Tier-1 gate: the shipped tree lints clean


class TestTreeIsLintClean:
    def test_src_tests_benchmarks_lint_clean(self, tree_lint):
        assert tree_lint.rules_run and len(tree_lint.rules_run) >= 5
        assert tree_lint.findings == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in tree_lint.findings
        )

    def test_known_suppressions_carry_reasons(self, tree_lint):
        assert tree_lint.suppressed
        for finding in tree_lint.suppressed:
            assert finding.suppress_reason
