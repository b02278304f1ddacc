"""Tests for the ``repro.checks`` invariant linter.

Each rule gets at least one deliberately-violating fixture and one clean
fixture under ``tests/fixtures/checks/`` (a directory the engine never
descends into on its own — fixtures would fail the real gate by design).
The suite closes with the gate itself: the linter must exit clean over
the actual ``src``, ``tests`` and ``benchmarks`` trees.
"""

from __future__ import annotations

import json
import os

from repro.checks import registered_checkers, render_report, run_paths
from repro.checks.cli import main
from repro.checks.framework import (RULE_BAD_SUPPRESSION, RULE_PARSE_ERROR,
                                    iter_python_files)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "checks")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def rules_hit(paths):
    violations, _ = run_paths(paths if isinstance(paths, list) else [paths])
    return violations, {v.rule for v in violations}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_at_least_five_rules_registered():
    names = set(registered_checkers())
    assert {"determinism", "clock-discipline", "lock-discipline",
            "api-surface", "bench-hygiene"} <= names


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_determinism_flags_every_hidden_rng():
    violations, rules = rules_hit(fixture("determinism_flagged.py"))
    assert rules == {"determinism"}
    messages = " ".join(v.message for v in violations)
    assert "random.random" in messages
    assert "random.Random()" in messages
    assert "numpy.random.rand" in messages
    assert "without a seed" in messages
    assert len(violations) == 5


def test_determinism_clean_fixture_passes():
    _, rules = rules_hit(fixture("determinism_clean.py"))
    assert rules == set()


def test_determinism_seam_discipline_inside_shipped_tree():
    violations, rules = rules_hit([fixture("det_tree")])
    # A private seeded generator in shipped code is flagged — a keyed
    # tile stream built in the connectors module too; the seam module
    # itself is exempt.
    assert rules == {"determinism"}
    assert sorted(os.path.basename(v.path) for v in violations) == [
        "connectors.py", "engine.py"]
    assert all("route through" in v.message for v in violations)


# ---------------------------------------------------------------------------
# clock-discipline
# ---------------------------------------------------------------------------
def test_clocks_flags_ambient_reads():
    violations, rules = rules_hit(fixture("clocks_flagged.py"))
    assert rules == {"clock-discipline"}
    messages = " ".join(v.message for v in violations)
    assert "time.time" in messages
    assert "time.monotonic" in messages
    assert "datetime.now" in messages
    assert "utcnow" in messages
    assert len(violations) == 4


def test_clocks_clean_fixture_passes():
    _, rules = rules_hit(fixture("clocks_clean.py"))
    assert rules == set()


def test_clocks_seam_and_benchmarks_are_exempt():
    _, rules = rules_hit([fixture("clock_tree")])
    assert rules == set()


def test_clocks_restricts_perf_counter_to_the_profile_seam():
    violations, rules = rules_hit([fixture("clock_perf_tree")])
    # Shipped code times itself through repro.profile; the seam module
    # itself is the one sanctioned perf_counter site.
    assert rules == {"clock-discipline"}
    assert all(v.path.endswith("engine.py") for v in violations)
    assert len(violations) == 2
    assert "repro.profile.perf_now" in violations[0].message


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------
def test_locks_flags_unguarded_access_and_blocking_calls():
    violations, rules = rules_hit(fixture("locks_flagged.py"))
    assert rules == {"lock-discipline"}
    guarded = [v for v in violations if "guarded-by" in v.message]
    blocking = [v for v in violations if "blocking call" in v.message]
    assert len(guarded) == 2          # bump() and read()
    assert len(blocking) == 2         # time.sleep and sock.sendall
    assert any("time.sleep" in v.message for v in blocking)


def test_locks_clean_fixture_passes():
    _, rules = rules_hit(fixture("locks_clean.py"))
    assert rules == set()


def test_locks_flags_guard_naming_a_nonexistent_lock():
    violations, rules = rules_hit(fixture("locks_typo.py"))
    assert rules == {"lock-discipline"}
    assert len(violations) == 1
    assert "never assigns" in violations[0].message


# ---------------------------------------------------------------------------
# api-surface
# ---------------------------------------------------------------------------
def test_api_surface_clean_tree_passes():
    _, rules = rules_hit([fixture("api_clean")])
    assert rules == set()


def test_api_surface_flags_every_kind_of_drift():
    violations, rules = rules_hit([fixture("api_flagged")])
    assert rules == {"api-surface"}
    messages = " ".join(v.message for v in violations)
    assert "must be (method, path, request, response, label)" in messages
    assert "'ghost'" in messages and "no matching" in messages
    assert "outside the declared API version" in messages
    assert "CODE_ORPHANED" in messages
    assert "missing from the README" in messages


# ---------------------------------------------------------------------------
# bench-hygiene
# ---------------------------------------------------------------------------
def test_bench_hygiene_clean_tree_passes():
    _, rules = rules_hit([fixture("bench_clean")])
    assert rules == set()


def test_bench_hygiene_flags_silent_and_mislabelled_benches():
    violations, rules = rules_hit([fixture("bench_flagged")])
    assert rules == {"bench-hygiene"}
    by_path = {os.path.basename(v.path): v.message for v in violations}
    assert "emits no machine-readable results" in by_path["bench_x2_demo.py"]
    assert "disagrees with the filename" in by_path["bench_x3_demo.py"]
    assert "records no related metric key" in by_path["bench_x4_demo.py"]
    assert "'fast_speedup'" in by_path["bench_x4_demo.py"]
    assert "emits no profile_* metric key" in by_path["bench_x6_profiled.py"]
    gate_messages = [v.message for v in violations
                     if v.path.endswith("check_regression.py")]
    assert any("no baseline" in m for m in gate_messages)          # x9
    assert any("no such key" in m for m in gate_messages)          # x8


def test_bench_hygiene_profiling_bench_with_attach_profile_passes():
    violations, _ = rules_hit([fixture("bench_clean")])
    assert not any(v.path.endswith("bench_x5_profiled.py")
                   for v in violations)


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
def test_suppression_with_reason_silences_the_line():
    _, rules = rules_hit(fixture("suppress_with_reason.py"))
    assert rules == set()


def test_file_level_suppression_silences_the_whole_file():
    _, rules = rules_hit(fixture("suppress_file_level.py"))
    assert rules == set()


def test_suppression_without_reason_is_a_violation():
    violations, rules = rules_hit(fixture("suppress_without_reason.py"))
    # The reasonless suppression is rejected AND the underlying clock
    # violation stays live.
    assert rules == {RULE_BAD_SUPPRESSION, "clock-discipline"}
    bad = [v for v in violations if v.rule == RULE_BAD_SUPPRESSION]
    assert "without a reason" in bad[0].message


def test_suppression_of_unknown_rule_is_a_violation():
    violations, rules = rules_hit(fixture("suppress_unknown_rule.py"))
    assert rules == {RULE_BAD_SUPPRESSION}
    assert "unknown rule" in violations[0].message


def test_syntax_errors_are_reported_not_crashed_on():
    violations, rules = rules_hit(fixture("parse_error.py"))
    assert rules == {RULE_PARSE_ERROR}
    assert "syntax error" in violations[0].message


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------
def test_fixture_directories_are_skipped_in_directory_walks():
    found = iter_python_files([os.path.join(REPO_ROOT, "tests")])
    assert not any("fixtures" in path.replace(os.sep, "/").split("/")
                   for path in found)
    assert any(path.endswith("test_checks.py") for path in found)


def test_report_counts_every_rule_including_zeroes():
    violations, n_files = run_paths([fixture("clocks_flagged.py")])
    report = render_report(violations, n_files)
    assert report["violation_total"] == 4
    assert report["counts_by_rule"]["clock-discipline"] == 4
    # Zero-filled entries for every registered rule + the meta rules.
    for name in registered_checkers():
        assert name in report["counts_by_rule"]
    assert report["counts_by_rule"]["determinism"] == 0
    assert report["counts_by_rule"][RULE_BAD_SUPPRESSION] == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_exits_nonzero_on_violations(capsys):
    assert main([fixture("clocks_flagged.py")]) == 1
    out = capsys.readouterr().out
    assert "[clock-discipline]" in out
    assert "violation(s)" in out


def test_cli_exits_zero_on_clean_input(capsys):
    assert main([fixture("clocks_clean.py")]) == 0
    assert "checks: OK" in capsys.readouterr().out


def test_cli_json_format(capsys):
    assert main(["--format", "json", fixture("clocks_flagged.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro.checks"
    assert payload["violation_total"] == 4


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("determinism", "clock-discipline", "lock-discipline",
                 "api-surface", "bench-hygiene"):
        assert name in out


def test_cli_report_writes_the_artifact(tmp_path, capsys):
    target = tmp_path / "CHECKS_report.json"
    assert main(["report", "--json", str(target),
                 fixture("clocks_clean.py")]) == 0
    payload = json.loads(target.read_text())
    assert payload["violation_total"] == 0
    assert "report written" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The gate itself
# ---------------------------------------------------------------------------
def test_whole_tree_is_clean():
    """The blocking CI invariant: src, tests and benchmarks lint clean."""
    paths = [os.path.join(REPO_ROOT, name)
             for name in ("src", "tests", "benchmarks")]
    violations, n_files = run_paths(paths)
    assert n_files > 100
    pretty = "\n".join("%s:%d [%s] %s" % (v.path, v.line, v.rule, v.message)
                       for v in violations)
    assert not violations, "\n" + pretty
