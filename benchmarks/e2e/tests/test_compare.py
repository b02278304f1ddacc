"""``compare`` verdicts on synthetic result files."""

from __future__ import annotations

import json

from benchmarks.e2e import compare
from benchmarks.e2e.metrics import CONTRACT

#: Just beyond each metric's bound, whatever ``BENCHMARK.json`` sets it to.
TURNAROUND_BOUND = CONTRACT["op_s_p50"]["bound"]
TURNAROUND_STEP = 10.0 * (TURNAROUND_BOUND + 0.05)
EVENTS_STEP = 1e6 * (CONTRACT["work_per_s"]["bound"] + 0.05)
TURNAROUND = "op_s_p50=job_turnaround_s"
EVENTS = "work_per_s=job_events_per_s"


def _entry(value, q1=None, q3=None, n=5, unit="s"):
    entry = {"value": value, "unit": unit, "n": n}
    if q1 is not None:
        entry.update(q1=q1, q3=q3)
    return entry


def _result(turnaround=10.0, spread=0.01, events=1e6, failed=0.0,
            spikes=1234.0, seed=11):
    low, high = turnaround * (1 - spread / 2), turnaround * (1 + spread / 2)
    return {
        "provenance": {"seed": seed, "scale": "bench"},
        "workloads": {"job_e2e": {
            "contract": {
                "setup_s": _entry(0.2, 0.199, 0.201),
                "op_s_p50": _entry(turnaround, low, high),
                "work_per_s": _entry(events, events * 0.99, events * 1.01,
                                     unit="1/s"),
                "peak_rss_mb": _entry(300.0, n=1, unit="MB"),
            },
            "end_to_end": {
                "failed_share": _entry(failed, n=1, unit="share"),
            },
            "per_layer": {"neuron.total_spikes": spikes},
        }},
    }


def _verdicts(a, b):
    rows, problems = compare.compare(a, b)
    return {row[1]: row[-1] for row in rows}, problems


def test_same_commit_twice_is_all_same():
    verdicts, problems = _verdicts(_result(), _result(turnaround=10.4))
    assert set(verdicts.values()) == {"same"}
    assert problems == []


def test_lower_is_better_metric_beyond_bound_is_worse():
    verdicts, problems = _verdicts(
        _result(), _result(turnaround=10.0 + TURNAROUND_STEP))
    assert verdicts[TURNAROUND] == "worse"
    assert any("job_turnaround_s" in problem for problem in problems)
    verdicts, problems = _verdicts(
        _result(), _result(turnaround=10.0 - TURNAROUND_STEP))
    assert verdicts[TURNAROUND] == "better" and problems == []


def test_higher_is_better_metric_direction():
    verdicts, _ = _verdicts(_result(), _result(events=1e6 - EVENTS_STEP))
    assert verdicts[EVENTS] == "worse"
    verdicts, _ = _verdicts(_result(), _result(events=1e6 + EVENTS_STEP))
    assert verdicts[EVENTS] == "better"


def test_spread_wider_than_bound_is_unresolved_not_unchanged():
    noisy = _result(spread=TURNAROUND_BOUND + 0.05)
    verdicts, problems = _verdicts(
        noisy, _result(turnaround=10.0 + TURNAROUND_STEP))
    assert verdicts[TURNAROUND] == "unresolved"
    assert problems == []
    verdicts, _ = _verdicts(noisy, _result())
    assert verdicts[TURNAROUND] == "unresolved"


def test_a_change_beyond_bound_plus_spread_is_worse_however_noisy():
    verdicts, problems = _verdicts(
        _result(spread=TURNAROUND_BOUND + 0.05), _result(turnaround=20.0))
    assert verdicts[TURNAROUND] == "worse" and problems


def test_judged_rows_are_the_drivers_metrics_with_its_bounds():
    rows, _ = compare.compare(_result(), _result())
    assert [row[1] for row in rows] == [
        "setup_s", TURNAROUND, EVENTS, "peak_rss_mb", "failed_share"]
    assert [row[6] for row in rows[:4]] == [
        "%.2f" % entry["bound"] for entry in CONTRACT.values()]


def test_any_new_failure_is_worse():
    verdicts, problems = _verdicts(_result(), _result(failed=0.001))
    assert verdicts["failed_share"] == "worse" and problems


def test_exact_counts_must_match_on_one_seed_only():
    _, problems = _verdicts(_result(), _result(spikes=1235.0))
    assert any("neuron.total_spikes" in problem for problem in problems)
    _, problems = _verdicts(_result(), _result(spikes=1235.0, seed=12))
    assert problems == []


def test_main_exit_code_and_table(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(_result(turnaround=10.0 + TURNAROUND_STEP)))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "job_turnaround_s" in out and "base 10" in out
    assert "worse" in out and "PROBLEM" in out
