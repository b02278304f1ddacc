"""Tests for the benchmark perf-regression gate
(``benchmarks/check_regression.py``)."""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.check_regression import (
    IMPROVED,
    KEY_METRICS,
    MISSING,
    OK,
    REGRESSED,
    compare_bench,
    main,
    run_gate,
)


#: e19's gated overhead figure.
OVERHEAD = "overhead_s_per_worker_superstep"


def write_bench(directory, bench_id, metrics):
    path = os.path.join(str(directory), "BENCH_%s.json" % bench_id)
    with open(path, "w") as handle:
        json.dump({"bench": bench_id, "metrics": metrics}, handle)
    return path


class TestCompareBench:
    def test_within_tolerance_is_ok(self):
        deviations = compare_bench(
            "e19", {"speedup_bound": 4.0, OVERHEAD: 0.2},
            {"speedup_bound": 3.6, OVERHEAD: 0.2},
            tolerance=0.25)
        assert [d.status for d in deviations] == [OK, OK]
        assert deviations[0].change == pytest.approx(-0.10)

    def test_regression_beyond_tolerance_fails(self):
        deviations = compare_bench(
            "e18", {"pass_cache_hit_rate": 0.5},
            {"pass_cache_hit_rate": 0.35}, tolerance=0.25)
        assert deviations[0].status == REGRESSED
        assert deviations[0].failed

    def test_improvement_beyond_tolerance_is_not_a_failure(self):
        deviations = compare_bench(
            "e18", {"pass_cache_hit_rate": 0.1},
            {"pass_cache_hit_rate": 0.2}, tolerance=0.25)
        assert deviations[0].status == IMPROVED
        assert not deviations[0].failed

    def test_missing_current_metric_fails(self):
        deviations = compare_bench(
            "e18", {"pass_cache_hit_rate": 0.1}, {"remap_speedup": 1.0},
            tolerance=0.25)  # the ratio is deliberately ungated
        assert deviations[0].status == MISSING
        assert deviations[0].failed

    def test_missing_current_file_fails(self):
        deviations = compare_bench("e18", {"pass_cache_hit_rate": 0.1},
                                   None)
        assert deviations[0].status == MISSING

    def test_ungated_metrics_are_ignored(self):
        # Wall-clock figures move with the runner hardware, and e17's
        # fabric/event ratio falls whenever its reference leg speeds up:
        # e17 gates its two delivery rates only.
        deviations = compare_bench(
            "e17", {"fabric_wall_s": 1.0, "event_wall_s": 5.0,
                    "speedup": 15.0, "event_events_per_s": 6e5,
                    "fabric_events_per_s": 8e6},
            {"fabric_wall_s": 99.0, "event_wall_s": 500.0,
             "speedup": 1.0, "event_events_per_s": 6e5,
             "fabric_events_per_s": 8e6})
        assert [d.metric for d in deviations] == ["event_events_per_s",
                                                  "fabric_events_per_s"]
        assert all(d.status == OK for d in deviations)

    def test_single_path_benches_gate_their_absolute_figure_loosely(self):
        # e16 and e20 have no reference leg left to form a ratio with;
        # their fast paths are gated against going several times slower.
        def status(bench, metric, baseline, current):
            (deviation,) = [d for d in compare_bench(
                bench, {metric: baseline}, {metric: current})
                if d.metric == metric]
            return deviation.status

        assert status("e16", "csr_events_per_s", 30e6, 20e6) == OK
        assert status("e16", "csr_events_per_s", 30e6, 10e6) == REGRESSED
        assert status("e17", "event_events_per_s", 6e5, 4e5) == OK
        assert status("e17", "fabric_events_per_s", 8e6, 3e6) == REGRESSED
        assert status("e20", "fused_tick_ms", 20.0, 40.0) == OK
        assert status("e20", "fused_tick_ms", 20.0, 60.0) == REGRESSED
        assert "speedup" not in {gated.name for bench in ("e16", "e20")
                                 for gated in KEY_METRICS[bench]}

    def test_e18_gates_compile_times_not_their_ratio(self):
        # A faster cold compile lowers remap_speedup (cold / re-map):
        # e18 gates both absolute times loosely and the ratio not at all.
        deviations = compare_bench(
            "e18", {"cold_compile_ms": 500.0, "incremental_remap_ms": 8.0,
                    "remap_speedup": 62.5},
            {"cold_compile_ms": 250.0, "incremental_remap_ms": 16.0,
             "remap_speedup": 15.6})
        assert {d.metric: d.status for d in deviations} == {
            "cold_compile_ms": OK, "incremental_remap_ms": OK}
        (remap,) = compare_bench("e18", {"incremental_remap_ms": 8.0},
                                 {"incremental_remap_ms": 24.0})
        assert remap.status == REGRESSED

    def test_unknown_bench_gates_nothing(self):
        assert compare_bench("e99", {"anything": 1.0},
                             {"anything": 0.0}) == []

    def test_baseline_without_the_gated_metric_is_skipped(self):
        # A baseline seeded before a gate was added must not fail.
        assert compare_bench("e19", {"total_spikes": 5.0},
                             {"speedup_bound": 4.0}) == []

    def test_per_metric_tolerance_overrides_the_gate_wide_one(self):
        # e19's overhead_s_per_worker_superstep carries a loose per-metric
        # tolerance (1.5): a 2x move passes where the gate-wide 25 %
        # would have failed it...
        deviations = compare_bench(
            "e19", {"speedup_bound": 4.0, OVERHEAD: 0.2},
            {"speedup_bound": 4.0, OVERHEAD: 0.4},
            tolerance=0.25)
        by_name = {d.metric: d for d in deviations}
        assert by_name[OVERHEAD].status == OK
        assert by_name["speedup_bound"].status == OK

    def test_e19_gates_overhead_per_superstep_not_per_compute_second(self):
        # A cheaper engine raises overhead per compute second while the
        # barrier seconds stay set by the scheduler: only the overhead
        # per worker super-step is gated.
        deviations = compare_bench(
            "e19", {"speedup_bound": 4.0, OVERHEAD: 0.01,
                    "stage_overhead_ratio": 0.4},
            {"speedup_bound": 4.0, OVERHEAD: 0.01,
             "stage_overhead_ratio": 1.6})
        assert {d.metric: d.status for d in deviations} == {
            "speedup_bound": OK, OVERHEAD: OK}
        (overhead,) = compare_bench("e19", {OVERHEAD: 0.01},
                                    {OVERHEAD: 0.026})
        assert overhead.status == REGRESSED

    def test_per_metric_tolerance_still_gates(self):
        # ...but a 4x overhead blow-up regresses even the loose gate,
        # and a tight metric still uses the gate-wide tolerance.
        deviations = compare_bench(
            "e19", {"speedup_bound": 4.0, OVERHEAD: 0.2},
            {"speedup_bound": 2.0, OVERHEAD: 0.8},
            tolerance=0.25)
        by_name = {d.metric: d for d in deviations}
        assert by_name[OVERHEAD].status == REGRESSED
        assert by_name["speedup_bound"].status == REGRESSED


class TestRunGateAndMain:
    def _seed(self, baseline_dir, current_dir, current_speedup):
        write_bench(baseline_dir, "e19", {"speedup_bound": 20.0})
        write_bench(current_dir, "e19", {"speedup_bound": current_speedup})

    def test_passes_against_identical_current(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        baseline_dir.mkdir()
        current_dir.mkdir()
        self._seed(baseline_dir, current_dir, 20.0)
        status = main(["--baseline-dir", str(baseline_dir),
                       "--current-dir", str(current_dir)])
        out = capsys.readouterr().out
        assert status == 0
        assert "PASS" in out

    def test_fails_when_a_baseline_metric_is_perturbed(self, tmp_path,
                                                       capsys):
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        baseline_dir.mkdir()
        current_dir.mkdir()
        # 20.0 -> 10.0 is a 50 % regression: well past the tolerance.
        self._seed(baseline_dir, current_dir, 10.0)
        status = main(["--baseline-dir", str(baseline_dir),
                       "--current-dir", str(current_dir)])
        out = capsys.readouterr().out
        assert status == 1
        assert "REGRESSED" in out
        assert "FAIL" in out

    def test_fails_when_the_current_file_is_absent(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        baseline_dir.mkdir()
        current_dir.mkdir()
        write_bench(baseline_dir, "e19", {"speedup_bound": 20.0})
        status = main(["--baseline-dir", str(baseline_dir),
                       "--current-dir", str(current_dir)])
        assert status == 1
        assert "MISSING" in capsys.readouterr().out

    def test_no_baselines_is_a_pass(self, tmp_path, capsys):
        status = main(["--baseline-dir", str(tmp_path),
                       "--current-dir", str(tmp_path)])
        assert status == 0
        assert "nothing gated" in capsys.readouterr().out

    def test_bench_filter(self, tmp_path):
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        baseline_dir.mkdir()
        current_dir.mkdir()
        self._seed(baseline_dir, current_dir, 10.0)   # a regression...
        write_bench(baseline_dir, "e16", {"csr_events_per_s": 5.0})
        write_bench(current_dir, "e16", {"csr_events_per_s": 5.0})
        deviations = run_gate(str(baseline_dir), str(current_dir),
                              benches=["e16"])        # ...filtered out
        assert all(not deviation.failed for deviation in deviations)

    def test_checked_in_baselines_cover_the_gated_benches(self):
        baseline_dir = os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks", "baselines")
        seeded = {name[len("BENCH_"):-len(".json")]
                  for name in os.listdir(baseline_dir)
                  if name.startswith("BENCH_")}
        # The three trajectory benches are seeded; every seeded bench is
        # actually gated by a KEY_METRICS entry.
        assert {"e16", "e17", "e18"} <= seeded
        assert seeded <= set(KEY_METRICS)
