#!/usr/bin/env python
"""Benchmark perf-regression gate.

Compares freshly emitted ``BENCH_<id>.json`` files (written at the repo
root by the benchmarks' ``reporting.emit_json``) against the checked-in
baselines under ``benchmarks/baselines/``.  Each bench gates a small set
of *key metrics* with a direction (higher- or lower-is-better); a metric
that moved in the worse direction by more than the tolerance (25 % by
default) fails the build with a clear diff, while a large *improvement*
is only flagged as a hint to refresh the baseline.

Updating a baseline is deliberate and reviewed: run the benchmark
locally (or download the CI artifact), copy the fresh ``BENCH_<id>.json``
over ``benchmarks/baselines/BENCH_<id>.json`` and commit it with a note
explaining the shift.

Usage::

    python benchmarks/check_regression.py
    python benchmarks/check_regression.py --tolerance 0.10 --bench e16
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_TOLERANCE = 0.25
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "baselines")


@dataclass(frozen=True)
class GatedMetric:
    """One gated metric of a bench, with its improvement direction.

    ``tolerance`` overrides the gate-wide tolerance for this metric
    alone — used for inherently noisier figures (stage-timing ratios
    move with scheduler jitter far more than algorithmic speedups do)
    so they can be gated loosely without loosening the whole gate.
    """

    name: str
    higher_is_better: bool = True
    tolerance: Optional[float] = None


#: The key metrics gated per bench.  Deliberately a small set of
#: *ratio* figures (speedups, hit rates): ratios compare a workload
#: against a same-machine reference, so they hold across runner
#: generations, while absolute events/s or wall-clock milliseconds move
#: with the hardware and would trip the gate on every runner refresh.
KEY_METRICS: Dict[str, Tuple[GatedMetric, ...]] = {
    # e16 has no same-machine reference leg to form a ratio with (the
    # per-synapse oracle lives in tests/), so the host loop's scatter
    # throughput is gated as an absolute figure, loosely: it catches the
    # fast path going several times slower, not runner drift.  0.6 on a
    # rate is the stage-timing tolerance 1.5 on its time (2.5x slower =
    # 40 % of the throughput); a rate cannot fall by more than 100 %,
    # so 1.5 itself would gate nothing.  Paired parent/change runs of
    # BENCHMARK.json are what guards the fast path's speed closely.
    "e16": (GatedMetric("csr_events_per_s", tolerance=0.6),),
    # e17 gates both transports' absolute delivery rates with e16's loose
    # tolerance.  Their ratio (``speedup``, still reported) is not gated:
    # it falls whenever the per-packet reference gets faster.
    "e17": (GatedMetric("event_events_per_s", tolerance=0.6),
            GatedMetric("fabric_events_per_s", tolerance=0.6)),
    # e18 gates the cold compile and the incremental re-map as absolute
    # times, plus profile_pass_total_s (the compile pipeline's
    # whole-pass stage roll-up from repro.profile).  All three carry the
    # loose stage-timing tolerance: they exist to catch a pass going
    # several times slower, not runner-to-runner drift.  Their ratio
    # (``remap_speedup``, still reported) is not gated: it falls
    # whenever the cold compile, its reference, gets faster.
    "e18": (GatedMetric("cold_compile_ms", higher_is_better=False,
                        tolerance=1.5),
            GatedMetric("incremental_remap_ms", higher_is_better=False,
                        tolerance=1.5),
            GatedMetric("pass_cache_hit_rate"),
            GatedMetric("profile_pass_total_s", higher_is_better=False,
                        tolerance=1.5)),
    # e19 gates the load-balance bound plus the exchange overhead: worker
    # seconds spent serialising/exchanging/waiting per worker super-step.
    # Per compute second (stage_overhead_ratio, still reported) a faster
    # engine would read as more overhead, since barrier waits are set by
    # the scheduler.  Overhead is scheduler-sensitive, so it carries a
    # loose per-metric tolerance instead of the gate-wide one.
    "e19": (GatedMetric("speedup_bound"),
            GatedMetric("overhead_s_per_worker_superstep",
                        higher_is_better=False, tolerance=1.5)),
    # e20 gates the fused engine's serial per-tick compute cost and the
    # pooled workers' merged compute stage (profile_compute_s) — both
    # absolute, so both carry the loose stage-timing tolerance of e18's
    # — and the pooled-equals-serial bit-identity verdict, whose 1.0
    # baseline means any divergence trips the gate outright.
    "e20": (GatedMetric("fused_tick_ms", higher_is_better=False,
                        tolerance=1.5),
            GatedMetric("bit_identical"),
            GatedMetric("profile_compute_s", higher_is_better=False,
                        tolerance=1.5)),
    # a7 gates the service-quality ratios: every paced tenant completes
    # (completion_rate), nobody is starved (fairness_jain), and the
    # zero-baseline 5xx count means any internal error trips the gate.
    "a7": (GatedMetric("completion_rate"),
           GatedMetric("fairness_jain"),
           GatedMetric("service_http_5xx_total",
                       higher_is_better=False)),
}

OK = "ok"
IMPROVED = "improved"
REGRESSED = "REGRESSED"
MISSING = "MISSING"


@dataclass
class Deviation:
    """The comparison verdict of one gated metric."""

    bench: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    #: Signed relative change towards "better" (+0.10 = 10 % better).
    change: float
    status: str

    @property
    def failed(self) -> bool:
        return self.status in (REGRESSED, MISSING)


def compare_bench(bench_id: str, baseline: Dict[str, float],
                  current: Optional[Dict[str, float]],
                  tolerance: float = DEFAULT_TOLERANCE) -> List[Deviation]:
    """Compare one bench's current metrics against its baseline."""
    deviations: List[Deviation] = []
    for gated in KEY_METRICS.get(bench_id, ()):
        base_value = baseline.get(gated.name)
        if base_value is None:
            # The baseline predates this gate; nothing to compare.
            continue
        base_value = float(base_value)
        if current is None or gated.name not in current:
            deviations.append(Deviation(
                bench=bench_id, metric=gated.name, baseline=base_value,
                current=None, change=0.0, status=MISSING))
            continue
        value = float(current[gated.name])
        if base_value == 0.0:
            raw = 0.0 if value == 0.0 else float("inf") * (1 if value > 0
                                                           else -1)
        else:
            raw = (value - base_value) / abs(base_value)
        change = raw if gated.higher_is_better else -raw
        allowed = tolerance if gated.tolerance is None else gated.tolerance
        if change < -allowed:
            status = REGRESSED
        elif change > allowed:
            status = IMPROVED
        else:
            status = OK
        deviations.append(Deviation(bench=bench_id, metric=gated.name,
                                    baseline=base_value, current=value,
                                    change=change, status=status))
    return deviations


def load_bench_file(path: str) -> Tuple[str, Dict[str, float]]:
    """Read one ``BENCH_<id>.json`` and return ``(bench_id, metrics)``."""
    with open(path) as handle:
        payload = json.load(handle)
    return payload["bench"], payload.get("metrics", {})


def run_gate(baseline_dir: str = BASELINE_DIR,
             current_dir: str = REPO_ROOT,
             tolerance: float = DEFAULT_TOLERANCE,
             benches: Optional[Sequence[str]] = None) -> List[Deviation]:
    """Compare every baseline against its freshly emitted counterpart."""
    deviations: List[Deviation] = []
    paths = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    for path in paths:
        bench_id, baseline = load_bench_file(path)
        if benches and bench_id not in benches:
            continue
        current_path = os.path.join(current_dir,
                                    os.path.basename(path))
        current = None
        if os.path.exists(current_path):
            _, current = load_bench_file(current_path)
        deviations.extend(compare_bench(bench_id, baseline, current,
                                        tolerance))
    return deviations


def render(deviations: List[Deviation], tolerance: float) -> str:
    """A fixed-width diff table of every gated metric."""
    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else "%.4g" % value

    rows = [("bench", "metric", "baseline", "current", "change", "status")]
    for deviation in deviations:
        change = ("-" if deviation.current is None
                  else "%+.1f%%" % (100.0 * deviation.change))
        rows.append((deviation.bench, deviation.metric,
                     fmt(deviation.baseline), fmt(deviation.current),
                     change, deviation.status))
    widths = [max(len(row[column]) for row in rows)
              for column in range(len(rows[0]))]
    lines = ["Benchmark regression gate (tolerance: worse by > %.0f%%)"
             % (100.0 * tolerance)]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a benchmark's key metrics regressed "
                    "beyond tolerance against the checked-in baselines.")
    parser.add_argument("--baseline-dir", default=BASELINE_DIR)
    parser.add_argument("--current-dir", default=REPO_ROOT,
                        help="where the fresh BENCH_<id>.json files are "
                             "(default: the repo root)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed relative move in the worse "
                             "direction (default 0.25)")
    parser.add_argument("--bench", action="append", dest="benches",
                        help="gate only this bench id (repeatable)")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("tolerance must be non-negative")

    deviations = run_gate(args.baseline_dir, args.current_dir,
                          args.tolerance, args.benches)
    if not deviations:
        print("No baselines found under %s — nothing gated."
              % args.baseline_dir)
        return 0
    print(render(deviations, args.tolerance))
    improved = [d for d in deviations if d.status == IMPROVED]
    if improved:
        print("note: %d metric(s) improved beyond tolerance; consider "
              "refreshing the baseline(s): %s"
              % (len(improved),
                 ", ".join(sorted({d.bench for d in improved}))))
    failures = [d for d in deviations if d.failed]
    if failures:
        print("FAIL: %d gated metric(s) regressed or missing." %
              len(failures))
        return 1
    print("PASS: every gated metric within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
