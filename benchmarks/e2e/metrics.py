"""The declared metrics: names, units, directions, bounds — names final.

``BENCHMARK.json`` at the repo root is the one table of what the driver
sees: the workloads with their ``why``, the four driver-facing
end-to-end metrics with their bounds, and the per-layer figures with
unit and direction.  This module loads it (:data:`DECLARED`) and adds
only what the file cannot say:

* :data:`END_TO_END` — the ten named end-to-end metrics and the
  workloads each is reported on;
* :data:`CONTRACT_VIEW` — which named series each workload reports under
  each driver-facing metric (the driver wants every metric on every
  workload, so each is the workload's own reading of one *kind* of
  figure: set-up, latency of the headline operation, throughput of the
  bulk work, peak memory).  ``compare`` judges exactly these, with the
  bounds of ``BENCHMARK.json`` — there is no second bound table;
* :data:`IDENTITY` — figures that identify a run's output rather than
  measure a layer; they have no better or worse and stay out of
  ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Tuple

from benchmarks.e2e.harness import (Context, Span, highest_supported_percentile,
                                    layer_seconds, percentile,
                                    unattributed_share)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "BENCHMARK.json")) as _handle:
    DECLARED: Dict[str, Any] = json.load(_handle)

WORKLOADS: Tuple[str, ...] = tuple(entry["name"]
                                   for entry in DECLARED["workloads"])
#: The driver-facing metrics: name -> {unit, better, bound}.
CONTRACT: Dict[str, Dict[str, Any]] = {
    entry["name"]: entry for entry in DECLARED["end_to_end"]}
#: The driver-facing per-layer figures: name -> {unit, better}.
PER_LAYER: Dict[str, Dict[str, Any]] = {
    entry["name"]: entry for entry in DECLARED["per_layer"]}

SIMULATING = ("run_dense", "run_sparse_pooled", "onchip_fabric")

#: The ten named metrics: name -> (unit, better, series summarised,
#: workloads reported on).  ``failed_share`` and ``peak_rss_mb`` are
#: single readings, not series.
END_TO_END: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    "setup_s": ("s", "lower", "setup_s", WORKLOADS),
    "job_turnaround_s": ("s", "lower", "job_turnaround_s", ("job_e2e",)),
    "cold_compile_s": ("s", "lower", "cold_compile_s", ("compile_remap",)),
    "remap_ms_p50": ("ms", "lower", "remap_ms", ("compile_remap",)),
    "syn_events_per_s": ("1/s", "higher", "syn_events_per_s", SIMULATING),
    "host_run_s": ("s", "lower", "host_run_s", ("onchip_fabric",)),
    "lease_cycles_per_s": ("1/s", "higher", "lease_cycles_per_s",
                           ("service_churn",)),
    "lease_ready_ms_p50": ("ms", "lower", "lease_ready_ms",
                           ("service_churn",)),
    "failed_share": ("share", "lower", "", WORKLOADS),
    "peak_rss_mb": ("MB", "lower", "", WORKLOADS),
}

#: workload -> {driver metric: (series, factor)}.  ``op_s_p50`` is the
#: median latency of the operation a user of that workload waits for;
#: ``work_per_s`` the rate of its bulk work (``cold_compile_s`` travels
#: as synapses compiled per second).  ``setup_s`` and ``peak_rss_mb`` are
#: themselves on every workload.
CONTRACT_VIEW: Dict[str, Dict[str, Tuple[str, float]]] = {
    "job_e2e": {"op_s_p50": ("job_turnaround_s", 1.0),
                "work_per_s": ("job_events_per_s", 1.0)},
    "compile_remap": {"op_s_p50": ("remap_ms", 1e-3),
                      "work_per_s": ("cold_synapses_per_s", 1.0)},
    "run_dense": {"op_s_p50": ("run_wall_s", 1.0),
                  "work_per_s": ("syn_events_per_s", 1.0)},
    "run_sparse_pooled": {"op_s_p50": ("run_wall_s", 1.0),
                          "work_per_s": ("syn_events_per_s", 1.0)},
    "onchip_fabric": {"op_s_p50": ("host_run_s", 1.0),
                      "work_per_s": ("syn_events_per_s", 1.0)},
    "service_churn": {"op_s_p50": ("lease_ready_ms", 1e-3),
                      "work_per_s": ("lease_cycles_per_s", 1.0)},
}

#: What a run computed, not what it cost: name -> unit.  Reported beside
#: the per-layer figures and compared exactly, never as better or worse.
IDENTITY: Dict[str, str] = {
    "neuron.synapses": "count",
    "neuron.total_spikes": "count",
    "neuron.syn_events": "count",
    "neuron.spike_digest48": "id",
}

#: Counts of a deterministic program: ``compare`` requires them
#: identical between two runs of one seed and scale.  Those outside
#: :data:`IDENTITY` are also work a layer did, so ``BENCHMARK.json``
#: lists them with the direction in which less work is better.
EXACT_COUNTS = frozenset(IDENTITY) | frozenset({
    "compile.vertices", "compile.routing_entries",
    "compile.displaced_vertices", "cluster.supersteps", "cluster.lookahead",
    "cluster.cross_board_spikes", "cluster.exchanged_batches",
    "cluster.exchange_segment_bytes", "router.packets_sent",
})


def unit_of(figure: str) -> str:
    """Unit of a per-layer or identity figure."""
    return IDENTITY.get(figure) or PER_LAYER[figure]["unit"]


#: ``pipeline.report()`` pass name -> per-layer figure stem.
PASS_STEMS = {
    "partition": "partition", "place": "place",
    "allocate-keys": "allocate_keys", "route": "route",
    "compress": "compress", "synaptic-matrices": "synaptic_matrices",
    "shard-by-board": "shard_by_board",
}
REMAP_PASSES = ("route", "synaptic-matrices", "shard-by-board")


# ----------------------------------------------------------------------
# Per-layer figures read from spans and program reports
# ----------------------------------------------------------------------
def span_figures(ctx: Context,
                 wanted: Dict[str, Tuple[str, float, float]]) -> None:
    """``wanted``: figure -> (span name, percentile, factor).  A workload
    asks only for figures on its path, so one whose span never ran is
    ``missing``.  A tail percentile with fewer than ten samples beyond
    it is still given (nearest rank) but listed under ``thin``."""
    by_name: Dict[str, List[float]] = {}
    for span in ctx.tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
    for figure, (span_name, q, factor) in wanted.items():
        durations = by_name.get(span_name)
        if not durations:
            ctx.missing.append(figure)
            continue
        supported = highest_supported_percentile(len(durations))
        if q > 50.0 and (supported is None or supported < q):
            ctx.thin.append(figure)
        ctx.figures[figure] = percentile(durations, q) * factor


def pipeline_figures(ctx: Context, pipeline) -> None:
    """Seconds of each pass's last run, from ``pipeline.report()``, and
    the compilation's exact counts."""
    try:
        rows = {row["pass"]: row for row in pipeline.report()}
    except (AttributeError, KeyError, TypeError):
        rows = {}
    for pass_name, stem in PASS_STEMS.items():
        ctx.figure("compile.%s_s" % stem,
                   lambda row=rows.get(pass_name): row["last_ms"] * 1e-3)
    ctx.figure("compile.vertices",
               lambda: len(pipeline.ctx.placement.locations))
    ctx.figure("compile.routing_entries", lambda: (
        pipeline.ctx.routing_summary.entries_after_minimisation))


def cache_hit_rate(pipeline) -> float:
    rows = pipeline.report()
    hits = sum(row["cache_hits"] for row in rows)
    return hits / sum(row["cache_hits"] + row["runs"] for row in rows)


def cluster_figures(ctx: Context, app) -> None:
    """What ``ClusterReport`` publishes about the most recent run."""
    report = getattr(app, "report", None)
    ctx.figure("cluster.run_wall_s", lambda: report.wall_s)
    ctx.figure("cluster.compute_s", lambda: report.total_compute_s)
    ctx.figure("cluster.noncompute_share",
               lambda: 1.0 - report.critical_path_s / report.wall_s)
    for stage in ("barrier_wait", "exchange", "serialize"):
        ctx.figure("cluster.%s_s" % stage,
                   lambda stage=stage: report.stage_total(stage))
    ctx.figure("cluster.parent_exchange_s", lambda: report.parent_exchange_s)
    ctx.figure("cluster.speedup_bound", lambda: report.speedup_bound)
    ctx.figure("cluster.supersteps", lambda: report.supersteps)
    ctx.figure("cluster.lookahead", lambda: report.lookahead)
    ctx.figure("cluster.cross_board_spikes",
               lambda: report.cross_board_spikes)
    ctx.figure("cluster.exchanged_batches", lambda: report.exchanged_batches)
    ctx.figure("cluster.exchange_segment_bytes",
               lambda: report.exchange_segment_bytes)
    ctx.figure("cluster.tick_ms_mean",
               lambda: 1000.0 * report.wall_s / report.n_ticks)


def result_figures(ctx: Context, result, digest: int) -> None:
    """What one simulation result computed (:data:`IDENTITY`)."""
    ctx.figure("neuron.total_spikes", lambda: result.total_spikes())
    ctx.figure("neuron.syn_events", lambda: result.synaptic_events)
    ctx.figures["neuron.spike_digest48"] = float(digest)


def trust_figures(ctx: Context, traced_op_s: float,
                  untraced_op_s: float) -> None:
    """How far the other layer numbers can be trusted."""
    ctx.figures["bench.unattributed_share"] = unattributed_share(
        ctx.tracer.spans)
    if untraced_op_s > 0.0:
        ctx.figures["profile.trace_overhead_share"] = (
            traced_op_s / untraced_op_s - 1.0)


def layer_shares(spans: Iterable[Span]) -> Dict[str, float]:
    """Each layer's share of the timed operations' wall (self time)."""
    seconds = layer_seconds(spans)
    total = sum(seconds.values())
    if total <= 0.0:
        return {}
    return {layer: value / total for layer, value in sorted(seconds.items())}
