"""Self-tests of the benchmark's own arithmetic (no program under test)."""

from __future__ import annotations

import pytest

from benchmarks.e2e import harness, metrics
from benchmarks.e2e.harness import Span, Tracer


def _span(ident, name, layer, start, end, parent=None):
    span = Span(name, layer)
    span.id, span.start, span.end, span.parent = ident, start, end, parent
    return span


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50.0) == 50
    assert harness.percentile(samples, 99.0) == 99
    assert harness.percentile(samples, 100.0) == 100
    assert harness.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50.0)


@pytest.mark.parametrize("n, expected", [
    (19, None),        # 9.5 samples above the median: not even p50
    (20, 50.0),
    (99, 50.0),        # p90 would leave 9.9 beyond it
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert harness.highest_supported_percentile(n) == expected


def test_summarise_reports_median_quartiles_and_n():
    summary = harness.summarise([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary["value"] == 3.0
    assert summary["n"] == 5
    assert summary["q1"] < summary["value"] < summary["q3"]
    assert harness.summarise([2.5]) == {"value": 2.5, "q1": 2.5, "q3": 2.5,
                                        "n": 1}


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        _span(0, "op.job", "bench", 0.0, 10.0),
        _span(1, "a", "x", 1.0, 3.0, parent=0),
        _span(2, "b", "x", 2.0, 5.0, parent=0),      # overlaps a
        _span(3, "c", "y", 7.0, 12.0, parent=0),     # clipped at 10
        _span(4, "d", "z", 7.5, 8.0, parent=3),      # grandchild
    ]
    own = harness.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 3.0))
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(5.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_unattributed_share_counts_only_op_spans():
    spans = [
        _span(0, "op.run", "bench", 0.0, 10.0),
        _span(1, "run", "cluster", 0.0, 4.0, parent=0),
        _span(2, "digest", "bench", 5.0, 9.0, parent=0),
        _span(3, "setup", "bench", 20.0, 50.0),       # not an operation
        _span(4, "expand", "neuron", 20.0, 21.0, parent=3),
    ]
    assert harness.unattributed_share(spans) == pytest.approx(0.2)
    seconds = harness.layer_seconds(spans)
    assert seconds == {"bench": pytest.approx(6.0),
                       "cluster": pytest.approx(4.0)}
    assert harness.unattributed_share([]) == 0.0


def test_tracer_nests_per_thread_and_is_silent_when_off():
    tracer = Tracer(True)
    with tracer.span("op.x", "bench") as outer:
        with tracer.span("inner", "layer") as inner:
            pass
        tracer.interval("timed", "layer", outer.start, outer.start)
    assert inner.parent == outer.id and outer.parent is None
    assert [span.name for span in tracer.spans] == ["inner", "timed", "op.x"]
    assert tracer.spans[1].parent == outer.id
    assert outer.duration >= inner.duration >= 0.0

    off = Tracer(False)
    with off.span("op.x", "bench") as span:
        pass
    off.interval("timed", "layer", 0.0, 1.0)
    assert off.spans == [] and span.duration >= 0.0


def test_spike_digest_ignores_order_but_not_content():
    spikes = {"b": [(2.0, 1), (1.0, 3)], "a": [(1.0, 0)]}
    shuffled = {"a": [(1.0, 0)], "b": [(1.0, 3), (2.0, 1)]}
    moved = {"a": [(1.0, 0)], "b": [(1.0, 3), (3.0, 1)]}
    digest = harness.spike_digest48(spikes, 1.0)
    assert 0 <= digest < 2 ** 48
    assert harness.spike_digest48(shuffled, 1.0) == digest
    assert harness.spike_digest48(moved, 1.0) != digest
    assert harness.spike_digest48({"a": []}, 1.0) != digest


def test_missing_report_attribute_costs_one_figure_not_the_run():
    ctx = harness.Context()
    ctx.figure("cluster.run_wall_s", lambda: None.wall_s)
    ctx.figure("cluster.supersteps", lambda: 7)
    assert ctx.figures == {"cluster.supersteps": 7.0}
    assert ctx.missing == ["cluster.run_wall_s"]


def test_span_figures_never_run_are_missing_and_short_tails_thin():
    ctx = harness.Context(Tracer(True))
    for _ in range(30):
        with ctx.span("ready_wait", "service"):
            pass
    metrics.span_figures(ctx, {
        "service.ready_wait_ms_p50": ("ready_wait", 50.0, 1000.0),
        "service.ready_wait_ms_p99": ("ready_wait", 99.0, 1000.0),
        "service.keepalive_ms_p50": ("keepalive", 50.0, 1000.0)})
    assert set(ctx.figures) == {"service.ready_wait_ms_p50",
                                "service.ready_wait_ms_p99"}
    assert ctx.thin == ["service.ready_wait_ms_p99"]
    assert ctx.missing == ["service.keepalive_ms_p50"]


def test_identical_flags_a_value_that_changes_between_repeats():
    ctx = harness.Context()
    ctx.identical("total_spikes", 10)
    ctx.identical("total_spikes", 10)
    assert ctx.failed == 0
    ctx.identical("total_spikes", 11)
    assert ctx.failed == 1 and "total_spikes" in ctx.errors[0]
