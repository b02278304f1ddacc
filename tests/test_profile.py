"""Tests for :mod:`repro.profile` — the hierarchical stage profiler.

Covers the contract every instrumented subsystem relies on: nesting and
self-time arithmetic, the near-free disabled path, thread-safety of
concurrent stage entry, the cluster runner's worker stage tables
folded into its registry, and the
``flatten()`` round trip through ``benchmarks/reporting.emit_json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time

import pytest

from repro import profile
from repro.cluster import ClusterApplication
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.profile import ProfileRegistry, perf_now, sanitise
from repro.runtime.boot import BootController

# The bench-side reporting module is not a package import; reach it the
# way the standalone benches do.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
from reporting import attach_profile, emit_json  # noqa: E402


# ----------------------------------------------------------------------
# Nesting and self-time arithmetic
# ----------------------------------------------------------------------
class TestNesting:
    def test_single_stage_records_calls_and_seconds(self):
        registry = ProfileRegistry(enabled=True)
        stage = registry.stage("tick")
        for _ in range(3):
            with stage:
                pass
        (record,) = registry.records()
        assert record.path == ("tick",)
        assert record.calls == 3
        assert record.cum_s >= 0.0
        assert record.self_s == pytest.approx(record.cum_s)

    def test_nested_stage_paths_root_to_leaf(self):
        registry = ProfileRegistry(enabled=True)
        with registry.stage("outer"):
            with registry.stage("inner"):
                pass
        paths = [record.path for record in registry.records()]
        assert paths == [("outer",), ("outer", "inner")]

    def test_parent_self_time_excludes_children(self):
        registry = ProfileRegistry(enabled=True)
        with registry.stage("outer"):
            began = perf_now()
            while perf_now() - began < 0.002:
                pass
            with registry.stage("inner"):
                began = perf_now()
                while perf_now() - began < 0.004:
                    pass
        by_name = {record.name: record for record in registry.records()}
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner.cum_s >= 0.004
        assert outer.cum_s >= inner.cum_s
        # The defining identity: cum = self + profiled children.
        assert outer.cum_s == pytest.approx(outer.self_s + inner.cum_s)
        assert outer.self_s < outer.cum_s

    def test_elapsed_readable_after_the_with_block(self):
        registry = ProfileRegistry(enabled=True)
        with registry.stage("span") as frame:
            pass
        assert frame.elapsed_s >= 0.0
        (record,) = registry.records()
        assert record.cum_s == pytest.approx(frame.elapsed_s)

    def test_decorator_records_under_the_stage_name(self):
        registry = ProfileRegistry(enabled=True)

        @registry.stage("work")
        def work(x):
            return x + 1

        assert work.__profile_stage__ == "work"
        assert work(1) == 2
        assert work(2) == 3
        (record,) = registry.records()
        assert record.path == ("work",)
        assert record.calls == 2

    def test_reentered_stage_accumulates_per_path(self):
        registry = ProfileRegistry(enabled=True)
        tick = registry.stage("tick")
        phase = registry.stage("phase")
        for _ in range(5):
            with tick:
                with phase:
                    pass
        by_path = {record.path: record for record in registry.records()}
        assert by_path[("tick",)].calls == 5
        assert by_path[("tick", "phase")].calls == 5

    def test_stage_seconds_sums_leaf_names_across_paths(self):
        registry = ProfileRegistry(enabled=True)
        registry.add(("a", "shared"), 1.0)
        registry.add(("b", "shared"), 2.0)
        assert registry.stage_seconds()["shared"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Disabled path
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_disabled_registry_records_nothing(self):
        registry = ProfileRegistry(enabled=False)
        with registry.stage("tick") as frame:
            pass
        assert frame.elapsed_s == 0.0
        assert len(registry) == 0

    def test_disabled_decorator_tail_calls(self):
        registry = ProfileRegistry(enabled=False)

        @registry.stage("work")
        def work():
            return 41

        assert work() == 41
        assert len(registry) == 0

    def test_enable_mid_stage_does_not_corrupt(self):
        # Entered while disabled, exited while enabled: the exit finds
        # no frame and must account nothing rather than crash.
        registry = ProfileRegistry(enabled=False)
        stage = registry.stage("tick")
        with stage:
            registry.enabled = True
        assert len(registry) == 0
        with stage:
            pass
        (record,) = registry.records()
        assert record.calls == 1

    def test_disabled_overhead_under_five_percent(self):
        # The acceptance bound: a loop body inside a disabled stage costs
        # < 5 % over the bare body.  The two are timed in many short
        # chunks, back to back in alternating order, so each pair of
        # chunks ran under the same host load; the median of the pairs'
        # ratios sheds the pairs a preemption or a load change split.
        # (Minima of either side, taken separately, can come from
        # different load phases and misjudge the ratio by several %.)
        registry = ProfileRegistry(enabled=False)
        stage = registry.stage("tick")
        iterations, chunks = 8, 300

        def bare():
            began = perf_now()
            for _ in range(iterations):
                sum(range(2000))
            return perf_now() - began

        def instrumented():
            began = perf_now()
            for _ in range(iterations):
                with stage:
                    sum(range(2000))
            return perf_now() - began

        ratios = []
        for chunk in range(chunks):
            if chunk % 2:
                bare_s = bare()
                ratios.append(instrumented() / bare_s)
            else:
                inst_s = instrumented()
                ratios.append(inst_s / bare())
        overhead = statistics.median(ratios) - 1.0
        assert overhead < 0.05, "disabled-path overhead %.2f%%" % (
            100.0 * overhead)


# ----------------------------------------------------------------------
# Thread-safety
# ----------------------------------------------------------------------
class TestThreadSafety:
    def test_concurrent_stage_entry(self):
        registry = ProfileRegistry(enabled=True)
        outer = registry.stage("outer")
        inner = registry.stage("inner")
        rounds = 200
        errors = []

        def worker():
            try:
                for _ in range(rounds):
                    with outer:
                        with inner:
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        by_path = {record.path: record for record in registry.records()}
        # Per-thread stacks are independent: every entry nested exactly
        # under its own thread's outer frame, none crossed threads.
        assert set(by_path) == {("outer",), ("outer", "inner")}
        assert by_path[("outer",)].calls == 8 * rounds
        assert by_path[("outer", "inner")].calls == 8 * rounds

    def test_concurrent_add(self):
        registry = ProfileRegistry(enabled=True)

        def worker():
            for _ in range(500):
                registry.add("stage", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        (record,) = registry.records()
        assert record.calls == 2000
        assert record.cum_s == pytest.approx(2.0)


# ----------------------------------------------------------------------
# The cluster runner's worker stage tables
# ----------------------------------------------------------------------
class TestClusterStageTables:
    def test_merge_across_the_cluster_pipe_protocol(self):
        # A pooled cluster run ships each worker's stage table over its
        # result pipe; the parent folds them into its registry, which
        # then agrees with the report's per-worker stage tables.
        network = Network(seed=7)
        populations = []
        for pair in range(2):
            stimulus = SpikeSourcePoisson(64, rate_hz=60.0,
                                          label="p-stim-%d" % pair)
            population = Population(64, "lif", label="p-exc-%d" % pair)
            population.record(spikes=True)
            network.connect(stimulus, population,
                            FixedProbabilityConnector(0.3, weight=0.6,
                                                      delay_range=(1, 8)))
            populations.append(population)
        network.connect(populations[0], populations[1],
                        FixedProbabilityConnector(0.1, weight=0.2,
                                                  delay_range=(1, 8)))
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            2, 1, board_width=4, board_height=3, cores_per_chip=4))
        BootController(machine, seed=1).boot()
        cluster = ClusterApplication(machine, network, seed=7,
                                     max_neurons_per_core=16,
                                     placement_strategy="round-robin")
        profile.enable()
        try:
            cluster.run(20.0, workers=2)
        finally:
            profile.enable(False)
        assert cluster.report.workers == 2   # really pooled, not serial

        seconds = cluster.registry.stage_seconds()
        for stage in ("compute", "serialize", "exchange", "barrier_wait"):
            assert seconds.get(stage, 0.0) > 0.0
        # The merged registry agrees with the report's per-worker view.
        assert cluster.report.stage_total("compute") == pytest.approx(
            seconds["compute"])
        flat = cluster.registry.flatten()
        assert flat["profile_compute_s"] == pytest.approx(
            seconds["compute"])
        assert flat["profile_compute_calls"] == 2.0   # one per worker


# ----------------------------------------------------------------------
# flatten() and the emit_json round trip
# ----------------------------------------------------------------------
class TestFlatten:
    def test_sanitise(self):
        assert sanitise("Pass: Route/Compress") == "pass_route_compress"
        assert sanitise("compute") == "compute"

    def test_flatten_aggregates_by_leaf_name(self):
        registry = ProfileRegistry(enabled=True)
        registry.add(("run", "compute"), 1.0, calls=2, self_s=0.75)
        registry.add(("compute",), 0.5)
        flat = registry.flatten()
        assert flat["profile_compute_s"] == pytest.approx(1.5)
        assert flat["profile_compute_self_s"] == pytest.approx(1.25)
        assert flat["profile_compute_calls"] == 3.0
        # Aggregation is by *leaf* name: the ("run", "compute") path
        # contributes to compute, and no parent-only key is invented.
        assert "profile_run_s" not in flat

    def test_round_trip_through_emit_json(self, tmp_path):
        registry = ProfileRegistry(enabled=True)
        with registry.stage("tick"):
            registry.add("io", 0.125, calls=3)
        metrics = {"wall_s": 1.0}
        attach_profile(metrics, registry)
        path = emit_json("profiletest", metrics,
                         path=str(tmp_path / "BENCH_profiletest.json"))
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["bench"] == "profiletest"
        emitted = payload["metrics"]
        assert emitted["wall_s"] == 1.0
        assert emitted["profile_io_s"] == pytest.approx(0.125)
        assert emitted["profile_io_calls"] == 3.0
        assert emitted["profile_tick_calls"] == 1.0
        for value in emitted.values():
            assert isinstance(value, float)

    def test_attach_profile_never_overwrites_bench_keys(self):
        registry = ProfileRegistry(enabled=True)
        registry.add("tick", 2.0)
        metrics = {"profile_tick_s": 9.0}
        attach_profile(metrics, registry)
        assert metrics["profile_tick_s"] == 9.0
        assert metrics["profile_tick_calls"] == 1.0

    def test_attach_profile_defaults_to_the_global_registry(self):
        profile.reset()
        profile.enable(False)
        metrics = {}
        attach_profile(metrics)
        assert metrics == {}          # disabled global: no keys at all
        profile.enable(True)
        try:
            profile.record_stage("tick", 0.5)
            attach_profile(metrics)
            assert metrics["profile_tick_s"] == pytest.approx(0.5)
        finally:
            profile.enable(False)
            profile.reset()


# ----------------------------------------------------------------------
# The process-global registry and its environment flag
# ----------------------------------------------------------------------
class TestGlobalRegistry:
    def test_env_flag_gates_a_fresh_registry(self, monkeypatch):
        monkeypatch.delenv(profile.ENV_FLAG, raising=False)
        assert not ProfileRegistry().enabled
        monkeypatch.setenv(profile.ENV_FLAG, "1")
        assert ProfileRegistry().enabled
        monkeypatch.setenv(profile.ENV_FLAG, "0")
        assert not ProfileRegistry().enabled

    def test_global_helpers_share_one_registry(self):
        profile.reset()
        profile.enable(True)
        try:
            with profile.profile_stage("tick"):
                pass
            profile.record_stage("io", 0.25)
            assert set(profile.flatten()) == {
                "profile_tick_s", "profile_tick_self_s",
                "profile_tick_calls", "profile_io_s",
                "profile_io_self_s", "profile_io_calls"}
            profile.reset()
            assert profile.flatten() == {}
        finally:
            profile.enable(False)
            profile.reset()

    def test_record_stage_noop_when_disabled(self):
        profile.reset()
        profile.enable(False)
        profile.record_stage("tick", 1.0)
        assert len(profile.get_registry()) == 0

    def test_perf_now_is_the_monotonic_performance_clock(self):
        assert perf_now is time.perf_counter
