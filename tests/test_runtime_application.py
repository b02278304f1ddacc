"""Tests for the on-machine event-driven neural application (Fig 7, Sec 5.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import latency_summary
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector, OneToOneConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourceArray, SpikeSourcePoisson
from repro.runtime.application import ApplicationResult, NeuralApplication
from repro.runtime.boot import BootController


def machine_with_boot(width=3, height=3, cores=6):
    machine = SpiNNakerMachine(MachineConfig(width=width, height=height,
                                             cores_per_chip=cores))
    BootController(machine, seed=1).boot()
    return machine


def feedforward_network(seed=21, n=40, rate=80.0, weight=5.0):
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(n, rate_hz=rate, label="ff-stim")
    target = Population(n, "lif", label="ff-target")
    target.record(spikes=True)
    network.connect(stimulus, target, OneToOneConnector(weight=weight,
                                                        delay_ticks=1))
    return network


class TestTickCount:
    """A run of ``d`` ms executes exactly ``d / timestep`` ticks on every
    core.  Regression: the periodic timer re-armed at ``now + period``
    (accumulating float error) while the run ended at ``now + d``, so on
    a booted machine (``kernel.now`` is not a round number) some
    durations silently dropped every core's final tick."""

    @pytest.mark.parametrize("stagger_us", [0.0, 10.0])
    @pytest.mark.parametrize("transport", ["event", "fabric"])
    def test_every_duration_runs_every_tick(self, transport, stagger_us):
        for duration in range(1, 131):
            machine = machine_with_boot(2, 2, 4)
            assert machine.kernel.now != round(machine.kernel.now)
            application = NeuralApplication(
                machine, feedforward_network(n=12, rate=20.0),
                max_neurons_per_core=6, seed=2, transport=transport,
                stagger_us=stagger_us)
            application.run(float(duration))
            ticks = [runtime.tick for runtime in application.core_runtimes]
            assert ticks == [duration] * 4, (duration, ticks)


class TestMappingAndExecution:
    def test_application_produces_spikes(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=2)
        result = application.run(100.0)
        assert result.total_spikes("ff-target") > 0
        assert result.packets_sent > 0

    def test_all_spike_packets_matched_to_synaptic_rows(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=2)
        application.run(50.0)
        assert application.unmatched_packets == 0

    def test_delivery_latency_well_under_one_millisecond(self):
        # Section 5.3: "the communications fabric is designed to deliver mc
        # packets in significantly under 1 ms, whatever the distance".
        machine = machine_with_boot(4, 4, 6)
        application = NeuralApplication(machine, feedforward_network(n=60),
                                        max_neurons_per_core=8, seed=3)
        result = application.run(100.0)
        summary = latency_summary(result.delivery_latencies_us)
        assert summary.count > 100
        assert summary.max_us < 1000.0
        assert summary.p99_us < 200.0

    def test_no_packets_dropped_in_light_load(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=4)
        result = application.run(100.0)
        assert result.packets_dropped == 0
        assert result.within_deadline_fraction(1000.0) == 1.0

    def test_on_machine_rate_close_to_reference_simulator(self):
        # The on-machine execution and the host reference simulator share
        # neuron models and soft-delay semantics, so their mean firing
        # rates for the same network and seed must agree closely.
        network_machine = feedforward_network(seed=33)
        network_reference = feedforward_network(seed=33)

        reference = network_reference.run(400.0)
        machine = machine_with_boot()
        application = NeuralApplication(machine, network_machine,
                                        max_neurons_per_core=16, seed=33)
        on_machine = application.run(400.0)

        reference_rate = reference.mean_rate_hz("ff-target")
        machine_rate = on_machine.mean_rate_hz("ff-target")
        assert reference_rate > 0
        assert abs(machine_rate - reference_rate) / reference_rate < 0.35

    def test_recurrent_network_runs_and_delivers(self):
        machine = machine_with_boot(4, 4, 6)
        network = Network(seed=8)
        stimulus = SpikeSourcePoisson(50, rate_hz=60.0, label="rec-stim")
        excitatory = Population(100, "lif", label="rec-exc")
        excitatory.record()
        network.connect(stimulus, excitatory,
                        FixedProbabilityConnector(0.2, weight=0.8,
                                                  delay_range=(1, 8)))
        network.connect(excitatory, excitatory,
                        FixedProbabilityConnector(0.05, weight=0.3))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=16, seed=8)
        result = application.run(150.0)
        assert result.total_spikes("rec-exc") > 0
        assert result.packets_dropped == 0

    def test_spike_source_array_replayed_on_machine(self):
        machine = machine_with_boot(2, 2, 4)
        network = Network(seed=5)
        times = [[5.0, 20.0], [10.0]]
        source = SpikeSourceArray(times, label="arr-src")
        target = Population(2, "lif", label="arr-target")
        target.record()
        network.connect(source, target, OneToOneConnector(weight=10.0))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=4, seed=5)
        result = application.run(50.0)
        # Three source spikes must produce exactly three packets.
        assert result.packets_sent >= 3
        assert result.total_spikes("arr-target") >= 1

    def test_spike_records_use_global_indices(self):
        machine = machine_with_boot()
        network = feedforward_network(n=40)
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=8, seed=6)
        result = application.run(100.0)
        neurons = {neuron for _, neuron in result.spikes["ff-target"]}
        assert max(neurons) >= 8   # beyond the first vertex slice

    def test_second_run_appends_to_the_collected_trains(self):
        # ``collect()`` materialises the recorded trains; a reference to
        # them read then must see a second run's spikes appended behind
        # the first's, in time order, and equal one long run's.
        def application():
            return NeuralApplication(machine_with_boot(),
                                     feedforward_network(),
                                     max_neurons_per_core=16, seed=2,
                                     stagger_us=0.0)

        split = application()
        trains = split.run(40.0).spikes["ff-target"]
        first = list(trains)
        assert first and max(time for time, _ in first) < 40.0
        assert split.run(40.0).spikes["ff-target"] is trains
        assert trains[:len(first)] == first
        assert min(time for time, _ in trains[len(first):]) >= 40.0
        assert [time for time, _ in trains] == sorted(
            time for time, _ in trains)
        whole = application().run(80.0)
        assert sorted(trains) == sorted(whole.spikes["ff-target"])
        assert split.result.duration_ms == 80.0

    def test_negative_duration_rejected(self):
        machine = machine_with_boot(2, 2, 4)
        application = NeuralApplication(machine, feedforward_network(n=8),
                                        max_neurons_per_core=8)
        application.prepare()
        with pytest.raises(ValueError):
            application.run(-1.0)

    def test_result_helpers(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=7)
        result = application.run(100.0)
        assert result.total_spikes() >= result.total_spikes("ff-target")
        assert result.mean_delivery_latency_us() <= result.max_delivery_latency_us()


class TestPrepareReentrancy:
    def test_second_prepare_is_a_guarded_no_op(self):
        # Regression: a second prepare() used to run the whole tool-chain
        # again, double-appending core runtimes (every vertex then fired
        # twice per timer tick) and re-seeding the per-core generators
        # from a fresh stream.
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=2)
        application.prepare()
        n_runtimes = len(application.core_runtimes)
        placement = application.placement
        keys = application.keys
        application.prepare()
        assert len(application.core_runtimes) == n_runtimes
        assert application.placement is placement
        assert application.keys is keys
        result = application.run(50.0)
        assert result.total_spikes("ff-target") > 0

    def test_run_after_explicit_prepare_matches_implicit(self):
        def outcome(explicit):
            machine = machine_with_boot()
            application = NeuralApplication(machine, feedforward_network(),
                                            max_neurons_per_core=16, seed=2,
                                            stagger_us=0.0)
            if explicit:
                application.prepare()
                application.prepare()
            return application.run(60.0)
        implicit, explicit = outcome(False), outcome(True)
        assert implicit.spikes == explicit.spikes
        assert implicit.packets_sent == explicit.packets_sent


class TestPerCoreRNGDerivation:
    def test_spike_trains_independent_of_placement_iteration_order(self):
        # The per-core generators are derived from (chip, core) via the
        # shared seed-sequence family, not from the iteration order of
        # placement.locations — so a tool-chain that happens to iterate
        # the dict differently builds the exact same machine state.
        from repro.mapping.placement import Placer

        def run(reverse):
            original = Placer.place

            def reversed_place(self, network, partition=None):
                placement = original(self, network, partition)
                if reverse:
                    placement.locations = dict(
                        reversed(list(placement.locations.items())))
                return placement

            Placer.place = reversed_place
            try:
                machine = machine_with_boot()
                application = NeuralApplication(
                    machine, feedforward_network(), max_neurons_per_core=8,
                    seed=9, stagger_us=0.0)
                return application.run(80.0)
            finally:
                Placer.place = original

        forward, backward = run(False), run(True)
        for label in forward.spike_counts:
            assert np.array_equal(forward.spike_counts[label],
                                  backward.spike_counts[label])
        for label in forward.spikes:
            assert (sorted(forward.spikes[label])
                    == sorted(backward.spikes[label]))

    def test_same_core_gets_same_stream_across_placement_strategies(self):
        # Determinism across strategies: whatever strategy placed a
        # vertex on a core, that core's generator is a pure function of
        # the seed and its coordinates.
        from repro.neuron.population import core_rng
        machines = {}
        for strategy in ("locality", "round-robin"):
            machine = machine_with_boot()
            application = NeuralApplication(
                machine, feedforward_network(), max_neurons_per_core=8,
                seed=11, placement_strategy=strategy, stagger_us=0.0)
            application.prepare()
            machines[strategy] = {
                (r.chip_coordinate, r.core.core_id): r
                for r in application.core_runtimes}
        shared = set(machines["locality"]) & set(machines["round-robin"])
        assert shared
        for chip, core in shared:
            expected = core_rng(11, chip.x, chip.y, core)
            probes = [core_rng(11, chip.x, chip.y, core).random(4)
                      for _ in range(2)]
            assert np.array_equal(probes[0], probes[1])
            assert np.array_equal(expected.random(4), probes[0])

    def test_seeded_runs_are_reproducible(self):
        def run():
            machine = machine_with_boot()
            application = NeuralApplication(machine, feedforward_network(),
                                            max_neurons_per_core=8, seed=13)
            return application.run(80.0)
        first, second = run(), run()
        assert first.spikes == second.spikes
        assert first.delivered_charge_na == second.delivered_charge_na


class TestApplicationResultEdgeCases:
    def test_empty_run_latency_statistics(self):
        result = ApplicationResult(duration_ms=0.0)
        assert result.within_deadline_fraction() == 1.0
        assert result.within_deadline_fraction(0.0) == 1.0
        assert result.mean_delivery_latency_us() == 0.0
        assert result.max_delivery_latency_us() == 0.0
        assert len(result.delivery_latencies_us) == 0
        assert len(result.delivery_distances) == 0

    def test_total_spikes_unknown_label_raises(self):
        result = ApplicationResult(duration_ms=10.0)
        result.spike_counts["known"] = np.zeros(4, dtype=int)
        with pytest.raises(KeyError, match="unknown population label"):
            result.total_spikes("unknown")
        assert result.total_spikes("known") == 0
        assert result.total_spikes() == 0

    def test_record_delivery_count_matches_scalar_records(self):
        batched = ApplicationResult(duration_ms=10.0)
        scalar = ApplicationResult(duration_ms=10.0)
        batched.record_delivery(12.5, 3, count=4)
        for _ in range(4):
            scalar.record_delivery(12.5, 3)
        assert np.array_equal(batched.delivery_latencies_us,
                              scalar.delivery_latencies_us)
        assert np.array_equal(batched.delivery_distances,
                              scalar.delivery_distances)
        assert batched.within_deadline_fraction(12.5) == 1.0
        assert batched.within_deadline_fraction(12.0) == 0.0
        # Readers get copies: an array taken earlier neither grows nor
        # sees later records.
        latencies = batched.delivery_latencies_us
        latencies[0] = -1.0
        batched.record_delivery(1.0, 1)
        assert latencies.tolist() == [-1.0, 12.5, 12.5, 12.5]
        assert batched.delivery_latencies_us.tolist() == [12.5] * 4 + [1.0]

    def test_delivery_without_distance_stays_aligned(self):
        from repro.runtime.application import UNKNOWN_DISTANCE

        result = ApplicationResult(duration_ms=10.0)
        result.record_delivery(4.0)
        result.record_delivery(8.0, distance=2)
        # A sourceless packet records the sentinel, never desynchronizing
        # the latency/distance pairing.
        assert len(result.delivery_latencies_us) == 2
        assert len(result.delivery_distances) == 2
        assert list(result.delivery_distances) == [UNKNOWN_DISTANCE, 2]
        assert result.mean_delivery_latency_us() == pytest.approx(6.0)


class TestEventModelAccounting:
    def test_cores_spend_time_in_handlers_and_sleep(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=9)
        application.run(100.0)
        busy = [runtime.core.busy_time_us for runtime in application.core_runtimes]
        assert all(b > 0 for b in busy)
        elapsed = machine.kernel.now
        assert all(core_busy < elapsed for core_busy in busy)

    def test_timer_invocations_match_duration(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=10)
        application.run(100.0)
        for runtime in application.core_runtimes:
            assert 95 <= runtime.core.handler_invocations["timer"] <= 101

    def test_dma_traffic_generated_by_spike_packets(self):
        machine = machine_with_boot()
        application = NeuralApplication(machine, feedforward_network(),
                                        max_neurons_per_core=16, seed=11)
        result = application.run(100.0)
        dma_transfers = sum(runtime.core.dma.completed_transfers
                            for runtime in application.core_runtimes)
        assert dma_transfers > 0
        assert dma_transfers == len(result.delivery_latencies_us)
