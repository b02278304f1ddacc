"""Unit tests for connectors, populations, projections, the reference
simulator and STDP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neuron.connectors import (
    AllToAllConnector,
    DistanceDependentConnector,
    FixedProbabilityConnector,
    FromListConnector,
    OneToOneConnector,
)
from repro.neuron.izhikevich import IzhikevichParameters
from repro.neuron.lif import LIFParameters
from repro.neuron.network import Network
from repro.neuron.population import (
    Population,
    Projection,
    SpikeSourceArray,
    SpikeSourcePoisson,
)
from repro.neuron.engine import CSRMatrix
from repro.neuron.stdp import STDPMechanism, STDPParameters
from repro.neuron.synapse import WEIGHT_SATURATION_NA, DeferredEventBuffer

from oracles import csr_rows


def build(connector, n_pre, n_post, rng):
    """Expand through the shipped path, viewed as per-source rows."""
    return csr_rows(connector.build_csr(n_pre, n_post, rng))


def total(rows) -> int:
    return sum(len(row) for row in rows.values())


class TestConnectors:
    def test_one_to_one_pairs_indices(self, rng):
        rows = build(OneToOneConnector(weight=2.0), 5, 5, rng)
        assert all(rows[i][0].target == i for i in range(5))

    def test_one_to_one_truncates_to_smaller_population(self, rng):
        rows = build(OneToOneConnector(), 10, 3, rng)
        assert total(rows) == 3
        assert all(len(rows[i]) == (1 if i < 3 else 0) for i in range(10))

    def test_all_to_all_counts(self, rng):
        assert total(build(AllToAllConnector(), 4, 6, rng)) == 24

    def test_all_to_all_no_self_connections(self, rng):
        rows = build(AllToAllConnector(allow_self_connections=False),
                     4, 4, rng)
        assert total(rows) == 12
        assert all(s.target != pre for pre, row in rows.items() for s in row)

    def test_fixed_probability_density(self, rng):
        connector = FixedProbabilityConnector(p_connect=0.25)
        assert 2000 < total(build(connector, 100, 100, rng)) < 3000

    def test_fixed_probability_zero_and_one(self, rng):
        assert total(build(FixedProbabilityConnector(0.0), 20, 20, rng)) == 0
        assert total(build(FixedProbabilityConnector(1.0), 20, 20,
                           rng)) == 400

    def test_fixed_probability_delay_range_sampled(self, rng):
        connector = FixedProbabilityConnector(p_connect=1.0, delay_range=(2, 6))
        rows = build(connector, 10, 10, rng)
        delays = {s.delay_ticks for row in rows.values() for s in row}
        assert delays <= set(range(2, 7))
        assert len(delays) > 1

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            FixedProbabilityConnector(p_connect=1.5)

    def test_distance_dependent_prefers_local_targets(self, rng):
        connector = DistanceDependentConnector(
            pre_shape=(8, 8), post_shape=(8, 8), sigma=1.0, max_distance=3.0,
            p_peak=1.0)
        rows = build(connector, 64, 64, rng)
        # The centre neuron must connect to itself (distance zero) with the
        # minimum delay, and never beyond the cutoff distance.
        centre = 8 * 4 + 4
        targets = {s.target for s in rows[centre]}
        assert centre in targets
        for synapse in rows[centre]:
            target_position = (synapse.target // 8, synapse.target % 8)
            distance = np.hypot(target_position[0] - 4, target_position[1] - 4)
            assert distance <= 3.0

    def test_distance_dependent_delay_grows_with_distance(self, rng):
        connector = DistanceDependentConnector(
            pre_shape=(6, 6), post_shape=(6, 6), sigma=10.0, max_distance=5.0,
            p_peak=1.0, delay_per_unit_distance_ticks=2.0)
        rows = build(connector, 36, 36, rng)
        centre = 6 * 3 + 3
        by_distance = {}
        for synapse in rows[centre]:
            position = (synapse.target // 6, synapse.target % 6)
            distance = round(np.hypot(position[0] - 3, position[1] - 3), 3)
            by_distance[distance] = synapse.delay_ticks
        assert by_distance[0.0] < by_distance[max(by_distance)]

    def test_distance_dependent_shape_validation(self, rng):
        connector = DistanceDependentConnector(pre_shape=(2, 2), post_shape=(2, 2))
        with pytest.raises(ValueError):
            connector.build_csr(10, 4, rng)

    def test_from_list_connector(self, rng):
        connector = FromListConnector([(0, 1, 0.5, 2), (0, 2, -0.25, 3)])
        rows = build(connector, 4, 4, rng)
        assert len(rows[0]) == 2
        with pytest.raises(IndexError):
            FromListConnector([(9, 0, 1.0, 1)]).build_csr(4, 4, rng)
        with pytest.raises(IndexError):
            FromListConnector([(0, 9, 1.0, 1)]).build_csr(4, 4, rng)


class TestPopulations:
    def test_model_selection_by_name(self):
        assert Population(5, "lif").model_name == "lif"
        assert Population(5, "izhikevich").model_name == "izhikevich"
        with pytest.raises(ValueError):
            Population(5, "hodgkin-huxley")

    def test_model_selection_by_parameters(self):
        assert Population(5, LIFParameters()).model_name == "lif"
        assert Population(5, IzhikevichParameters()).model_name == "izhikevich"
        with pytest.raises(TypeError):
            Population(5, model=3.14)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Population(0)

    def test_poisson_source_rate(self, rng):
        source = SpikeSourcePoisson(1000, rate_hz=100.0)
        spikes = source.spikes_for_tick(1.0, rng)
        assert 50 < spikes.sum() < 170

    def test_poisson_probability_is_exponential_not_linear(self):
        # Regression: rate * dt / 1000 is not a probability — it exceeds 1
        # for rates above 1 kHz at the 1 ms tick.
        assert SpikeSourcePoisson.spike_probability(100.0, 1.0) == \
            pytest.approx(1.0 - np.exp(-0.1))
        assert SpikeSourcePoisson.spike_probability(2000.0, 1.0) == \
            pytest.approx(1.0 - np.exp(-2.0))
        assert SpikeSourcePoisson.spike_probability(5000.0, 1.0) < 1.0
        assert SpikeSourcePoisson.spike_probability(1_000_000.0, 1.0) <= 1.0

    def test_poisson_source_saturates_below_one_spike_per_tick(self, rng):
        # A 5 kHz "rate" can at most fire every tick (1 kHz effective); the
        # old linear probability would have claimed p = 5.
        source = SpikeSourcePoisson(2000, rate_hz=5000.0)
        spikes = source.spikes_for_tick(1.0, rng)
        expected = 2000 * (1.0 - np.exp(-5.0))
        assert abs(spikes.sum() - expected) < 60

    def test_spike_source_array_replays_times(self):
        source = SpikeSourceArray([[0.5, 2.5], [], [1.5]])
        assert source.spikes_for_tick(0, 1.0).tolist() == [True, False, False]
        assert source.spikes_for_tick(1, 1.0).tolist() == [False, False, True]
        assert source.spikes_for_tick(2, 1.0).tolist() == [True, False, False]

    def test_projection_expansion_cached(self, rng):
        pre, post = Population(10, label="pre-cache"), Population(10, label="post-cache")
        projection = Projection(pre, post, FixedProbabilityConnector(0.5))
        first = projection.compile_csr(None, 0)
        second = projection.compile_csr(None, 0)
        assert first is second


class TestNetworkSimulation:
    def test_duplicate_labels_rejected(self):
        network = Network()
        network.add_population(Population(5, label="duplicated"))
        with pytest.raises(ValueError):
            network.add_population(Population(5, label="duplicated"))

    def test_lookup_by_label(self):
        network = Network()
        population = Population(5, label="lookup-me")
        network.add_population(population)
        assert network.population("lookup-me") is population
        with pytest.raises(KeyError):
            network.population("missing")

    def test_connect_adds_endpoints(self):
        network = Network()
        a, b = Population(5, label="a"), Population(5, label="b")
        network.connect(a, b, OneToOneConnector())
        assert len(network.populations) == 2
        assert network.n_neurons == 10

    def test_feedforward_drive_produces_spikes(self):
        network = Network(seed=3)
        stimulus = SpikeSourcePoisson(50, rate_hz=100.0, label="stim")
        target = Population(50, "lif", label="target")
        target.record(spikes=True)
        network.connect(stimulus, target, OneToOneConnector(weight=5.0))
        result = network.run(200.0)
        assert result.total_spikes("target") > 0
        assert result.mean_rate_hz("target") > 0.0
        assert len(result.spikes["target"]) == result.total_spikes("target")

    def test_unconnected_population_stays_silent(self):
        network = Network(seed=4)
        silent = Population(20, "lif", label="silent")
        network.add_population(silent)
        result = network.run(100.0)
        assert result.total_spikes("silent") == 0

    def test_inhibition_reduces_activity(self):
        def build(inhibitory_weight):
            network = Network(seed=5)
            stimulus = SpikeSourcePoisson(50, rate_hz=120.0, label="stim")
            excitatory = Population(50, "lif", label="exc")
            inhibitory = Population(50, "lif", label="inh")
            network.connect(stimulus, excitatory, OneToOneConnector(weight=3.0))
            network.connect(stimulus, inhibitory, OneToOneConnector(weight=3.0))
            network.connect(inhibitory, excitatory,
                            FixedProbabilityConnector(0.3,
                                                      weight=inhibitory_weight))
            return network.run(200.0).total_spikes("exc")

        assert build(-3.0) < build(0.0)

    def test_voltage_recording_shape(self):
        network = Network(seed=6)
        population = Population(10, "lif", label="volts")
        population.record(spikes=False, voltages=True)
        population.bias_current_na = 1.0
        network.add_population(population)
        result = network.run(50.0)
        assert result.voltages["volts"].shape == (50, 10)

    def test_same_seed_reproduces_run(self):
        def run_once():
            network = Network(seed=42)
            stimulus = SpikeSourcePoisson(30, rate_hz=80.0, label="stim")
            target = Population(30, "lif", label="target")
            network.connect(stimulus, target, OneToOneConnector(weight=4.0))
            return network.run(100.0).total_spikes("target")

        assert run_once() == run_once()

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Network().run(-1.0)

    def test_n_synapses_counts_all_projections(self, rng):
        network = Network(seed=1)
        a, b = Population(10, label="na"), Population(10, label="nb")
        network.connect(a, b, AllToAllConnector())
        network.connect(b, a, OneToOneConnector())
        assert network.n_synapses() == 110

    def test_charge_arrives_after_its_delay_at_its_target(self):
        """A host synapse is ring offset ``delay * width + column``: one
        source spike through delays 1..16 onto a population whose
        columns start past another's reaches exactly the addressed
        neurons, each first firing one tick later per tick of delay."""
        network = Network(seed=10)
        bystander = Population(5, "lif", label="bystander")
        bystander.record(spikes=True)
        network.add_population(bystander)
        source = SpikeSourceArray([[0.0]], label="src")
        target = Population(16, "lif", label="tgt")
        target.record(spikes=True)
        network.connect(source, target, FromListConnector(
            [(0, neuron, 100.0, neuron + 1) for neuron in range(16)]))
        result = network.run(25.0)
        first = {}
        for time_ms, neuron in result.spikes["tgt"]:
            first.setdefault(neuron, time_ms)
        assert sorted(first) == list(range(16))
        assert len({time_ms - neuron for neuron, time_ms
                    in first.items()}) == 1
        assert result.total_spikes("bystander") == 0

    def test_one_ring_update_per_tick(self, monkeypatch):
        """Every projection's events of a tick reach the ring in one
        call, so the calls are the ticks that delivered anything — at
        most one a tick, however many projections there are."""
        calls = []
        add_events = DeferredEventBuffer.add_events

        def counted(ring, offsets, weights):
            calls.append((ring.current_tick, len(offsets)))
            add_events(ring, offsets, weights)

        monkeypatch.setattr(DeferredEventBuffer, "add_events", counted)
        network = Network(seed=8)
        stimulus = SpikeSourcePoisson(40, rate_hz=60.0, label="stim")
        a = Population(40, "lif", label="a")
        b = Population(30, "izhikevich", label="b")
        network.connect(stimulus, a, FixedProbabilityConnector(
            0.2, weight=2.0, delay_range=(1, 5)))
        network.connect(stimulus, b, FixedProbabilityConnector(0.2,
                                                               weight=2.0))
        network.connect(a, b, FixedProbabilityConnector(0.3, weight=1.0))
        network.connect(b, a, FixedProbabilityConnector(0.3, weight=-1.0))
        network.run(100.0)
        ticks = {tick for tick, size in calls if size}
        assert len(ticks) > 50
        assert len(calls) == len(ticks) <= 100

    def test_saturation_clamps_the_tick_sum(self, monkeypatch):
        """The ring clamps a cell once, as its tick drains it, over every
        projection's events: +3000 then -500 nA lands on clamp(2500), one
        saturation; +3000 then -1500 nA lands on 1500, none."""
        drained = []
        drain = DeferredEventBuffer.drain

        def recorded(ring):
            drained.append((ring, drain(ring)))
            return drained[-1][1]

        monkeypatch.setattr(DeferredEventBuffer, "drain", recorded)
        network = Network(seed=9)
        source = SpikeSourceArray([[0.0]], label="src")
        target = Population(2, "lif", label="tgt")
        network.connect(source, target, FromListConnector(
            [(0, cell, 1500.0, 1) for cell in (0, 0, 1, 1)]))
        network.connect(source, target, FromListConnector(
            [(0, 0, -500.0, 1), (0, 1, -1500.0, 1)]))
        network.run(4.0)
        ring, inputs = next((ring, row) for ring, row in drained if row.any())
        assert inputs[:2].tolist() == [WEIGHT_SATURATION_NA, 1500.0]
        assert ring.saturations == 1


class TestSTDP:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            STDPParameters(tau_plus_ms=0.0)
        with pytest.raises(ValueError):
            STDPParameters(w_min=1.0, w_max=0.5)

    @staticmethod
    def one_synapse(weight) -> CSRMatrix:
        return CSRMatrix(1, 1, np.array([0, 1]), np.array([0]),
                         np.array([weight]), np.array([1]))

    def test_pre_before_post_potentiates(self):
        mechanism = STDPMechanism(1, 1)
        csr = self.one_synapse(1.0)
        pre = np.array([True]); none = np.array([False])
        post = np.array([True])
        mechanism.update_csr(csr, pre, none, 0.0)     # pre fires at t=0
        mechanism.update_csr(csr, none, post, 1.0)    # post at t=1
        assert csr.weights[0] > 1.0
        assert mechanism.potentiation_events == 1

    def test_post_before_pre_depresses(self):
        mechanism = STDPMechanism(1, 1)
        csr = self.one_synapse(1.0)
        mechanism.update_csr(csr, np.array([False]), np.array([True]), 0.0)
        mechanism.update_csr(csr, np.array([True]), np.array([False]), 1.0)
        assert csr.weights[0] < 1.0
        assert mechanism.depression_events == 1

    def test_weights_stay_within_bounds(self):
        parameters = STDPParameters(a_plus=1.0, a_minus=1.0, w_min=0.0, w_max=2.0)
        mechanism = STDPMechanism(1, 1, parameters)
        csr = self.one_synapse(1.9)
        for _ in range(20):
            mechanism.update_csr(csr, np.array([True]), np.array([False]),
                                 0.0)
            mechanism.update_csr(csr, np.array([False]), np.array([True]),
                                 1.0)
        assert 0.0 <= csr.weights[0] <= 2.0

    def test_mean_weight_helper(self):
        mechanism = STDPMechanism(2, 2)
        csr = CSRMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]),
                        np.array([1.0, 3.0]), np.array([1, 1]))
        assert mechanism.mean_weight(csr) == pytest.approx(2.0)
        empty = CSRMatrix(2, 2, np.zeros(3, dtype=int), np.array([], int),
                          np.array([]), np.array([], int))
        assert mechanism.mean_weight(empty) == 0.0

    def test_stdp_in_network_changes_weights(self):
        network = Network(seed=9)
        stimulus = SpikeSourcePoisson(20, rate_hz=80.0, label="stdp-stim")
        target = Population(20, "lif", label="stdp-target")
        plasticity = STDPMechanism(20, 20)
        projection = network.connect(stimulus, target,
                                     OneToOneConnector(weight=3.0),
                                     plasticity=plasticity)
        network.run(300.0)
        # The learned state is the seed's cached expansion itself.
        weights = projection.compile_csr(9, 0).weights
        assert any(abs(w - 3.0) > 1e-6 for w in weights)
        assert plasticity.rows_modified > 0
