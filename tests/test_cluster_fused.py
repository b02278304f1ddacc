"""Equivalence and unit tests for the board engine.

The fused engine (:mod:`repro.cluster.fused`) is a performance
transform, not a new semantics: every cluster run must equal the
independent unsharded engine — ``NeuralApplication(transport="fabric",
stagger_us=0)``, which delivers per (key, core) leg through per-core
rings under the event kernel — in spike trains, counts and counters,
whatever the neuron model mix, worker count, lookahead depth or
plasticity setting.  This module pins that matrix and unit-tests the two
structures the engine leans on: the shared
:class:`~repro.neuron.synapse.FusedDeferredEventBuffer` ring and the
:class:`~repro.compile.context.BoardDeliveryIndex` arena.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import ScalarRing
from repro.cluster import ClusterApplication, ExchangePlan, FusedBoardEngine
from repro.compile.context import BoardDeliveryIndex
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import (
    AllToAllConnector,
    FixedProbabilityConnector,
    FromListConnector,
)
from repro.neuron.engine import expand_rows
from repro.neuron.network import Network
from repro.neuron.population import (
    Population,
    SpikeSourceArray,
    SpikeSourcePoisson,
)
from repro.neuron.stdp import STDPMechanism
from repro.neuron.synapse import (
    MAX_DELAY_TICKS,
    WEIGHT_SATURATION_NA,
    FusedDeferredEventBuffer,
)
from repro.runtime.application import ApplicationResult, NeuralApplication
from repro.runtime.boot import BootController

SEED = 11


# ----------------------------------------------------------------------
# Fixtures: one machine, four representative networks
# ----------------------------------------------------------------------
def cluster_machine() -> SpiNNakerMachine:
    machine = SpiNNakerMachine(MachineConfig.multi_board(
        2, 2, board_width=4, board_height=3, cores_per_chip=4))
    BootController(machine, seed=1).boot()
    return machine


def lif_network() -> Network:
    """Poisson->LIF pairs chained in a ring (cross-board traffic)."""
    network = Network(seed=SEED)
    excitatory = []
    for pair in range(3):
        stimulus = SpikeSourcePoisson(64, rate_hz=50.0,
                                      label="f-stim-%d" % pair)
        population = Population(64, "lif", label="f-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.3, weight=0.9,
                                                  delay_range=(1, 6)))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        network.connect(population,
                        excitatory[(index + 1) % len(excitatory)],
                        FixedProbabilityConnector(0.15, weight=0.5,
                                                  delay_range=(1, 12)))
    return network


def izhikevich_network() -> Network:
    """Poisson->Izhikevich ring: exercises the quadratic block."""
    network = Network(seed=SEED)
    bursting = []
    for pair in range(3):
        stimulus = SpikeSourcePoisson(48, rate_hz=80.0,
                                      label="z-stim-%d" % pair)
        population = Population(48, "izhikevich", label="z-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.3, weight=1.4,
                                                  delay_range=(1, 6)))
        bursting.append(population)
    for index, population in enumerate(bursting):
        network.connect(population,
                        bursting[(index + 1) % len(bursting)],
                        FixedProbabilityConnector(0.15, weight=0.8,
                                                  delay_range=(1, 8)))
    return network


def mixed_network() -> Network:
    """LIF + Izhikevich + Poisson + array source + inhibition in one
    net: every engine path (both blocks, both source kinds)."""
    network = Network(seed=SEED)
    poisson = SpikeSourcePoisson(48, rate_hz=60.0, label="m-stim")
    replay = SpikeSourceArray(
        [[float(t) for t in range(2 + (i % 5), 80, 7)] for i in range(48)],
        label="m-replay")
    excitatory = Population(96, "lif", label="m-exc")
    excitatory.bias_current_na = 0.15
    inhibitory = Population(48, "izhikevich", label="m-inh")
    excitatory.record(spikes=True)
    inhibitory.record(spikes=True)
    network.connect(poisson, excitatory,
                    FixedProbabilityConnector(0.25, weight=1.0,
                                              delay_range=(1, 8)))
    network.connect(replay, excitatory,
                    FixedProbabilityConnector(0.2, weight=0.7,
                                              delay_range=(1, 4)))
    network.connect(excitatory, inhibitory,
                    FixedProbabilityConnector(0.2, weight=0.8,
                                              delay_range=(1, 4)))
    network.connect(inhibitory, excitatory,
                    FixedProbabilityConnector(0.3, weight=-0.9))
    return network


def stdp_network() -> Network:
    """The LIF ring with a plasticity mechanism attached to its input
    projections — the cluster compiles plastic projections through the
    same decoded synaptic blocks the fabric engine replays."""
    network = Network(seed=SEED)
    excitatory = []
    for pair in range(3):
        stimulus = SpikeSourcePoisson(64, rate_hz=50.0,
                                      label="p-stim-%d" % pair)
        population = Population(64, "lif", label="p-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.3, weight=0.9,
                                                  delay_range=(1, 6)),
                        plasticity=STDPMechanism(64, 64))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        network.connect(population,
                        excitatory[(index + 1) % len(excitatory)],
                        FixedProbabilityConnector(0.15, weight=0.5,
                                                  delay_range=(1, 12)))
    return network


NETWORKS = {
    "lif": lif_network,
    "izhikevich": izhikevich_network,
    "mixed": mixed_network,
    "stdp": stdp_network,
}

DURATION_MS = 80.0


def run_cluster(name: str, workers: int, lookahead):
    cluster = ClusterApplication(cluster_machine(), NETWORKS[name](),
                                 seed=SEED, max_neurons_per_core=32)
    return cluster.run(DURATION_MS, workers=workers, lookahead=lookahead)


_fabric_references = {}
_serial_references = {}


def fabric_reference(name: str):
    """The unsharded on-machine run every cluster run must reproduce."""
    if name not in _fabric_references:
        application = NeuralApplication(
            cluster_machine(), NETWORKS[name](), max_neurons_per_core=32,
            seed=SEED, transport="fabric", stagger_us=0.0)
        result = application.run(DURATION_MS)
        assert all(runtime.tick == int(DURATION_MS)
                   for runtime in application.core_runtimes)
        # Every packet finds its block, as every shard leg has one.
        assert application.unmatched_packets == 0
        _fabric_references[name] = result
    return _fabric_references[name]


def serial_reference(name: str, lookahead):
    """The ``workers=1`` cluster run (cached), for recording order."""
    key = (name, lookahead)
    if key not in _serial_references:
        _serial_references[key] = run_cluster(name, 1, lookahead)
    return _serial_references[key]


def assert_equivalent(sharded: ApplicationResult,
                      reference: ApplicationResult) -> None:
    """Same trains (the engines record a tick's spikes in different
    core orders), same counts, same counters."""
    assert reference.total_spikes() > 0
    assert set(sharded.spikes) == set(reference.spikes)
    for label in reference.spikes:
        assert sorted(sharded.spikes[label]) == sorted(
            reference.spikes[label]), label
    assert set(sharded.spike_counts) == set(reference.spike_counts)
    for label in reference.spike_counts:
        assert np.array_equal(sharded.spike_counts[label],
                              reference.spike_counts[label])
    assert sharded.synaptic_events == reference.synaptic_events
    assert sharded.delivered_charge_na == reference.delivered_charge_na
    assert sharded.packets_sent == reference.packets_sent


# ----------------------------------------------------------------------
# The equivalence matrix: models x workers x lookahead x plasticity
# ----------------------------------------------------------------------
class TestFusedEquivalence:
    @pytest.mark.parametrize("lookahead", [1, None])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_fused_matches_the_fabric_engine(self, name, workers, lookahead):
        fused = run_cluster(name, workers, lookahead)
        assert_equivalent(fused, fabric_reference(name))
        # Recording order too is independent of the worker count.
        assert fused.spikes == serial_reference(name, lookahead).spikes


# ----------------------------------------------------------------------
# Generated networks: every engine, one answer per weight domain
# ----------------------------------------------------------------------
def generated_network(draw: np.random.Generator) -> Network:
    """A drawn network with every feature the tick kernel handles:
    ragged sizes, both models, biases, both source kinds, inhibition, a
    projection onto a source, and a hub-heavy explicit wiring — a few
    sources carrying most of the synapses (the degree sequence
    arXiv:0908.0976 shows behaves unlike a uniform graph of the same
    density), with weights heavy enough to saturate ring cells.
    """
    def size() -> int:
        return int(draw.integers(20, 70))

    def model():
        return str(draw.choice(["lif", "izhikevich"]))

    network = Network(seed=int(draw.integers(1, 1000)))
    poisson = SpikeSourcePoisson(size(), rate_hz=float(draw.uniform(40, 90)),
                                 label="g-poisson")
    replay = SpikeSourceArray(
        [[float(t) for t in range(int(draw.integers(0, 6)), 50,
                                  int(draw.integers(3, 9)))]
         for _ in range(size())], label="g-replay")
    excitatory = Population(size(), model(), label="g-exc")
    inhibitory = Population(size(), model(), label="g-inh")
    hubs = Population(size(), "lif", label="g-hubs")
    flooded = Population(size(), model(), label="g-flooded")
    excitatory.bias_current_na = float(draw.uniform(0.5, 1.2))
    hubs.bias_current_na = float(draw.uniform(3.0, 4.0))   # tonic, in step
    for population in (excitatory, inhibitory, hubs, flooded):
        population.record(spikes=True)

    def sparse(weight_range):
        return FixedProbabilityConnector(
            float(draw.uniform(0.15, 0.35)), weight_range=weight_range,
            delay_range=(1, int(draw.integers(2, 12))))

    network.connect(poisson, excitatory, sparse((2.0, 4.0)))
    network.connect(replay, excitatory, sparse((1.0, 3.0)))
    network.connect(replay, inhibitory, sparse((2.0, 6.0)))
    network.connect(excitatory, inhibitory, sparse((0.5, 1.5)))
    network.connect(inhibitory, excitatory, sparse((-1.2, -0.4)))
    network.connect(excitatory, poisson, sparse((1.0, 3.0)))  # onto a source
    # Six hubs reach four targets in five at one shared delay; everyone
    # else makes one or two synapses.
    wiring = []
    for pre in range(hubs.size):
        if pre < 6:
            posts = np.flatnonzero(draw.random(flooded.size) < 0.8)
            wiring += [(pre, int(post), float(draw.uniform(500.0, 700.0)), 3)
                       for post in posts]
        else:
            wiring += [(pre, int(draw.integers(flooded.size)),
                        float(draw.uniform(0.2, 1.0)),
                        int(draw.integers(1, 9)))
                       for _ in range(int(draw.integers(1, 3)))]
    network.connect(hubs, flooded, FromListConnector(wiring))
    return network


class TestGeneratedAgreement:
    DURATION_MS = 50.0

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_every_engine_agrees_on_a_generated_network(self, scenario):
        def network() -> Network:
            return generated_network(np.random.default_rng(scenario))

        # Float weight domain: the host loop against the literal oracle.
        host = network().run(self.DURATION_MS)
        literal, _rows = oracles.reference_run(network(), self.DURATION_MS)
        for label in ("g-exc", "g-inh", "g-hubs", "g-flooded"):
            assert host.total_spikes(label) > 0, label
        assert host.spikes == literal.spikes
        for label, counts in literal.spike_counts.items():
            assert np.array_equal(host.spike_counts[label], counts)

        # Fixed-point domain: the on-machine fabric run at zero stagger,
        # the cluster serially (one engine) and the cluster pooled.
        application = NeuralApplication(
            cluster_machine(), network(), max_neurons_per_core=24,
            transport="fabric", stagger_us=0.0)
        fabric = application.run(self.DURATION_MS)
        assert application.unmatched_packets == 0
        saturations = sum(runtime.tick_kernel.ring.saturations
                          for runtime in application.core_runtimes)
        assert saturations > 0
        assert fabric.saturations == saturations
        results = {}
        for workers in (1, 2):
            cluster = ClusterApplication(cluster_machine(), network(),
                                         max_neurons_per_core=24)
            results[workers] = cluster.run(self.DURATION_MS, workers=workers)
            assert cluster.report.workers == workers
            assert_equivalent(results[workers], fabric)
            assert results[workers].saturations == saturations
        assert results[2].spikes == results[1].spikes
        assert set(fabric.spikes) == set(host.spikes)


class TestMixedSignSaturation:
    """One ring cell driven past the 16-bit range by a same-board hub
    and back by a cross-board one in the same tick.  The serial engine
    scatters both batches in one call, a pool in a local call and then
    at the barrier, the fabric one packet at a time: the cell must land
    on the clamp of its exact sum in all three."""

    @staticmethod
    def network() -> Network:
        network = Network(seed=SEED)
        excitatory = network.add_population(
            Population(24, "lif", label="m-exc"))
        target = network.add_population(Population(8, "lif", label="m-tgt"))
        # Unconnected cores that push the inhibitory hub onto board 1
        # under round-robin placement.
        network.add_population(Population(240, "lif", label="m-filler"))
        inhibitory = network.add_population(
            Population(24, "lif", label="m-inh"))
        for hub in (excitatory, inhibitory):
            hub.bias_current_na = 3.5
        for population in (excitatory, target, inhibitory):
            population.record(spikes=True)
        # +3000 nA and -2880 nA per target cell and tick: +120 nA drives
        # the targets; the clamp of +3000 first would leave -832 nA.
        network.connect(excitatory, target,
                        AllToAllConnector(weight=125.0, delay_ticks=3))
        network.connect(inhibitory, target,
                        AllToAllConnector(weight=-120.0, delay_ticks=3))
        return network

    def test_every_grouping_lands_the_exact_sum(self):
        fabric = NeuralApplication(
            cluster_machine(), self.network(), max_neurons_per_core=24,
            placement_strategy="round-robin", transport="fabric",
            stagger_us=0.0).run(60.0)
        assert fabric.spikes["m-exc"] == fabric.spikes["m-inh"]
        assert fabric.total_spikes("m-tgt") > 0
        assert fabric.saturations == 0
        results = {}
        for workers in (1, 2):
            cluster = ClusterApplication(
                cluster_machine(), self.network(), max_neurons_per_core=24,
                placement_strategy="round-robin")
            results[workers] = cluster.run(60.0, workers=workers)
            board_of = {spec.vertex.population_label: board
                        for board, context in cluster.board_contexts.items()
                        for spec in context.cores}
            assert board_of["m-exc"] == board_of["m-tgt"] != board_of["m-inh"]
            assert_equivalent(results[workers], fabric)
            assert results[workers].saturations == 0
        assert results[2].spikes == results[1].spikes


# ----------------------------------------------------------------------
# Standalone engine behaviour
# ----------------------------------------------------------------------
class TestFusedEngine:
    @staticmethod
    def single_board_engines(count: int):
        """``count`` engines over the same single-board context: every
        delivery is local, so the engines can be stepped standalone."""
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            1, 1, board_width=4, board_height=3, cores_per_chip=4))
        BootController(machine, seed=1).boot()
        cluster = ClusterApplication(machine, mixed_network(), seed=SEED,
                                     max_neurons_per_core=32)
        cluster.prepare()
        (context,) = cluster.board_contexts.values()
        populations = cluster._populations()
        plan = ExchangePlan.build({context.board: context}, {},
                                  {context.board: 0})
        return [FusedBoardEngine([context], populations, SEED,
                                 cluster.timestep_ms, plan, 0)
                for _ in range(count)]

    def test_prefetched_sources_change_nothing(self):
        plain, prefetched = self.single_board_engines(2)
        prefetched.kernel.prefetch_sources(59)
        for tick in range(90):
            assert np.array_equal(plain.step(tick), prefetched.step(tick))
            # Re-prefetch mid-run: draws stay in tick order per stream.
            if tick == 70:
                prefetched.kernel.prefetch_sources(85)
        plain_result = plain.finish(90.0)
        prefetched_result = prefetched.finish(90.0)
        assert_equivalent(prefetched_result, plain_result)
        assert prefetched_result.spikes == plain_result.spikes
        assert plain_result.synaptic_events > 0

    def test_batch_grouping_changes_nothing(self):
        """Mixed-age cells delivered in one call land the same ring and
        counters as one call per key's cells — what pins the age fold."""
        together, apart = self.single_board_engines(2)
        for tick in range(25):
            together.step(tick)
            apart.step(tick)
        context = together.contexts[0]
        index = context.delivery_index
        key_cells = ExchangePlan.build({context.board: context}, {},
                                       {context.board: 0}).key_cells
        rng = np.random.default_rng(4)
        keys = sorted(index.first_row, key=index.first_row.get)
        ends = [index.first_row[key] for key in keys[1:]] + [
            index.row_ptr.size - 1]
        records = []
        for key, end in zip(keys * 2, ends * 2):
            first = index.first_row[key]
            spiking = np.flatnonzero(rng.random(end - first) < 0.3)
            slots = np.arange(index.row_ptr[first], index.row_ptr[end])
            # The oldest age that keeps every delay of the key >= 0.
            oldest = int(index.delay_ticks[slots].min())
            records.append((spiking + key_cells[key].start,
                            int(rng.integers(0, oldest + 1))))
        assert len({age for _, age in records}) > 1
        together._deliver(
            np.concatenate([cells for cells, _ in records]),
            np.concatenate([np.full(cells.size, age)
                            for cells, age in records]))
        for cells, age in records:
            apart._deliver(cells, np.full(cells.size, age))
        for name in ("synaptic_events", "delivered_charge_na"):
            assert getattr(together.result, name) == getattr(apart.result,
                                                             name)
        assert together.result.synaptic_events > 0
        for field in ("_buffer", "events_deferred", "saturations",
                      "_current_tick"):
            assert np.array_equal(getattr(together.kernel.ring, field),
                                  getattr(apart.kernel.ring, field)), field
        for tick in range(25, 60):
            assert np.array_equal(together.step(tick), apart.step(tick))
        assert together.finish(60.0).spikes == apart.finish(60.0).spikes

    def test_projection_onto_a_source_is_counted_but_lands_nowhere(self):
        """A source integrates nothing: events aimed at one are counted
        like any other, but their charge must neither leak into a real
        neuron's column (cluster) nor pile up in the source core's ring
        (machine, either transport)."""
        def network_of(with_feedback: bool) -> Network:
            network = Network(seed=SEED)
            stimulus = SpikeSourcePoisson(32, rate_hz=80.0, label="s-stim")
            target = Population(32, "lif", label="s-tgt")
            target.record(spikes=True)
            network.connect(stimulus, target,
                            FixedProbabilityConnector(0.4, weight=1.5))
            if with_feedback:
                network.connect(target, stimulus,
                                FixedProbabilityConnector(0.4, weight=4.0))
            return network

        def machine_of() -> SpiNNakerMachine:
            machine = SpiNNakerMachine(MachineConfig.multi_board(
                1, 1, board_width=4, board_height=3, cores_per_chip=4))
            BootController(machine, seed=1).boot()
            return machine

        def run(with_feedback: bool) -> ApplicationResult:
            return ClusterApplication(machine_of(), network_of(with_feedback),
                                      seed=SEED,
                                      max_neurons_per_core=32).run(60.0)

        plain, feedback = run(False), run(True)
        assert plain.total_spikes("s-tgt") > 0
        assert feedback.spikes == plain.spikes
        assert feedback.synaptic_events > plain.synaptic_events

        for transport in ("fabric", "event"):
            application = NeuralApplication(
                machine_of(), network_of(True), max_neurons_per_core=32,
                seed=SEED, transport=transport, stagger_us=0.0)
            on_machine = application.run(60.0)
            assert on_machine.spikes == plain.spikes
            assert on_machine.synaptic_events == feedback.synaptic_events
            assert (on_machine.delivered_charge_na
                    == feedback.delivered_charge_na)
            sources = [runtime for runtime in application.core_runtimes
                       if runtime.population.is_spike_source]
            assert sources
            for runtime in sources:
                assert runtime.tick_kernel.ring.pending_charge() == 0.0
                assert runtime.tick_kernel.ring.saturations == 0


# ----------------------------------------------------------------------
# The fused ring buffer
# ----------------------------------------------------------------------
def ring_offsets(cells, effective_delays, width) -> np.ndarray:
    """Events as the board engine addresses them: ``delay * width +
    cell``."""
    return (np.asarray(effective_delays, dtype=np.int32) * width
            + np.asarray(cells, dtype=np.int32))


@st.composite
def ring_batches(draw):
    """A ring width, a start position and batches of ``(cell, weight,
    delay, age)`` events: sizes on both sides of the width, delays
    spanning one row to the whole ring, ages ``0..delay`` and
    fixed-point weights of both signs, heavy enough to saturate."""
    width = draw(st.integers(1, 40))
    position = draw(st.integers(0, 2 * (MAX_DELAY_TICKS + 1)))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from(
            [0, 1, max(width // 4 - 1, 0), width // 4 + 1, width - 1, width,
             width + 1, 2 * width, 5 * width]))
        age = draw(st.integers(0, MAX_DELAY_TICKS))
        low = draw(st.integers(max(age, 1), MAX_DELAY_TICKS))
        high = draw(st.integers(low, MAX_DELAY_TICKS))
        seed = draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        batches.append((rng.integers(0, width, size),
                        rng.integers(-24000, 24000, size) / 16.0,
                        rng.integers(low, high + 1, size), age))
    return width, position, batches


class TestFusedDeferredEventBuffer:
    @settings(max_examples=150, deadline=None)
    @given(ring_batches())
    def test_offsets_match_the_scalar_ring(self, drawn):
        """``add_events(offsets, weights)`` lands, wherever the ring
        stands when a batch arrives, what :class:`ScalarRing` fed event
        by event lands — the same exact charge in every cell — and
        drains the same clamped rows and saturation count."""
        width, position, batches = drawn
        ring = FusedDeferredEventBuffer(width)
        scalar = ScalarRing(width)
        for _ in range(position):
            ring.drain()
            scalar.drain()
        for cells, weights, delays, age in batches:
            ring.add_events(ring_offsets(cells, delays - age, width),
                            weights)
            for cell, weight, delay in zip(cells.tolist(), weights.tolist(),
                                           delays.tolist()):
                scalar.add_input(cell, weight, delay, age=age)
            assert np.array_equal(ring._buffer, scalar.buffer)
        assert ring.events_deferred == scalar.events_deferred
        for _ in range(MAX_DELAY_TICKS + 1):
            assert np.array_equal(ring.drain(), scalar.drain())
        assert ring.saturations == scalar.saturations

    def test_ring_offsets_land_in_the_right_columns(self):
        ring = FusedDeferredEventBuffer(7)
        ring.add_events(ring_offsets([0, 3, 6], [0, 0, 1], 7),
                        np.array([0.5, 1.0, 2.0]))
        now = ring.drain()
        assert np.array_equal(now, [0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        later = ring.drain()
        assert np.array_equal(later, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        assert ring.events_deferred == 3

    def test_matches_percore_rings_exactly(self):
        """One fused ring at per-core column offsets replays two
        per-core per-event rings event for event, whatever the batch
        grouping."""
        rng = np.random.default_rng(3)
        widths = [5, 9]
        offsets = [0, 5]
        cores = [ScalarRing(width, MAX_DELAY_TICKS) for width in widths]
        ring = FusedDeferredEventBuffer(sum(widths), MAX_DELAY_TICKS)
        for _ in range(40):
            events, weights = [], []
            for core, (buffer, width, base) in enumerate(
                    zip(cores, widths, offsets)):
                n = int(rng.integers(0, 12))
                targets = rng.integers(0, width, size=n)
                # Fixed-point weights: exact multiples of 2^-4.
                charge = rng.integers(-40, 40, size=n) / 16.0
                delay = rng.integers(1, MAX_DELAY_TICKS + 1, size=n)
                age = int(rng.integers(0, 2))
                for t, w, d in zip(targets, charge, delay):
                    buffer.add_input(int(t), float(w), int(d), age=age)
                events.append(ring_offsets(targets + base, delay - age,
                                           sum(widths)))
                weights.append(charge)
            ring.add_events(np.concatenate(events), np.concatenate(weights))
            row = ring.drain()
            split = np.concatenate([buffer.drain() for buffer in cores])
            assert np.array_equal(row, split)
        assert ring.events_deferred == sum(b.events_deferred for b in cores)

    def test_aged_events_land_in_the_original_arrival_slot(self):
        # A batch applied 2 ticks after its send barrier (age 2) with a
        # programmed delay of 5 must arrive 5 - 2 = 3 ticks from now —
        # the same absolute tick a per-tick exchange would have hit.
        aged = FusedDeferredEventBuffer(3)
        aged.drain(); aged.drain()                       # now at tick 2
        aged.add_events(ring_offsets([1], [5 - 2], 3), np.array([2.0]))
        reference = ScalarRing(3)
        reference.add_input(1, 2.0, 5)
        for _ in range(2):
            assert reference.drain().sum() == 0.0        # ticks 0 and 1
        for _ in range(6):
            assert np.array_equal(aged.drain(), reference.drain())

    def test_effective_delay_bounds_enforced(self):
        ring = FusedDeferredEventBuffer(4)
        for delay in (-1, MAX_DELAY_TICKS + 1):
            with pytest.raises(ValueError, match="lookahead"):
                ring.add_events(ring_offsets([0, 3], [1, delay], 4),
                                np.array([1.0, 1.0]))
        assert ring.pending_charge() == 0.0
        assert ring.events_deferred == 0

    def test_empty_batch_is_a_no_op(self):
        ring = FusedDeferredEventBuffer(4)
        ring.add_events(np.zeros(0, dtype=np.int32), np.zeros(0))
        assert ring.events_deferred == 0

    def test_saturation_clamped_once_per_cell(self):
        ring = FusedDeferredEventBuffer(3)
        big = WEIGHT_SATURATION_NA * 0.75
        ring.add_events(ring_offsets([1, 1], [0, 0], 3),
                        np.array([big, big]))
        ring.add_events(ring_offsets([1], [0], 3), np.array([big]))
        row = ring.drain()
        assert row[1] == WEIGHT_SATURATION_NA
        assert ring.saturations == 1

    def test_scatter_and_presum_paths_agree(self):
        """A batch narrower than the ring scatters in place, a wider one
        pre-sums over its rows.  The same 96 fixed-point events over
        three delay rows must land the same cells and saturation count
        on both sides of ``96 == width``, and at every ring position, so
        that the row span also wraps."""
        rng = np.random.default_rng(9)
        cells = rng.integers(0, 6, size=96)
        weights = rng.integers(-8000, 24001, size=96) / 16.0
        delays = rng.integers(0, 3, size=96)

        def fill(width, position):
            ring = FusedDeferredEventBuffer(width)
            for _ in range(position):
                ring.drain()
            ring.add_events(ring_offsets(cells, delays, width), weights)
            return ([ring.drain()[:6].tolist() for _ in range(3)],
                    ring.saturations)

        rows, saturations = fill(6, 0)
        assert saturations > 0
        assert max(max(row) for row in rows) == WEIGHT_SATURATION_NA
        for width in (6, 95, 96, 97, 127, 128, 129, 500):
            for position in (0, MAX_DELAY_TICKS - 1, MAX_DELAY_TICKS):
                assert fill(width, position) == (rows, saturations), width

    def test_reset_rewinds_everything(self):
        ring = FusedDeferredEventBuffer(3)
        ring.add_events(ring_offsets([0], [2], 3), np.array([1.0]))
        ring.drain()
        ring.reset()
        assert ring.current_tick == 0
        assert ring.pending_charge() == 0.0
        assert ring.events_deferred == 0

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            FusedDeferredEventBuffer(0)
        with pytest.raises(ValueError):
            FusedDeferredEventBuffer(4, max_delay_ticks=0)


# ----------------------------------------------------------------------
# The board delivery index
# ----------------------------------------------------------------------
class TestBoardDeliveryIndex:
    @staticmethod
    def compiled():
        cluster = ClusterApplication(cluster_machine(), mixed_network(),
                                     seed=SEED, max_neurons_per_core=32)
        cluster.prepare()
        return cluster.pipeline.ctx, cluster.board_contexts

    def test_built_by_the_shard_pass(self):
        for context in self.compiled()[1].values():
            assert isinstance(context.delivery_index, BoardDeliveryIndex)

    def test_core_offsets_partition_the_board(self):
        for context in self.compiled()[1].values():
            index = context.delivery_index
            sizes = [core.vertex.n_neurons for core in context.cores]
            assert index.total_neurons == sum(sizes)
            expected = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            assert np.array_equal(index.core_offsets, expected)

    def test_slots_replay_every_leg(self):
        """For every key and a fan of spike batches, the row expansion
        over the key's slice of the flat row table must enumerate exactly
        the synapses of the key's legs on the board's cores (read from
        ``core_data``) — same board-flat targets, weights and delays."""
        ctx, board_contexts = self.compiled()
        rng = np.random.default_rng(5)
        checked = 0
        for context in board_contexts.values():
            index = context.delivery_index
            legs = {}
            for core_index, core in enumerate(context.cores):
                data = ctx.core_data[(core.chip, core.core_id)]
                for key, leg in data.legs.items():
                    legs.setdefault(key, []).append((core_index, leg))
            assert set(index.first_row) == set(legs)
            assert index.row_ptr[0] == 0
            assert index.row_ptr[-1] == index.targets.size
            assert (np.diff(index.row_ptr) >= 0).all()
            # Keys own consecutive runs of table rows, in arena order.
            assert index.row_ptr.size - 1 == sum(
                key_legs[0][1].n_pre for key_legs in legs.values())
            for key, key_legs in legs.items():
                first = index.first_row[key]
                row_ptr = index.row_ptr[first:first + key_legs[0][1].n_pre
                                        + 1]
                for batch in range(3):
                    spiking = np.flatnonzero(
                        rng.random(key_legs[0][1].n_pre) < 0.4)
                    per_leg = []
                    for core_index, csr in key_legs:
                        leg = csr.synapse_slots(spiking)
                        base = index.core_offsets[core_index]
                        per_leg.append(np.stack([
                            csr.targets[leg] + base,
                            csr.delay_ticks[leg],
                            (csr.weights[leg] * 16).astype(np.int64)]))
                    starts = row_ptr[spiking]
                    slots = expand_rows(starts,
                                        row_ptr[spiking + 1] - starts)
                    # (spiking source)-major, storage order within a row.
                    assert np.array_equal(slots, np.concatenate(
                        [np.arange(row_ptr[i], row_ptr[i + 1])
                         for i in spiking] + [np.zeros(0, dtype=int)]))
                    reference = np.concatenate(per_leg, axis=1)
                    fused = np.stack([
                        index.targets[slots],
                        index.delay_ticks[slots],
                        (index.weights[slots] * 16).astype(np.int64)])
                    # Leg merge reorders within a source row; compare as
                    # multisets of (target, delay, weight) synapses.
                    assert np.array_equal(
                        reference[:, np.lexsort(reference)],
                        fused[:, np.lexsort(fused)])
                    checked += 1
        assert checked > 0
