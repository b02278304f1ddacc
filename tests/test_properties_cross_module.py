"""Cross-module property-based tests.

These properties tie the mapping tool-chain, the router and the machine
model together: for randomly generated networks, every synapse implied by
the network description must be reachable through the installed routing
tables, and the AER key allocation must remain collision-free.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.compile import MappingPipeline
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.core.packets import MulticastPacket
from repro.mapping.keys import KeyAllocator
from repro.mapping.placement import Placer
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population
from repro.neuron.population import expansion_rng


def _trace_multicast(machine, source_chip, key, max_hops=64):
    """Follow routing tables from ``source_chip`` and collect deliveries.

    Returns the set of ``(chip, core)`` pairs the packet reaches.  The walk
    is breadth-first over (chip, arrival-direction) states, which mirrors
    what the hardware does without needing the event kernel.
    """
    deliveries = set()
    visited = set()
    frontier = [(source_chip, None)]
    hops = 0
    while frontier and hops < max_hops:
        hops += 1
        next_frontier = []
        for chip_coord, arrival in frontier:
            if (chip_coord, arrival) in visited:
                continue
            visited.add((chip_coord, arrival))
            chip = machine.chips[chip_coord]
            decision = chip.router.decide(MulticastPacket(key=key), arrival)
            for core in decision.cores:
                deliveries.add((chip_coord, core))
            if decision.default_routed and arrival is None:
                continue
            for direction in decision.links:
                target = chip_coord.neighbour(direction,
                                              machine.config.width,
                                              machine.config.height)
                next_frontier.append((target, direction.opposite))
        frontier = next_frontier
    return deliveries


network_strategy = st.tuples(
    st.integers(min_value=5, max_value=30),    # pre size
    st.integers(min_value=5, max_value=30),    # post size
    st.floats(min_value=0.05, max_value=0.6),  # connection probability
    st.integers(min_value=0, max_value=10_000))  # seed


class TestMappingRoutingConsistency:
    @given(network_strategy)
    @settings(max_examples=15, deadline=None)
    def test_every_synapse_is_reachable_through_the_routing_tables(self, spec):
        n_pre, n_post, p_connect, seed = spec
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=4))
        network = Network(seed=seed)
        pre = Population(n_pre, "lif", label="prop-pre")
        post = Population(n_post, "lif", label="prop-post")
        network.connect(pre, post,
                        FixedProbabilityConnector(p_connect=p_connect,
                                                  weight=0.5))
        ctx = MappingPipeline(machine, network, seed=seed,
                              max_neurons_per_core=8).run()
        placement, keys = ctx.placement, ctx.keys

        # The literal expansion: the routing tables (built from the
        # shipped CSR) must reach every synapse the oracle enumerates.
        projection = network.projections[0]
        rows = oracles.build_rows(projection.connector, n_pre, n_post,
                                  expansion_rng(seed, 0))

        for source_neuron, synapses in rows.items():
            if not synapses:
                continue
            key = keys.key_for_neuron("prop-pre", source_neuron)
            source_chip, _ = placement.location_of(
                placement.vertex_for_neuron("prop-pre", source_neuron)[0])
            deliveries = _trace_multicast(machine, source_chip, key)
            # Every post-synaptic target of this neuron must live on a
            # (chip, core) the packet reaches.
            for synapse in synapses:
                target_vertex, _ = placement.vertex_for_neuron("prop-post",
                                                               synapse.target)
                assert placement.location_of(target_vertex) in deliveries

    @given(network_strategy)
    @settings(max_examples=15, deadline=None)
    def test_key_allocation_is_collision_free_and_invertible(self, spec):
        n_pre, n_post, p_connect, seed = spec
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=4))
        network = Network(seed=seed)
        pre = Population(n_pre, "lif", label="key-pre")
        post = Population(n_post, "lif", label="key-post")
        network.connect(pre, post, FixedProbabilityConnector(p_connect))
        placement = Placer(machine, max_neurons_per_core=8).place(network)
        keys = KeyAllocator(placement)

        seen = {}
        for label, size in (("key-pre", n_pre), ("key-post", n_post)):
            for neuron in range(size):
                key = keys.key_for_neuron(label, neuron)
                assert key not in seen, "key collision with %s" % (seen.get(key),)
                seen[key] = (label, neuron)
                assert keys.neuron_for_key(key) == (label, neuron)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=10, deadline=None)
    def test_synaptic_rows_in_sdram_round_trip(self, seed, p_connect):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        network = Network(seed=seed)
        pre = Population(12, "lif", label="sdram-pre")
        post = Population(12, "lif", label="sdram-post")
        network.connect(pre, post, FixedProbabilityConnector(p_connect,
                                                             weight=1.25,
                                                             delay_range=(1, 16)))
        ctx = MappingPipeline(machine, network, seed=seed,
                              max_neurons_per_core=6).run()
        keys, core_data = ctx.keys, ctx.core_data

        projection = network.projections[0]
        rows = oracles.build_rows(projection.connector, 12, 12,
                                  expansion_rng(seed, 0))
        from_sdram = {}
        for (chip_coord, _core), data in core_data.items():
            chip = machine.chips[chip_coord]
            for entry in data.population_table.entries:
                for row_index in range(entry.n_rows):
                    address = entry.sdram_address + 4 * row_index * entry.row_stride_words
                    words = chip.sdram.read_block(address,
                                                  entry.row_stride_words)
                    _, source = keys.neuron_for_key(entry.key | row_index)
                    vertex = data.vertex
                    from_sdram.setdefault(source, []).extend(
                        (s.target + vertex.slice_start, s.weight,
                         s.delay_ticks) for s in oracles.unpack_row(words))
        # Every synapse of the literal expansion is in SDRAM exactly
        # once, with its weight (1.25 is exact in fixed point) and delay.
        for source in range(12):
            assert sorted(from_sdram.get(source, [])) == sorted(
                (s.target, s.weight, s.delay_ticks)
                for s in rows.get(source, ()))


class TestRouterNeverWedges:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=6),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_traffic_with_random_failed_links_never_deadlocks(self, failed,
                                                              seed):
        # Property: whatever set of links is failed, injecting traffic
        # never wedges the machine — every packet is either delivered or
        # deliberately dropped, and the event queue always drains.
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=2))
        rng = np.random.default_rng(seed)
        directions = list(Direction)
        for index in failed:
            coordinate = ChipCoordinate(int(rng.integers(0, 3)),
                                        int(rng.integers(0, 3)))
            machine.fail_link(coordinate, directions[index])

        source = ChipCoordinate(0, 0)
        target = ChipCoordinate(2, 1)
        route = machine.geometry.route(source, target)
        current = source
        for direction in route:
            machine.chips[current].router.table.add(key=1, mask=0xFFFFFFFF,
                                                    links=[direction])
            current = current.neighbour(direction, 3, 3)
        machine.chips[target].router.table.add(key=1, mask=0xFFFFFFFF,
                                               cores=[0])
        delivered = []
        core = machine.chips[target].cores[0]
        core.run_self_test(True)
        core.start_application()
        core.on_packet(lambda packet: delivered.append(packet.key))

        for _ in range(20):
            machine.inject_multicast(source, MulticastPacket(key=1))
        executed = machine.kernel.run(max_events=50_000)
        assert machine.kernel.pending_events == 0
        assert executed < 50_000
        assert len(delivered) + machine.total_dropped_packets() == 20
