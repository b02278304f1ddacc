"""Unit tests for placement, key allocation, routing generation and
synaptic-matrix construction (Section 5.3).

Routing and synaptic matrices are checked on what the shipped tool-chain
(``MappingPipeline(...).run()``) installs: the machine's tables,
``ctx.routing_summary``, ``ctx.reach_of`` and ``ctx.core_data``.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_e18_mapping_pipeline import sdram_words_per_synapse
from oracles import unpack_row
from repro.compile import MappingPipeline
from repro.core.geometry import ChipCoordinate
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.mapping.keys import KeyAllocator, KeySpace, VERTEX_MASK
from repro.mapping.placement import Placement, PlacementError, Placer, Vertex
from repro.mapping.routing_generator import build_tree
from repro.router.fabric import compile_route
from repro.neuron.connectors import AllToAllConnector, FixedProbabilityConnector, OneToOneConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson


def build_network(n_stim=30, n_exc=60, seed=7):
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(n_stim, rate_hz=50.0, label="m-stim")
    excitatory = Population(n_exc, "lif", label="m-exc")
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.3, weight=0.5,
                                              delay_range=(1, 4)))
    network.connect(excitatory, excitatory,
                    FixedProbabilityConnector(p_connect=0.1, weight=0.2))
    return network


class TestPlacement:
    def test_partition_respects_core_budget(self, medium_machine):
        placer = Placer(medium_machine, max_neurons_per_core=25)
        partition = placer.partition(build_network())
        assert all(v.n_neurons <= 25 for slices in partition.values()
                   for v in slices)
        assert len(partition["m-exc"]) == 3

    def test_partition_covers_every_neuron(self, medium_machine):
        placer = Placer(medium_machine, max_neurons_per_core=16)
        partition = placer.partition(build_network())
        for label, size in (("m-stim", 30), ("m-exc", 60)):
            covered = sorted((v.slice_start, v.slice_stop)
                             for v in partition[label])
            assert covered[0][0] == 0
            assert covered[-1][1] == size
            for (_, stop), (start, _) in zip(covered, covered[1:]):
                assert stop == start

    def test_place_assigns_unique_cores(self, medium_machine):
        placement = Placer(medium_machine, max_neurons_per_core=16).place(
            build_network())
        locations = list(placement.locations.values())
        assert len(locations) == len(set(locations))

    def test_place_never_uses_monitor_core(self, medium_machine):
        placement = Placer(medium_machine, max_neurons_per_core=16).place(
            build_network())
        for chip, core in placement.locations.values():
            monitor = medium_machine.chips[chip].monitor_core_id or 0
            assert core != monitor

    def test_placement_error_when_machine_too_small(self):
        machine = SpiNNakerMachine(MachineConfig(width=1, height=1,
                                                 cores_per_chip=2))
        with pytest.raises(PlacementError):
            Placer(machine, max_neurons_per_core=10).place(build_network())

    def test_vertex_for_neuron_resolves_slice(self, medium_machine):
        placement = Placer(medium_machine, max_neurons_per_core=16).place(
            build_network())
        vertex, local = placement.vertex_for_neuron("m-exc", 40)
        assert vertex.slice_start <= 40 < vertex.slice_stop
        assert local == 40 - vertex.slice_start
        with pytest.raises(KeyError):
            placement.vertex_for_neuron("m-exc", 500)

    def test_round_robin_and_locality_both_legal(self, medium_machine):
        for strategy in ("round-robin", "locality"):
            machine = SpiNNakerMachine(MachineConfig(width=4, height=4,
                                                     cores_per_chip=6))
            placement = Placer(machine, max_neurons_per_core=16,
                               strategy=strategy).place(build_network())
            assert placement.n_cores_used == len(placement.vertices)

    def test_locality_places_population_contiguously(self):
        machine = SpiNNakerMachine(MachineConfig(width=4, height=4,
                                                 cores_per_chip=6))
        placement = Placer(machine, max_neurons_per_core=16,
                           strategy="locality").place(build_network())
        chips = [placement.location_of(v)[0]
                 for v in placement.vertices_of("m-exc")]
        geometry = machine.geometry
        spread = max(geometry.distance(chips[0], other) for other in chips)
        assert spread <= 2

    def test_invalid_strategy_rejected(self, medium_machine):
        with pytest.raises(ValueError):
            Placer(medium_machine, strategy="simulated-annealing")

    def test_failed_cores_skipped(self):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        machine.chips[ChipCoordinate(0, 0)].cores[2].run_self_test(False)
        placement = Placer(machine, max_neurons_per_core=16).place(
            build_network(n_stim=10, n_exc=20))
        assert (ChipCoordinate(0, 0), 2) not in placement.locations.values()


class TestKeyAllocation:
    def _placement(self, machine):
        return Placer(machine, max_neurons_per_core=16).place(build_network())

    def test_key_spaces_are_unique(self, medium_machine):
        placement = self._placement(medium_machine)
        keys = KeyAllocator(placement)
        bases = [space.base_key for space in keys.all_key_spaces().values()]
        assert len(bases) == len(set(bases))

    def test_key_encodes_placement(self, medium_machine):
        placement = self._placement(medium_machine)
        keys = KeyAllocator(placement)
        for vertex, (chip, core) in placement.locations.items():
            base = keys.key_space(vertex).base_key
            assert KeyAllocator.unpack_base(base) == (chip, core)

    def test_neuron_round_trip(self, medium_machine):
        placement = self._placement(medium_machine)
        keys = KeyAllocator(placement)
        key = keys.key_for_neuron("m-exc", 33)
        assert keys.neuron_for_key(key) == ("m-exc", 33)

    def test_unknown_key_resolves_to_none(self, medium_machine):
        placement = self._placement(medium_machine)
        keys = KeyAllocator(placement)
        assert keys.vertex_for_key(0xFFFFFFFF) is None
        assert keys.neuron_for_key(0xFFFFFFFF) is None

    def test_key_space_mask_covers_neuron_bits(self):
        space = KeySpace(base_key=0x00012800)
        assert space.mask == VERTEX_MASK
        assert space.key_for(5) == 0x00012805
        assert space.neuron_of(0x00012805) == 5
        with pytest.raises(ValueError):
            space.key_for(5000)
        with pytest.raises(ValueError):
            space.neuron_of(0xFF012805)

    def test_core_field_width_enforced(self):
        with pytest.raises(ValueError):
            KeyAllocator.pack_base(ChipCoordinate(0, 0), 40)
        with pytest.raises(ValueError):
            KeyAllocator.pack_base(ChipCoordinate(300, 0), 1)


def compiled(machine, network=None, **options):
    """Compile ``network`` onto ``machine`` through the shipped pipeline."""
    network = network or build_network()
    return MappingPipeline(machine, network, seed=network.seed,
                           max_neurons_per_core=16, **options).run()


class TestRoutingGeneration:
    def test_route_pass_installs_entries(self, medium_machine):
        ctx = compiled(medium_machine)
        summary = ctx.routing_summary
        assert summary.entries_installed > 0
        assert summary.multicast_trees > 0
        assert summary.chips_touched >= 1
        assert (sum(len(chip.router.table) for chip in medium_machine)
                == summary.entries_after_minimisation)

    def test_tree_spans_source_and_destinations(self, medium_machine):
        source = ChipCoordinate(0, 0)
        destinations = [ChipCoordinate(2, 1), ChipCoordinate(3, 3)]
        tree = build_tree(medium_machine, source, destinations)
        assert source in tree
        for destination in destinations:
            assert destination in tree

    def test_tree_link_count_no_worse_than_separate_routes(self, medium_machine):
        source = ChipCoordinate(0, 0)
        destinations = [ChipCoordinate(3, 0), ChipCoordinate(3, 1),
                        ChipCoordinate(3, 2)]
        tree = build_tree(medium_machine, source, destinations)
        tree_links = sum(len(links) for links in tree.values())
        separate = sum(medium_machine.geometry.distance(source, d)
                       for d in destinations)
        assert tree_links <= separate

    def test_destinations_follow_synapses(self, medium_machine):
        network = Network(seed=1)
        a = Population(10, label="d-a")
        b = Population(10, label="d-b")
        network.connect(a, b, OneToOneConnector(weight=1.0))
        ctx = compiled(medium_machine, network)
        vertex_a = ctx.placement.vertices_of("d-a")[0]
        vertex_b = ctx.placement.vertices_of("d-b")[0]
        assert list(ctx.reach_of(vertex_a)) == [vertex_b]
        assert not ctx.reach_of(vertex_b)

    def test_every_destination_core_reached_by_a_table_walk(self, medium_machine):
        # Walk the *installed* (minimised) tables from each source chip:
        # the cores a packet reaches are exactly the cores hosting the
        # vertices the source has synapses onto.
        ctx = compiled(medium_machine)
        locations = ctx.placement.locations
        walked = 0
        for vertex in ctx.placement.vertices:
            reach = ctx.reach_of(vertex)
            if not reach:
                continue
            program = compile_route(medium_machine, locations[vertex][0],
                                    ctx.keys.key_space(vertex).base_key)
            assert ({(target.chip, target.core_id)
                     for target in program.targets}
                    == {locations[target] for target in reach})
            walked += 1
        assert walked == ctx.routing_summary.multicast_trees > 0

    def test_broadcast_generates_more_entries_than_multicast(self):
        summaries = {}
        for broadcast in (False, True):
            machine = SpiNNakerMachine(MachineConfig(width=4, height=4,
                                                     cores_per_chip=6))
            summaries[broadcast] = compiled(
                machine, broadcast_routing=broadcast,
                minimise=False).routing_summary
        assert (summaries[True].total_tree_links
                > summaries[False].total_tree_links)
        assert (summaries[True].entries_installed
                >= summaries[False].entries_installed)

    def test_minimisation_reduces_or_preserves_entry_count(self, medium_machine):
        summary = compiled(medium_machine, minimise=True).routing_summary
        assert summary.entries_after_minimisation <= summary.entries_installed


class TestSynapticMatrices:
    def _built(self, machine):
        network = build_network()
        ctx = compiled(machine, network)
        return network, ctx.placement, ctx.keys, ctx.core_data

    def test_every_placed_vertex_has_core_data(self, medium_machine):
        network, placement, keys, data = self._built(medium_machine)
        assert set(data.keys()) == set(placement.locations.values())

    def test_total_synapses_match_network(self, medium_machine):
        network, placement, keys, data = self._built(medium_machine)
        expected = network.n_synapses()
        total = sum(core.total_synapses for core in data.values())
        assert total == expected

    def test_population_table_lookup_finds_rows(self, medium_machine):
        network, placement, keys, data = self._built(medium_machine)
        # Pick a stimulus neuron and check its key resolves on some core.
        key = keys.key_for_neuron("m-stim", 3)
        hits = [core for core in data.values()
                if core.population_table.lookup(key) is not None]
        assert hits, "at least one target core must hold a row for the key"

    def test_rows_in_sdram_decode_to_local_targets(self, medium_machine):
        network, placement, keys, data = self._built(medium_machine)
        key = keys.key_for_neuron("m-stim", 3)
        for (chip_coord, core_id), core_data in data.items():
            entry = core_data.population_table.lookup(key)
            if entry is None:
                continue
            address, words = entry.address_of(key)
            chip = medium_machine.chips[chip_coord]
            row = unpack_row(chip.sdram.read_block(address, words))
            assert all(0 <= s.target < core_data.vertex.n_neurons for s in row)

    def test_sdram_usage_accounted(self, medium_machine):
        network, placement, keys, data = self._built(medium_machine)
        for (chip_coord, _), core_data in data.items():
            chip = medium_machine.chips[chip_coord]
            assert chip.sdram.bytes_allocated > 0
            assert core_data.total_sdram_words >= core_data.total_synapses

    def test_sdram_words_per_synapse_pinned(self, medium_machine):
        # e18's reported figure, pinned exactly: any change to the row
        # header, the stride padding or the block layout moves it.
        _network, _placement, _keys, data = self._built(medium_machine)
        assert sum(core.total_sdram_words for core in data.values()) == 2086
        assert sum(core.total_synapses for core in data.values()) == 895
        assert sdram_words_per_synapse(data) == 2086 / 895

    def test_misses_counted_for_unknown_keys(self, medium_machine):
        network, placement, keys, data = self._built(medium_machine)
        core_data = next(iter(data.values()))
        assert core_data.population_table.lookup(0xFFFFF800) is None
        assert core_data.population_table.misses >= 1
