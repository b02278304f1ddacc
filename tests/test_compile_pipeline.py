"""The pass-based mapping compiler (`repro.compile`).

Acceptance checks of the pipeline refactor:

* pipeline equivalence — for seeded networks the pipeline produces
  placements, key allocations, routing tables, route programs and SDRAM
  synaptic blocks identical to the tool-chain run inline, stage by stage
  over the literal expansion (``oracles.inline_toolchain``), for event
  and fabric transports and for multicast and broadcast routing;
* per-pass artifact caching and dependency-tracked invalidation;
* incremental re-map — a chip condemnation re-runs only the affected
  passes over the affected vertices, and (after a reset) reproduces a
  cold compile on the shrunken machine spike for spike;
* sharded re-map — after every condemnation or pinned move, each board's
  shard (cores, delivery index) and the per-board-pair minimum delays
  equal a cold compile's on an identically condemned machine;
* the delivery-leg table — every core's decoded legs equal the reference
  decode of its installed SDRAM words, cold and after a re-map that gave
  only the moved cores their cached legs again;
* batched writes — a cold compile writes each chip's blocks with one
  SDRAM write, a re-map each rebuilt core's;
* parallel projections — two projections between the same populations
  share one block per core, and every engine delivers both;
* the per-projection pack — on drawn networks the pass that groups,
  packs and decodes each projection once into one buffer, and writes a
  chip's blocks at once, writes exactly what the per-pair reference
  (``oracles.PerPairSynapticMatrices``: one block packed, written and
  decoded at a time) writes, cold, after a re-map and after a connector
  change, and a compile plus a re-map builds one expansion generator per
  projection.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from benchmarks.e2e import workloads
from repro.alloc.server import AllocationServer
from repro.cluster import ClusterApplication
from repro.compile import MappingPipeline
from repro.compile.context import ProjectionSplit
from repro.compile.passes import ShardByBoardPass
from repro.core.geometry import ChipCoordinate
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.core.sdram import SDRAM
from repro.host.host_system import HostSystem
from repro.mapping.placement import Vertex
from repro.mapping.synaptic_matrix import (
    MasterPopulationTable,
    PopulationTableEntry,
)
from repro.neuron import population as population_module
from repro.neuron.connectors import (
    AllToAllConnector,
    FixedProbabilityConnector,
    FromListConnector,
    OneToOneConnector,
)
from repro.neuron.network import Network
from repro.neuron.population import Population, Projection, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService

SEED = 91


def booted_machine(width=3, height=3, cores=6):
    machine = SpiNNakerMachine(MachineConfig(width=width, height=height,
                                             cores_per_chip=cores))
    BootController(machine, seed=1).boot()
    return machine


def layered_network(seed=SEED):
    """Two projections, several vertices per population, mixed fan-out."""
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(48, rate_hz=60.0, label="cp-stim")
    relay = Population(48, "lif", label="cp-relay")
    out = Population(32, "lif", label="cp-out")
    relay.record(spikes=True)
    out.record(spikes=True)
    network.connect(stimulus, relay, OneToOneConnector(weight=4.0,
                                                       delay_ticks=1))
    network.connect(relay, out,
                    FixedProbabilityConnector(0.25, weight=1.2,
                                              delay_range=(1, 6)))
    return network


def parallel_network(interleaved=False):
    """``stim -> tgt`` wired twice, 0.5 and 3.0 nA one-to-one;
    ``interleaved`` adds an unrelated projection between the two, so the
    merged block's write position counts."""
    network = Network(seed=SEED)
    stimulus = SpikeSourcePoisson(20, rate_hz=60.0, label="pp-stim")
    target = Population(20, "lif", label="pp-tgt")
    stimulus.record(spikes=True)
    target.record(spikes=True)
    network.connect(stimulus, target, OneToOneConnector(weight=0.5))
    if interleaved:
        network.connect(stimulus, Population(12, "lif", label="pp-other"),
                        FixedProbabilityConnector(0.3, weight=0.25))
    network.connect(stimulus, target, OneToOneConnector(weight=3.0))
    return network


def sdram_blocks(machine, core_data):
    """Every core's population-table records plus the packed SDRAM words."""
    blocks = {}
    for (chip_coordinate, core_id), data in core_data.items():
        chip = machine.chips[chip_coordinate]
        records = []
        for entry in data.population_table.entries:
            words = chip.sdram.peek_block(
                entry.sdram_address, entry.row_stride_words * entry.n_rows)
            records.append((entry.key, entry.mask, entry.sdram_address,
                            entry.row_stride_words, entry.n_rows,
                            tuple(words)))
        blocks[(chip_coordinate, core_id)] = records
    return blocks


class TestPipelineLegacyEquivalence:
    @pytest.mark.parametrize("broadcast,fabric", [
        (False, False),   # event transport, multicast routing
        (False, True),    # fabric transport, multicast routing
        (True, False),    # event transport, broadcast routing
    ])
    def test_pipeline_matches_legacy_toolchain(self, broadcast, fabric):
        network = layered_network()
        legacy_machine = booted_machine()
        placement, keys, programs, core_data = oracles.inline_toolchain(
            legacy_machine, network, expansion_seed=SEED,
            broadcast=broadcast, fabric=fabric)

        pipeline_machine = booted_machine()
        pipeline = MappingPipeline(pipeline_machine, network, seed=SEED,
                                   max_neurons_per_core=8,
                                   broadcast_routing=broadcast,
                                   compile_transport=fabric)
        ctx = pipeline.run()

        # Placement and key allocation are identical.
        assert ctx.placement.locations == placement.locations
        assert ctx.keys.all_key_spaces() == keys.all_key_spaces()

        # Every chip's installed routing table is identical, entry for
        # entry and in order (same minimisation input -> same output).
        for coordinate in legacy_machine.chips:
            legacy_table = legacy_machine.chips[coordinate].router.table
            pipeline_table = pipeline_machine.chips[coordinate].router.table
            assert list(pipeline_table.entries) == list(legacy_table.entries)

        # The SDRAM synaptic blocks land at the same addresses with the
        # same packed words and population-table records.
        assert (sdram_blocks(pipeline_machine, ctx.core_data)
                == sdram_blocks(legacy_machine, core_data))

        # And the compiled transport programs (fabric mode only) agree.
        assert ctx.route_programs == programs
        assert bool(programs) == fabric

    def test_prepare_is_reentrant_with_mode_guard(self):
        # A prepared application refuses to be silently re-prepared into
        # a different routing mode (remap through the pipeline instead).
        machine = booted_machine()
        application = NeuralApplication(machine, layered_network(),
                                        max_neurons_per_core=8, seed=SEED)
        application.prepare(broadcast_routing=True)
        with pytest.raises(RuntimeError):
            application.prepare(broadcast_routing=False)


def assert_same_leg(leg, other) -> None:
    assert (leg.n_pre, leg.n_post) == (other.n_pre, other.n_post)
    for name in ("row_ptr", "targets", "weights", "delay_ticks"):
        assert np.array_equal(getattr(leg, name), getattr(other, name)), name


class TestLegTable:
    @pytest.mark.parametrize("network", [
        layered_network, lambda: parallel_network(interleaved=True)],
        ids=["layered", "parallel"])
    def test_every_leg_decodes_its_installed_words(self, network):
        machine = booted_machine()
        ctx = MappingPipeline(machine, network(), seed=SEED,
                              max_neurons_per_core=8).run()
        checked = 0
        for (chip, _core_id), data in ctx.core_data.items():
            entries = data.population_table.entries
            assert list(data.legs) == [entry.key for entry in entries]
            for entry in entries:
                assert_same_leg(data.legs[entry.key], oracles.decode_block(
                    machine.chips[chip], entry, data.vertex.n_neurons))
                checked += 1
        assert checked > 0

    def test_remap_reuses_cached_legs_and_matches_a_cold_compile(self):
        machine = booted_machine(3, 3, 6)
        pipeline = MappingPipeline(machine, layered_network(), seed=SEED,
                                   max_neurons_per_core=8)
        ctx = pipeline.run()
        before = {slot: dict(data.legs) for slot, data in ctx.core_data.items()}
        victim = ctx.placement.chips_used()[-1]
        MonitorService(machine).condemn_chip(victim)
        pipeline.run()

        cold_machine = booted_machine(3, 3, 6)
        MonitorService(cold_machine).condemn_chip(victim)
        cold = MappingPipeline(cold_machine, layered_network(), seed=SEED,
                               max_neurons_per_core=8).run()
        assert set(ctx.core_data) == set(cold.core_data)
        for slot, data in ctx.core_data.items():
            assert list(data.legs) == list(cold.core_data[slot].legs)
            for key, leg in data.legs.items():
                assert_same_leg(leg, cold.core_data[slot].legs[key])

        # Surviving cores keep their very leg objects; the moved ones are
        # given the cached legs at their new slots (nothing is decoded),
        # and the pass reports the moved cores and their legs.
        moved = {ctx.placement.locations[vertex]
                 for vertex in ctx.moved_vertices}
        assert moved
        for slot, data in ctx.core_data.items():
            for key, leg in data.legs.items():
                assert (before.get(slot, {}).get(key) is leg) == (
                    slot not in moved)
        assert pipeline.records["synaptic-matrices"].last_scope == (
            "%d cores, %d legs" % (len(moved), sum(
                len(ctx.core_data[slot].legs) for slot in moved)))


class TestBatchedWrites:
    def test_one_sdram_write_per_chip_cold_and_per_core_on_remap(
            self, monkeypatch):
        n = 240
        machine = SpiNNakerMachine(workloads.four_board_config())
        BootController(machine, seed=11).boot()
        writes = []
        write_block = SDRAM.write_block

        def spy(sdram, address, words):
            writes.append(sdram)
            write_block(sdram, address, words)

        monkeypatch.setattr(SDRAM, "write_block", spy)
        pipeline = MappingPipeline(
            machine, workloads.ring8(n, 11, workloads.DENSE), seed=11,
            max_neurons_per_core=n // workloads.VERTICES_PER_POPULATION,
            placement_strategy=workloads.PLACEMENT)
        ctx = pipeline.run()
        # Only the excitatory cores receive blocks: 864 of them on 16 of
        # the 32 chips in use; the stimulus-only chips have none to write.
        assert sum(len(data.legs) for data in ctx.core_data.values()) == 864
        written = {slot[0] for slot, data in ctx.core_data.items()
                   if data.legs}
        assert len(writes) == len(written) == 16
        assert {id(chip.sdram) for chip in map(machine.chips.get, written)
                } == set(map(id, writes))

        writes.clear()
        MonitorService(machine).condemn_chip(
            sorted(written)[len(written) // 2])
        pipeline.run()
        rebuilt = [slot for slot in ctx.rebuilt_cores
                   if ctx.core_data[slot].legs]
        assert rebuilt
        assert len(writes) == len(rebuilt)


class TestParallelProjections:
    def test_blocks_merge_where_the_oracle_writes_them(self):
        oracle_machine = booted_machine()
        _placement, _keys, _programs, core_data = oracles.inline_toolchain(
            oracle_machine, parallel_network(interleaved=True),
            expansion_seed=SEED)
        pipeline_machine = booted_machine()
        ctx = MappingPipeline(pipeline_machine,
                              parallel_network(interleaved=True),
                              seed=SEED, max_neurons_per_core=8).run()
        assert (sdram_blocks(pipeline_machine, ctx.core_data)
                == sdram_blocks(oracle_machine, core_data))
        for data in ctx.core_data.values():
            keys = [entry.key for entry in data.population_table.entries]
            assert len(keys) == len(set(keys)) == len(data.legs)

    def test_population_table_rejects_a_second_block_for_a_key(self):
        table = MasterPopulationTable()
        entry = PopulationTableEntry(key=0x800, mask=0xFFFFF800,
                                     sdram_address=0, row_stride_words=2,
                                     n_rows=4)
        table.add(entry)
        with pytest.raises(ValueError):
            table.add(PopulationTableEntry(key=0x800, mask=0xFFFFF800,
                                           sdram_address=64,
                                           row_stride_words=3, n_rows=4))
        assert table.entries == [entry]

    @pytest.mark.parametrize("engine", ["event", "fabric", "cluster"])
    def test_every_engine_delivers_both_projections(self, engine):
        # Each stimulus spike lands one synapse of each projection:
        # 0.5 + 3.0 nA, on every on-machine engine.
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            2, 1, board_width=2, board_height=2, cores_per_chip=4))
        BootController(machine, seed=1).boot()
        if engine == "cluster":
            application = ClusterApplication(machine, parallel_network(),
                                             seed=SEED,
                                             max_neurons_per_core=8)
        else:
            application = NeuralApplication(
                machine, parallel_network(), max_neurons_per_core=8,
                seed=SEED, transport=engine, stagger_us=0.0)
        result = application.run(100.0)
        stimulus_spikes = result.total_spikes("pp-stim")
        assert stimulus_spikes > 0
        assert result.synaptic_events == 2 * stimulus_spikes
        assert result.delivered_charge_na == 3.5 * stimulus_spikes
        assert result.total_spikes("pp-tgt") > 0


@st.composite
def drawn_connectors(draw, n_pre, n_post):
    """One connector of each block shape the split must reproduce."""
    kind = draw(st.sampled_from(["one-to-one", "fixed", "list", "hub"]))
    weights = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    if kind == "one-to-one":
        return OneToOneConnector(weight=draw(weights),
                                 delay_ticks=draw(st.integers(1, 16)))
    if kind == "fixed":
        # p = 0 leaves every block empty; small p leaves most empty.
        return FixedProbabilityConnector(
            draw(st.sampled_from([0.0, 0.05, 0.3, 0.9])),
            weight_range=(-1.0, 2.0), delay_range=(1, 16))
    if kind == "list":
        # Listed in drawn (unsorted) order, duplicates and clipped
        # delays included.
        return FromListConnector(draw(st.lists(st.tuples(
            st.integers(0, n_pre - 1), st.integers(0, n_post - 1),
            weights, st.integers(0, 20)), max_size=60)))
    # Hub-heavy: a few sources reach nearly every target, the rest one
    # or none — the same mean degree can hide very different block
    # sizes (arXiv:0908.0976).
    degrees = draw(st.lists(st.sampled_from([0, 0, 1, 1, n_post]),
                            min_size=n_pre, max_size=n_pre))
    order = draw(st.permutations(range(n_post)))
    return FromListConnector([
        (pre, post, 0.25 + 0.5 * (pre % 3), 1 + (pre + post) % 16)
        for pre, degree in enumerate(degrees) for post in order[:degree]])


@st.composite
def drawn_networks(draw):
    """``(network, max_neurons_per_core)``: 2-4 populations whose sizes
    leave uneven last slices, wired by 1-4 drawn projections, each
    possibly doubled by a parallel one."""
    sizes = draw(st.lists(st.integers(1, 24), min_size=2, max_size=4))
    network = Network(seed=SEED)
    populations = [Population(size, "lif", label="split-%d" % index)
                   for index, size in enumerate(sizes)]
    for population in populations:
        network.add_population(population)
    for _ in range(draw(st.integers(1, 4))):
        pre = draw(st.sampled_from(populations))
        post = draw(st.sampled_from(populations))
        for _copy in range(draw(st.sampled_from([1, 1, 2]))):
            network.connect(pre, post,
                            draw(drawn_connectors(pre.size, post.size)))
    return network, draw(st.integers(3, 8))


def assert_split_matches_per_pair(shipped, machine, reference,
                                  reference_machine, per_pair) -> None:
    """Words, addresses, population-table records, legs, cached blocks,
    reach order and feeder order all equal the per-pair reference."""
    assert (sdram_blocks(machine, shipped.core_data)
            == sdram_blocks(reference_machine, reference.core_data))
    for slot, data in shipped.core_data.items():
        legs = reference.core_data[slot].legs
        assert list(data.legs) == list(legs)
        for key, leg in data.legs.items():
            assert_same_leg(leg, legs[key])
    assert shipped.blocks.keys() == per_pair.blocks.keys()
    for pair, rows in shipped.blocks.items():
        assert np.array_equal(rows, per_pair.blocks[pair])
    for vertex in shipped.placement.vertices:
        assert list(shipped.reach_of(vertex)) == list(
            per_pair.reach_of(vertex))
    assert ([(target, list(sources))
             for target, sources in shipped.feeders_of().items()]
            == [(target, list(sources)) for target, sources
                in per_pair.feeders_of(reference).items()])
    # Only the packed words outlive the pass: no per-synapse split.
    assert all(split.group is None for split in shipped._splits)


class TestProjectionSplit:
    @settings(max_examples=30, deadline=None)
    @given(drawn=drawn_networks())
    def test_split_pass_matches_per_pair_reference(self, drawn):
        network, per_core = drawn
        machine, reference_machine = booted_machine(), booted_machine()
        pipeline = MappingPipeline(machine, network, seed=SEED,
                                   max_neurons_per_core=per_core)
        oracle = MappingPipeline(reference_machine, network, seed=SEED,
                                 max_neurons_per_core=per_core)
        per_pair = oracles.PerPairSynapticMatrices()
        oracle.passes[oracle._index_of(per_pair.name)] = per_pair

        def check():
            shipped, reference = pipeline.run(), oracle.run()
            assert (pipeline.records["synaptic-matrices"].last_scope
                    == oracle.records["synaptic-matrices"].last_scope)
            assert_split_matches_per_pair(shipped, machine, reference,
                                          reference_machine, per_pair)
            return shipped

        ctx = check()
        # A condemned chip: only the displaced cores are rewritten, from
        # the cached words.
        victim = ctx.placement.chips_used()[-1]
        for booted in (machine, reference_machine):
            MonitorService(booted).condemn_chip(victim)
        ctx = check()
        assert "full" not in pipeline.records["synaptic-matrices"].last_scope
        # A connector change keeps the partition but must regroup the
        # projection: a full rebuild that maps every new synapse.
        first = network.projections[0]
        network.projections[0] = Projection(
            first.pre, first.post, OneToOneConnector(weight=1.5,
                                                     delay_ticks=2))
        ctx = check()
        assert "full" in pipeline.records["synaptic-matrices"].last_scope
        assert sum(data.total_synapses for data in ctx.core_data.values()
                   ) == network.n_synapses()


class TestProjectionSplitEdges:
    def test_group_ids_fit_the_source_count(self):
        # 256 one-neuron sources onto one target: 256 groups, and the
        # narrow group-id dtype must still divide by the source count.
        sources = [Vertex("pre", i, i + 1, i) for i in range(256)]
        targets = [Vertex("post", 0, 3, 256)]
        csr = AllToAllConnector(weight=0.5).build_csr(256, 3, None)
        split = ProjectionSplit.build(csr, sources, targets)
        blocks = list(ProjectionSplit.blocks([(split, csr)]))
        assert [pair for pair, _block, _leg in blocks] == [
            (source, targets[0]) for source in sources]
        for _pair, block, leg in blocks:
            assert block[:, 0].tolist() == [3]
            assert leg.pre_index.tolist() == [0, 0, 0]
            assert leg.targets.tolist() == [0, 1, 2]
        assert split.group is None


class TestExpansionGenerators:
    @staticmethod
    def counting(monkeypatch):
        """Record every projection and tile generator built."""
        built, tiles = [], []
        expansion_rng = population_module.expansion_rng
        tile_rng = population_module.tile_rng

        def counting_expansion(seed, index=0):
            built.append((seed, index))
            return expansion_rng(seed, index)

        def counting_tile(root_key, src_tile, tgt_tile, quantity):
            tiles.append((root_key, src_tile, tgt_tile, quantity))
            return tile_rng(root_key, src_tile, tgt_tile, quantity)

        monkeypatch.setattr(population_module, "expansion_rng",
                            counting_expansion)
        monkeypatch.setattr(population_module, "tile_rng", counting_tile)
        return built, tiles

    def test_one_generator_per_projection_per_seed(self, monkeypatch):
        built, tiles = self.counting(monkeypatch)
        machine = booted_machine()
        network = layered_network()
        pipeline = MappingPipeline(machine, network, seed=SEED,
                                   max_neurons_per_core=8)
        ctx = pipeline.run()
        MonitorService(machine).condemn_chip(ctx.placement.chips_used()[-1])
        pipeline.run()
        assert "full" not in pipeline.records["synaptic-matrices"].last_scope
        one_each = [(SEED, index)
                    for index in range(len(network.projections))]
        assert built == one_each
        # The one fixed-probability projection is one tile: its cells
        # and its delays (the weight is fixed), each built once.
        assert [tile[1:] for tile in tiles] == [(0, 0, 0), (0, 0, 2)]
        # Every later consumer of the seed hits the cache: no generator
        # of either kind.
        seen = list(tiles)
        network.run(5.0)
        network.n_synapses()
        assert built == one_each
        assert tiles == seen
        network.run(5.0, seed=SEED + 1)
        assert built == one_each + [(SEED + 1, index) for index
                                    in range(len(network.projections))]
        assert len(tiles) == 2 * len(seen)
        assert tiles[2][0] != tiles[0][0]     # a new seed, a new root key

    def test_one_set_of_tile_generators_per_tile(self, monkeypatch):
        _built, tiles = self.counting(monkeypatch)
        network = Network(seed=SEED)
        small = Population(300, "lif", label="tg-small")
        large = Population(520, "lif", label="tg-large")
        network.connect(small, large, FixedProbabilityConnector(
            0.1, weight_range=(0.1, 0.2), delay_range=(1, 4)))
        network.connect(large, small, FixedProbabilityConnector(0.1))
        network.n_synapses()
        # One root key per projection; its 2 x 3 tiles draw cells,
        # weights and delays, the other's 3 x 2 tiles draw cells only.
        per_key = sorted(
            sorted(tile[1:] for tile in tiles if tile[0] == key)
            for key in {tile[0] for tile in tiles})
        assert per_key == sorted([
            [(src, tgt, quantity) for src in range(2) for tgt in range(3)
             for quantity in range(3)],
            [(src, tgt, 0) for src in range(3) for tgt in range(2)]])
        network.n_synapses()
        assert len(tiles) == 6 * 3 + 6


class TestPassCaching:
    def test_second_run_is_all_cache_hits(self):
        machine = booted_machine()
        pipeline = MappingPipeline(machine, layered_network(), seed=SEED,
                                   max_neurons_per_core=8)
        pipeline.run()
        pipeline.run()
        for row in pipeline.report():
            assert row["cache_hits"] == 1, row
            assert row["runs"] == 1, row

    def test_unrelated_condemnation_keeps_downstream_cached(self):
        # Condemning a chip that hosts no vertices changes the machine
        # fingerprint (the place pass re-runs) but displaces nothing, so
        # routing, synaptic matrices and transport all cache-hit.
        machine = booted_machine(4, 4, 6)
        pipeline = MappingPipeline(machine, layered_network(), seed=SEED,
                                   max_neurons_per_core=8)
        ctx = pipeline.run()
        used = set(chip for chip, _ in ctx.placement.locations.values())
        idle = [c for c in machine.chips if c not in used]
        assert idle, "test needs an unused chip"
        MonitorService(machine).condemn_chip(idle[-1])
        pipeline.run()
        assert pipeline.records["place"].runs == 2
        for name in ("route", "compress", "synaptic-matrices",
                     "compile-transport"):
            assert pipeline.records[name].cache_hits == 1, name

    def test_partition_preserving_network_change_rebuilds_synapses(self):
        # Regression: adding a projection between already-partitioned
        # populations (or changing connector parameters) changes the
        # connectivity without changing the partition — the packed-block
        # cache and every core's SDRAM data must still be rebuilt, or
        # routing and synaptic data go out of sync.
        machine = booted_machine(4, 4, 6)
        network = layered_network()
        pipeline = MappingPipeline(machine, network, seed=SEED,
                                   max_neurons_per_core=8)
        pipeline.run()
        network.connect(network.population("cp-stim"),
                        network.population("cp-out"),
                        FixedProbabilityConnector(0.5, weight=0.3))
        ctx = pipeline.run()
        assert "full" in pipeline.records["synaptic-matrices"].last_scope
        mapped = sum(data.total_synapses for data in ctx.core_data.values())
        assert mapped == network.n_synapses()
        # And the new projection's packets resolve at their targets.
        application = NeuralApplication(booted_machine(4, 4, 6),
                                        network, max_neurons_per_core=8,
                                        seed=SEED, stagger_us=0.0)
        result = application.run(40.0)
        assert result.total_spikes() > 0
        assert application.unmatched_packets == 0

    def test_network_change_invalidates_everything(self):
        machine = booted_machine(4, 4, 6)
        network = layered_network()
        pipeline = MappingPipeline(machine, network, seed=SEED,
                                   max_neurons_per_core=8)
        first = pipeline.run()
        entries_before = first.routing_summary.entries_installed
        feedback = Population(16, "lif", label="cp-feedback")
        network.connect(network.population("cp-out"), feedback,
                        FixedProbabilityConnector(0.3, weight=0.5))
        ctx = pipeline.run()
        assert pipeline.records["partition"].runs == 2
        assert pipeline.records["route"].runs == 2
        assert "full" in pipeline.records["synaptic-matrices"].last_scope
        assert ctx.routing_summary.entries_installed > entries_before
        assert any(v.population_label == "cp-feedback"
                   for v in ctx.placement.locations)


class TestIncrementalRemap:
    def _prepare(self, seed=SEED):
        machine = booted_machine(3, 3, 6)
        application = NeuralApplication(machine, layered_network(seed),
                                        max_neurons_per_core=8, seed=seed,
                                        stagger_us=0.0)
        application.prepare()
        return machine, application

    @staticmethod
    def _victim(application):
        """A chip hosting vertices, condemned last in raster order."""
        return application.placement.chips_used()[-1]

    def test_condemnation_remap_matches_cold_compile(self):
        # Satellite: condemn a chip mid-run via the monitor, re-map
        # incrementally, and check the re-mapped network reproduces a
        # cold full compile on the shrunken machine — same placement,
        # same spike trains.
        machine, application = self._prepare()
        monitor = MonitorService(machine)
        monitor.attach_application(application, reset=True)
        application.run(40.0)                  # mid-run fault
        victim = self._victim(application)
        monitor.condemn_chip(victim)           # triggers the re-map
        assert monitor.report.remaps_requested == 1
        remapped = application.run(80.0)

        cold_machine = booted_machine(3, 3, 6)
        MonitorService(cold_machine).condemn_chip(victim)
        cold_application = NeuralApplication(cold_machine, layered_network(),
                                             max_neurons_per_core=8,
                                             seed=SEED, stagger_us=0.0)
        cold = cold_application.run(80.0)

        assert (application.placement.locations
                == cold_application.placement.locations)
        assert victim not in application.placement.chips_used()
        for label in cold.spike_counts:
            assert np.array_equal(remapped.spike_counts[label],
                                  cold.spike_counts[label])
        for label in cold.spikes:
            assert sorted(remapped.spikes[label]) == sorted(cold.spikes[label])
        assert remapped.delivered_charge_na == cold.delivered_charge_na

    def test_condemnation_remaps_only_affected_passes(self):
        machine, application = self._prepare()
        monitor = MonitorService(machine)
        monitor.attach_application(application)
        victim = self._victim(application)
        displaced = sum(1 for chip, _ in
                        application.placement.locations.values()
                        if chip == victim)
        assert displaced > 0
        monitor.condemn_chip(victim)
        records = application.pipeline.records
        # The partition artifact is untouched; the expensive expansion-
        # derived artifacts (reach, packed blocks) were reused; only the
        # displaced vertices' cores were rebuilt.
        assert records["partition"].cache_hits >= 1
        scope = records["synaptic-matrices"].last_scope
        assert "full" not in scope
        rebuilt = int(scope.split()[0])
        assert rebuilt < len(application.placement.locations)

    def test_live_remap_keeps_surviving_state_and_delivery(self):
        machine, application = self._prepare()
        monitor = MonitorService(machine)
        monitor.attach_application(application)   # reset=False: live path
        application.run(40.0)
        before = application.result.total_spikes()
        survivors = {id(r) for r in application.core_runtimes
                     if r.chip_coordinate != self._victim(application)}
        monitor.condemn_chip(self._victim(application))
        result = application.run(60.0)
        # Surviving runtimes were kept (state intact), displaced ones
        # rebuilt, and the application keeps spiking with clean routing.
        kept = {id(r) for r in application.core_runtimes}
        assert survivors <= kept
        assert result.total_spikes() > before
        assert application.unmatched_packets == 0


RING_SEED, RING_N = 11, 96


def ring_pipeline(condemned=()):
    """The e2e four-board machine, ``condemned`` chips mapped out, and a
    sharded pipeline for ring8(96) dense, placed round-robin."""
    machine = SpiNNakerMachine(workloads.four_board_config())
    BootController(machine, seed=RING_SEED).boot()
    monitor = MonitorService(machine)
    for chip in condemned:
        monitor.condemn_chip(chip)
    return monitor, MappingPipeline(
        machine, workloads.ring8(RING_N, RING_SEED, workloads.DENSE),
        seed=RING_SEED,
        max_neurons_per_core=RING_N // workloads.VERTICES_PER_POPULATION,
        placement_strategy=workloads.PLACEMENT, shard_by_board=True)


def cold_shard(ctx):
    """The shard pass run from nothing over ``ctx``'s compiled artifacts."""
    cold = copy.copy(ctx)
    cold.board_contexts, cold.board_pair_min_delay = {}, {}
    cold.last_scope = {}
    ShardByBoardPass().run(cold)
    return cold


def assert_same_shards(ctx, cold) -> None:
    """Every board context and every pair delay equal ``cold``'s.

    Keys are sticky, so a re-mapped vertex keeps the key of its first
    home while a cold compile keys it by its new one: keys are compared
    through the vertex they belong to.
    """
    keys = {ctx.keys.key_space(vertex).base_key:
            cold.keys.key_space(vertex).base_key
            for vertex in ctx.placement.locations}
    assert sorted(ctx.board_contexts) == sorted(cold.board_contexts)
    for board, expected in cold.board_contexts.items():
        context = ctx.board_contexts[board]
        assert [dataclasses.replace(core, base_key=keys[core.base_key])
                for core in context.cores] == expected.cores, board
        for field in dataclasses.fields(expected.delivery_index):
            mine = getattr(context.delivery_index, field.name)
            theirs = getattr(expected.delivery_index, field.name)
            if isinstance(theirs, dict):
                # In order too: the arena follows the key order.
                assert [(keys[key], value) for key, value in mine.items()
                        ] == list(theirs.items()), (board, field.name)
            else:
                assert np.asarray(mine).dtype == np.asarray(theirs).dtype
                assert np.array_equal(mine, theirs), (board, field.name)
    assert ctx.board_pair_min_delay == cold.board_pair_min_delay


def free_core(machine, chip):
    """An available application core of ``chip``."""
    chip_model = machine.chips[chip]
    return next(core.core_id for core in chip_model.cores
                if core.core_id != chip_model.monitor_core_id
                and core.is_available)


class TestShardedRemap:
    def test_remap_matches_a_cold_compile_after_every_step(self):
        monitor, pipeline = ring_pipeline()
        ctx = pipeline.run()
        config = pipeline.ctx.machine.config
        condemned = []

        def condemn_last_chip():
            victim = ctx.placement.chips_used()[-1]
            condemned.append(victim)
            monitor.condemn_chip(victim)
            pipeline.run()
            _, cold = ring_pipeline(condemned)
            assert ctx.placement.locations == cold.run().placement.locations
            assert_same_shards(ctx, cold.ctx)

        # The last chip's vertices leave board 3 for the next free chip
        # on board 0: a cross-board move.
        moved = [v for v, (chip, _) in ctx.placement.locations.items()
                 if chip == ctx.placement.chips_used()[-1]]
        condemn_last_chip()
        assert {config.board_of(ctx.placement.locations[v][0])
                for v in moved} == {0}
        # A pinned move of a source-only vertex from board 1 to board 2.
        stimulus = next(v for v, (chip, _) in ctx.placement.locations.items()
                        if v.population_label.startswith("stim")
                        and config.board_of(chip) == 1)
        chip = ChipCoordinate(20, 2)
        assert config.board_of(chip) == 2
        pipeline.remap_moves({stimulus: (chip, free_core(ctx.machine,
                                                         chip))})
        assert_same_shards(ctx, cold_shard(ctx))
        # Condemning the pinned chip re-places from scratch: the stimulus
        # vertex goes home.  Then one move within board 0.
        condemn_last_chip()
        condemn_last_chip()
        assert len(condemned) == 3

    def test_a_condemnation_rebuilds_only_the_boards_it_touched(self):
        monitor, pipeline = ring_pipeline()
        ctx = pipeline.run()
        record = pipeline.records["shard-by-board"]
        assert record.last_scope == "4/4 boards rebuilt, 864 legs"
        feeders = ctx.feeders_of()
        monitor.condemn_chip(ctx.placement.chips_used()[-1])
        pipeline.run()
        rebuilt, total = map(int, record.last_scope.split()[0].split("/"))
        assert total == 4 and 1 <= rebuilt <= 2
        # The reverse reach does not depend on placement.
        assert ctx.feeders_of() is feeders
        # Nothing changed: a cache hit, every board kept as it was.
        contexts = dict(ctx.board_contexts)
        pipeline.run()
        assert record.last_scope == "cached"
        assert all(ctx.board_contexts[board] is context
                   for board, context in contexts.items())

    def test_a_pair_that_loses_its_last_cross_board_leg_disappears(self):
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            2, 1, board_width=2, board_height=2, cores_per_chip=3))
        BootController(machine, seed=1).boot()
        network = Network(seed=SEED)
        network.connect(SpikeSourcePoisson(8, rate_hz=50.0, label="x-src"),
                        Population(8, "lif", label="x-dst"),
                        OneToOneConnector(weight=2.0, delay_ticks=3))
        pipeline = MappingPipeline(machine, network, seed=SEED,
                                   max_neurons_per_core=8,
                                   placement_strategy="round-robin",
                                   shard_by_board=True)
        ctx = pipeline.run()
        assert ctx.board_pair_min_delay == {}
        (source, home), = [(v, slot) for v, slot in
                           ctx.placement.locations.items()
                           if v.population_label == "x-src"]
        away = ChipCoordinate(2, 0)
        pipeline.remap_moves({source: (away, free_core(machine, away))})
        assert ctx.board_pair_min_delay == {(1, 0): 3}
        assert_same_shards(ctx, cold_shard(ctx))
        pipeline.remap_moves({source: home})
        assert ctx.board_pair_min_delay == {}
        assert_same_shards(ctx, cold_shard(ctx))


class TestSharedArtifacts:
    def test_host_injects_spikes_through_compiled_keys(self):
        machine = booted_machine()
        network = layered_network()
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=8, seed=SEED)
        application.prepare()
        host = HostSystem(machine)
        received_before = sum(r.core.packets_received
                              for r in application.core_runtimes)
        host.inject_population_spike(application.keys, "cp-relay", 3)
        machine.run()
        received_after = sum(r.core.packets_received
                             for r in application.core_runtimes)
        assert received_after > received_before
        assert application.unmatched_packets == 0

    def test_host_simulator_and_pipeline_share_expansion(self):
        # Whichever side expands first, both count the same synapses for
        # the same seed: one shared expansion artifact, no private caches.
        network = layered_network()
        reference = network.run(10.0)            # host expands first
        machine = booted_machine()
        pipeline = MappingPipeline(machine, network, seed=SEED,
                                   max_neurons_per_core=8)
        ctx = pipeline.run()
        mapped = sum(data.total_synapses for data in ctx.core_data.values())
        assert mapped == network.n_synapses() > 0
        assert reference.total_spikes() >= 0


class TestLeaseCompile:
    def test_job_compiles_against_confined_view(self):
        machine = SpiNNakerMachine(MachineConfig(width=8, height=8,
                                                 cores_per_chip=6))
        host = HostSystem(machine)
        server = AllocationServer(host, power_on_delay_us=10.0)
        job = server.create_job("tenant", 4, 4, keepalive_ms=1e9)
        machine.run()
        view = job.machine_view
        assert view is not None
        BootController(view, seed=7).boot()
        application = NeuralApplication(view, layered_network(),
                                        max_neurons_per_core=8, seed=SEED)
        application.prepare()
        leased = set(view.chips)
        # The compiled artifacts never leave the lease.
        assert set(application.placement.chips_used()) <= leased
        assert set(application.pipeline.ctx.chip_entries) <= leased
        result = application.run(40.0)
        assert result.total_spikes() > 0

    def test_lease_shrink_triggers_incremental_remap(self):
        # A chip condemned inside a live lease is carved out of the view
        # entirely; the job's re-map must re-place around the hole
        # without touching (or crashing on) the chip that vanished.
        machine = SpiNNakerMachine(MachineConfig(width=8, height=8,
                                                 cores_per_chip=6))
        host = HostSystem(machine)
        server = AllocationServer(host, power_on_delay_us=10.0)
        job = server.create_job("tenant", 4, 4, keepalive_ms=1e9)
        machine.run()
        view = job.machine_view
        BootController(view, seed=7).boot()
        application = NeuralApplication(view, layered_network(),
                                        max_neurons_per_core=8, seed=SEED,
                                        stagger_us=0.0)
        application.run(20.0)
        victim = application.placement.chips_used()[-1]
        server.scheduler.handle_dead_chip(victim)
        view.refresh()
        assert victim not in view.chips
        application.remap()
        assert victim not in application.placement.chips_used()
        before = application.result.total_spikes()
        application.run(30.0)
        assert application.result.total_spikes() > before
        assert application.unmatched_packets == 0
