"""Tests for routing-table compression against the known key set."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import MappingPipeline
from repro.core.geometry import Direction
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.mapping.compression import TableCompressor, compress_machine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.router.routing_table import MulticastRoutingTable
from repro.runtime.boot import BootController


def routes_for(table, keys):
    """The key -> route map a table implements (None = miss)."""
    result = {}
    for key in keys:
        entry = None
        for candidate in table.entries:
            if candidate.matches(key):
                entry = candidate
                break
        result[key] = entry.route if entry is not None else None
    return result


class TestCompressorValidation:
    def test_rejects_keys_outside_32_bits(self):
        with pytest.raises(ValueError):
            TableCompressor([1 << 32])

    def test_known_keys_deduplicated_and_sorted(self):
        compressor = TableCompressor([5, 1, 5, 3])
        assert compressor.known_keys == [1, 3, 5]


class TestBlockCover:
    def test_single_key_gets_exact_entry_when_neighbours_foreign(self):
        compressor = TableCompressor([0, 1])
        blocks = compressor.cover_group({0}, foreign={1})
        assert blocks == [(0, 0xFFFFFFFF)]

    def test_contiguous_group_collapses_to_one_block(self):
        keys = set(range(16))
        compressor = TableCompressor(keys)
        blocks = compressor.cover_group(keys, foreign=set())
        assert len(blocks) == 1
        base, mask = blocks[0]
        assert base == 0
        assert all((key & mask) == base for key in keys)

    def test_foreign_keys_never_covered(self):
        group = {0, 1, 2, 3}
        foreign = {4}
        compressor = TableCompressor(group | foreign)
        blocks = compressor.cover_group(group, foreign)
        for base, mask in blocks:
            assert all((key & mask) != base for key in foreign)
        covered = {key for key in group
                   for base, mask in blocks if (key & mask) == base}
        assert covered == group

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=255), min_size=1,
                   max_size=40),
           st.sets(st.integers(min_value=0, max_value=255), max_size=40))
    def test_cover_is_exact_on_known_keys(self, group, foreign):
        foreign = foreign - group
        compressor = TableCompressor(group | foreign)
        blocks = compressor.cover_group(group, foreign)
        for key in group:
            assert any((key & mask) == base for base, mask in blocks)
        for key in foreign:
            assert all((key & mask) != base for base, mask in blocks)


class TestTableCompression:
    def _table_with_per_neuron_entries(self, n_keys=32):
        table = MulticastRoutingTable()
        for key in range(n_keys):
            table.add(key=key, mask=0xFFFFFFFF, links=[Direction.EAST])
        return table

    def test_same_route_entries_collapse(self):
        table = self._table_with_per_neuron_entries()
        compressor = TableCompressor(range(32))
        report = compressor.compress(table)
        assert report.entries_before == 32
        assert report.entries_after == 1
        assert report.entries_removed == 31
        assert report.compression_ratio == pytest.approx(1 / 32)

    def test_behaviour_preserved_for_known_keys(self):
        table = MulticastRoutingTable()
        table.add(key=0x10, mask=0xFFFFFFF0, links=[Direction.NORTH])
        table.add(key=0x20, mask=0xFFFFFFF0, cores=[3])
        known = list(range(0x10, 0x30))
        before = routes_for(table, known)
        TableCompressor(known).compress(table)
        after = routes_for(table, known)
        assert after == before

    def test_missed_keys_stay_missed(self):
        table = MulticastRoutingTable()
        table.add(key=4, mask=0xFFFFFFFF, cores=[1])
        known = [4, 5, 6]
        TableCompressor(known).compress(table)
        after = routes_for(table, known)
        assert after[4] is not None
        assert after[5] is None and after[6] is None

    def test_different_routes_not_merged(self):
        table = MulticastRoutingTable()
        table.add(key=0, mask=0xFFFFFFFF, links=[Direction.EAST])
        table.add(key=1, mask=0xFFFFFFFF, links=[Direction.WEST])
        compressor = TableCompressor([0, 1])
        report = compressor.compress(table)
        assert report.entries_after == 2
        after = routes_for(table, [0, 1])
        assert after[0] != after[1]

    def test_empty_table_report(self):
        table = MulticastRoutingTable()
        report = TableCompressor([1, 2, 3]).compress(table)
        assert report.entries_before == 0
        assert report.entries_after == 0
        assert report.compression_ratio == 1.0


class TestMachineCompression:
    def _mapped_machine(self, minimise=False):
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=6))
        BootController(machine, seed=3).boot()
        network = Network(seed=8)
        stimulus = SpikeSourcePoisson(60, rate_hz=50.0, label="cmp-stim")
        excitatory = Population(60, "lif", label="cmp-exc")
        network.connect(stimulus, excitatory,
                        FixedProbabilityConnector(p_connect=0.2, weight=0.5,
                                                  delay_range=(1, 3)))
        ctx = MappingPipeline(machine, network, seed=8,
                              max_neurons_per_core=16,
                              minimise=minimise).run()
        return machine, ctx.keys

    def test_compress_pass_never_grows_a_table_and_keeps_every_route(self):
        # The pipeline's own compress pass (pairwise minimise()) against
        # the same compilation with the pass switched off.
        raw, keys = self._mapped_machine(minimise=False)
        minimised, _ = self._mapped_machine(minimise=True)
        known = TableCompressor.from_allocator(keys).known_keys
        for coordinate, chip in raw.chips.items():
            table = minimised.chips[coordinate].router.table
            assert len(table) <= len(chip.router.table)
            assert routes_for(table, known) == routes_for(chip.router.table,
                                                          known)

    def test_compression_never_grows_any_table(self):
        machine, keys = self._mapped_machine()
        before = {coordinate: len(chip.router.table)
                  for coordinate, chip in machine.chips.items()}
        reports = compress_machine(machine, keys)
        for coordinate, report in reports.items():
            assert report.entries_before == before[coordinate]
            assert report.entries_after <= report.entries_before

    def test_compression_preserves_routes_for_all_allocated_keys(self):
        machine, keys = self._mapped_machine()
        compressor = TableCompressor.from_allocator(keys)
        before = {coordinate: routes_for(chip.router.table,
                                         compressor.known_keys)
                  for coordinate, chip in machine.chips.items()}
        compress_machine(machine, keys)
        for coordinate, chip in machine.chips.items():
            after = routes_for(chip.router.table, compressor.known_keys)
            assert after == before[coordinate]
