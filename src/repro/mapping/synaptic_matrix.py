"""Synaptic-matrix construction and the master population table (Section 5.3).

When a spike packet arrives at a core, the packet-received handler must
"identify the spiking neuron, map this to the associated block of
connectivity data in SDRAM, and then schedule a DMA to load that
information" (Figure 7).  Two data structures make that possible:

* the **master population table**: a per-core list of ``(key, mask) ->
  (SDRAM base address, row stride)`` records, searched with the incoming
  packet's routing key;
* the **synaptic matrix**: for each source vertex a block of SDRAM holding
  one packed synaptic row per source neuron, each row listing the synapses
  onto the *local* neurons of the core (target indices rewritten to the
  core-local numbering).

The synaptic-matrix pass of :mod:`repro.compile` splits every
projection once into the synapses that land on each destination vertex
and lays all of a projection's blocks out as fixed-stride rows in one
flat buffer (:func:`pack_blocks`), decoding the words once into every
block's *delivery leg* — the one decoded form of a block, which the
event path's DMA-complete handler, the transport fabric and the board
shards all read.  :func:`write_blocks` then installs a chip's blocks
(or one re-mapped core's) in its SDRAM model with one write, each block
in its own region with its own population-table record, so the
on-machine runtime fetches exactly the bytes a real SpiNNaker core
would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mapping.keys import KeySpace
from repro.mapping.placement import Vertex
from repro.neuron.engine import (CSRMatrix, pack_synapse_words,
                                 unpack_synapse_words)
from repro.neuron.synapse import MAX_DELAY_TICKS


@dataclass(frozen=True)
class PopulationTableEntry:
    """One record of a core's master population table."""

    key: int
    mask: int
    sdram_address: int
    row_stride_words: int
    n_rows: int

    def matches(self, packet_key: int) -> bool:
        """True if the packet key belongs to this entry's source vertex."""
        return (packet_key & self.mask) == self.key

    def row_of(self, packet_key: int) -> int:
        """The block row (source neuron) ``packet_key`` selects."""
        neuron_index = packet_key & ~self.mask & 0xFFFFFFFF
        if neuron_index >= self.n_rows:
            raise KeyError("key 0x%08x indexes row %d of a %d-row block"
                           % (packet_key, neuron_index, self.n_rows))
        return neuron_index

    def address_of(self, packet_key: int) -> Tuple[int, int]:
        """SDRAM address and length (words) of the row for ``packet_key``."""
        return (self.sdram_address
                + 4 * self.row_of(packet_key) * self.row_stride_words,
                self.row_stride_words)


class MasterPopulationTable:
    """The per-core lookup from routing key to synaptic-row address."""

    def __init__(self) -> None:
        self.entries: List[PopulationTableEntry] = []
        self.lookups = 0
        self.misses = 0

    def add(self, entry: PopulationTableEntry) -> None:
        """Register a source vertex's block (one per key: a second entry
        for the same key would never match, :meth:`entry_for` returns
        the first)."""
        if any(existing.key == entry.key for existing in self.entries):
            raise ValueError("the population table already holds a block "
                             "for key 0x%08x" % (entry.key,))
        self.entries.append(entry)

    def entry_for(self, packet_key: int) -> Optional[PopulationTableEntry]:
        """First entry matching ``packet_key``, without touching counters.

        The counter-neutral probe used by the transport fabric when it
        compiles delivery legs at load time (mirroring
        :meth:`MulticastRoutingTable.route_for`).
        """
        for entry in self.entries:
            if entry.matches(packet_key):
                return entry
        return None

    def lookup(self, packet_key: int) -> Optional[PopulationTableEntry]:
        """The packet handler's counted lookup: the matching entry, or
        ``None`` (a miss)."""
        entry = self.entry_for(packet_key)
        self.record_lookups(1, hit=entry is not None)
        return entry

    def record_lookups(self, n: int, hit: bool) -> None:
        """Count ``n`` lookups that all hit or all missed, without
        searching (the compiled transport fabric resolved its entry at
        load time and counts a whole batch)."""
        self.lookups += n
        if not hit:
            self.misses += n

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class CoreSynapticData:
    """Everything one application core needs to process incoming spikes."""

    vertex: Vertex
    population_table: MasterPopulationTable = field(
        default_factory=MasterPopulationTable)
    total_synapses: int = 0
    total_sdram_words: int = 0
    #: SDRAM regions backing this core's blocks, so an incremental re-map
    #: can free them when the vertex moves off the chip.
    regions: List = field(default_factory=list)
    #: Source base key -> the block decoded into a CSR leg (core-local
    #: targets, fixed-point weights), one per population-table entry.
    legs: Dict[int, CSRMatrix] = field(default_factory=dict)


def pack_blocks(n_rows: Sequence[int], n_post: Sequence[int],
                sizes: Sequence[int], rows: np.ndarray, targets: np.ndarray,
                weights: np.ndarray, delay_ticks: np.ndarray
                ) -> Tuple[List[np.ndarray], List[CSRMatrix]]:
    """Pack blocks back to back into one flat ``uint32`` buffer and
    decode each into its leg.

    Block ``k`` has ``n_rows[k]`` source rows, ``n_post[k]`` local
    targets and the next ``sizes[k]`` synapses of the columns, which run
    block by block, row-ordered within a block.  It is an ``(n_rows,
    stride)`` view of the buffer: per row a synapse count, then the
    packed words, zero-padded to ``stride = 1 + longest row``.  Its leg
    is its words decoded (fixed-point quantisation included): slices of
    one decode, range-checked once for every block.
    """
    n_rows = np.asarray(n_rows, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    words = pack_synapse_words(targets, weights, delay_ticks)
    targets, weights, delay_ticks = unpack_synapse_words(words)
    if targets.size and (
            (targets >= np.repeat(np.asarray(n_post), sizes)).any()
            or delay_ticks.min() < 1 or delay_ticks.max() > MAX_DELAY_TICKS):
        raise ValueError("synapse target outside its block, or delay "
                         "outside 1..%d ticks" % (MAX_DELAY_TICKS,))
    # Rows numbered over every block, back to back: so are their words.
    first_row = np.cumsum(n_rows) - n_rows
    row_block = np.repeat(np.arange(n_rows.size), n_rows)
    cell = np.repeat(first_row, sizes) + rows
    counts = np.bincount(cell, minlength=row_block.size)
    ends = np.cumsum(counts)
    row_stride = (1 + np.maximum.reduceat(counts, first_row))[row_block]
    row_word = np.cumsum(row_stride) - row_stride
    buffer = np.zeros(int(row_stride.sum()), dtype=np.uint32)
    buffer[row_word] = counts
    # The j-th synapse of a row is word j + 1 of the row.
    slot = np.arange(words.size)
    slot += (row_word + 1 - (ends - counts))[cell]
    buffer[slot] = words
    # Every block's row_ptr, back to back, each from 0.
    base = (ends - counts)[first_row]
    row_ptr = np.insert(ends, first_row, base) - np.repeat(base, n_rows + 1)
    blocks, legs = [], []
    for k, (n, post, size, row, word, stride, synapse) in enumerate(zip(
            n_rows.tolist(), n_post, sizes.tolist(), first_row.tolist(),
            row_word[first_row].tolist(), row_stride[first_row].tolist(),
            base.tolist())):
        blocks.append(buffer[word:word + n * stride].reshape(n, stride))
        at = slice(synapse, synapse + size)
        legs.append(CSRMatrix.checked_views(
            n, post, row_ptr[row + k:row + k + n + 1], targets[at],
            weights[at], delay_ticks[at], rows[at]))
    return blocks, legs


def write_blocks(chip, run: Sequence[Tuple[CoreSynapticData, KeySpace,
                                           Vertex, np.ndarray, CSRMatrix]]
                 ) -> None:
    """Install each ``(core data, source key space, source vertex,
    block, leg)`` of ``run`` in ``chip``'s SDRAM, in order: its own
    region (so a re-map can free it), its population-table record (rows
    keep the block's stride, so the packet handler computes a row
    address from the neuron index) and its core's leg for the key.  The
    bump allocator lays the regions back to back: one write."""
    regions = []
    for data, space, source, block, leg in run:
        regions.append(chip.sdram.allocate(
            4 * block.size, tag="synapses:%s->%s" % (source, data.vertex)))
        data.regions.append(regions[-1])
        data.population_table.add(PopulationTableEntry(
            key=space.base_key, mask=space.mask,
            sdram_address=regions[-1].base,
            row_stride_words=block.shape[1], n_rows=block.shape[0]))
        data.total_synapses += leg.n_synapses
        data.total_sdram_words += block.size
        data.legs[space.base_key] = leg
    words = np.concatenate([block.ravel() for *_, block, _leg in run])
    assert regions[-1].end - regions[0].base == 4 * words.size
    chip.sdram.write_block(regions[0].base, words)
