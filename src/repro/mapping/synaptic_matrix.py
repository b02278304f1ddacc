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

The synaptic-matrix pass of :mod:`repro.compile` filters every source
row down to the synapses that land on each destination vertex
(:func:`pack_block`) and writes the packed rows into the destination
chip's SDRAM model (:func:`write_packed_block`), so the on-machine
runtime fetches exactly the bytes a real SpiNNaker core would;
:func:`decode_block` reads an installed block back for the engines that
replay deliveries in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.mapping.keys import KeySpace
from repro.mapping.placement import Vertex
from repro.neuron.engine import (CSRMatrix, pack_synapse_words,
                                 unpack_synapse_words)


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

    def address_of(self, packet_key: int) -> Tuple[int, int]:
        """SDRAM address and length (words) of the row for ``packet_key``."""
        neuron_index = packet_key & ~self.mask & 0xFFFFFFFF
        if neuron_index >= self.n_rows:
            raise KeyError("key 0x%08x indexes row %d of a %d-row block"
                           % (packet_key, neuron_index, self.n_rows))
        return (self.sdram_address + 4 * neuron_index * self.row_stride_words,
                self.row_stride_words)


class MasterPopulationTable:
    """The per-core lookup from routing key to synaptic-row address."""

    def __init__(self) -> None:
        self.entries: List[PopulationTableEntry] = []
        self.lookups = 0
        self.misses = 0

    def add(self, entry: PopulationTableEntry) -> None:
        """Register a source vertex's block."""
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

    def lookup(self, packet_key: int) -> Optional[Tuple[int, int]]:
        """Resolve a packet key to ``(sdram_address, row_words)`` or ``None``."""
        self.lookups += 1
        entry = self.entry_for(packet_key)
        if entry is None:
            self.misses += 1
            return None
        return entry.address_of(packet_key)

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


def pack_block(block: CSRMatrix) -> np.ndarray:
    """Pack one (source vertex -> destination core) CSR block.

    Returns one zero-padded ``(n_rows, stride)`` ``uint32`` array: per
    source neuron a synapse count (column 0) and the packed words — the
    placement-independent artifact the mapping compiler caches: a
    re-map that moves vertices around reuses these words verbatim, only
    the SDRAM addresses and population-table records are rebuilt.
    """
    counts = block.row_lengths()
    rows = np.zeros((block.n_pre, 1 + int(counts.max())), dtype=np.uint32)
    rows[:, 0] = counts
    column = 1 + np.arange(block.n_synapses) - block.row_ptr[block.pre_index]
    rows[block.pre_index, column] = pack_synapse_words(
        block.targets, block.weights, block.delay_ticks)
    return rows


def write_packed_block(chip, data: CoreSynapticData, space: KeySpace,
                       source_vertex: Vertex, rows: np.ndarray) -> None:
    """Write one :func:`pack_block` array into ``chip``'s SDRAM and index it.

    Rows are padded to the fixed stride so the packet handler can
    compute a row address directly from the neuron index, exactly as the
    real master population table does.
    """
    region = chip.sdram.allocate(
        4 * rows.size, tag="synapses:%s->%s" % (source_vertex, data.vertex))
    chip.sdram.write_block(region.base, rows)
    data.total_synapses += int(rows[:, 0].sum())
    data.total_sdram_words += rows.size
    data.regions.append(region)
    data.population_table.add(PopulationTableEntry(
        key=space.base_key, mask=space.mask, sdram_address=region.base,
        row_stride_words=rows.shape[1], n_rows=rows.shape[0]))


def decode_block(chip, entry: PopulationTableEntry,
                 n_post: int) -> CSRMatrix:
    """Decode one installed block back out of ``chip``'s SDRAM.

    Reads the words :func:`write_packed_block` wrote (``peek_block``:
    compile-time decoding must not inflate the SDRAM traffic counters),
    so the decoded weights carry the on-machine fixed-point
    quantisation.
    """
    stride = entry.row_stride_words
    words = chip.sdram.peek_block(entry.sdram_address, stride * entry.n_rows)
    rows = np.frombuffer(words, dtype=np.uint32).reshape(-1, stride)
    counts = rows[:, 0]
    if counts.max() > stride - 1:
        raise ValueError("row header claims %d synapses but only %d words "
                         "follow" % (counts.max(), stride - 1))
    keep = np.arange(stride - 1) < counts[:, None]
    return CSRMatrix(entry.n_rows, n_post, np.append(0, np.cumsum(counts)),
                     *unpack_synapse_words(rows[:, 1:][keep]))
