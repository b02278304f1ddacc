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
projection once into the synapses that land on each destination vertex,
lays each block's packed words out as fixed-stride rows
(:func:`pack_block`) and writes them into the destination chip's SDRAM
model (:func:`write_packed_block`), so the on-machine runtime fetches
exactly the bytes a real SpiNNaker core would.  The same write records
the block as the core's *delivery leg* for the source key — the one
decoded form of a block, which the event path's DMA-complete handler,
the transport fabric and the board shards all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mapping.keys import KeySpace
from repro.mapping.placement import Vertex
from repro.neuron.engine import CSRMatrix, unpack_synapse_words


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


def pack_block(n_rows: int, rows: np.ndarray,
               words: np.ndarray) -> np.ndarray:
    """Lay one (source vertex -> destination core) block's packed words
    (in row order, ``rows`` their block-local source rows) out as rows.

    Returns one zero-padded ``(n_rows, stride)`` ``uint32`` array: per
    source neuron a synapse count (column 0) and the packed words — the
    placement-independent artifact the mapping compiler caches: a
    re-map that moves vertices around reuses these words verbatim, only
    the SDRAM addresses and population-table records are rebuilt.
    """
    counts = np.bincount(rows, minlength=n_rows)
    block = np.zeros((n_rows, 1 + int(counts.max())), dtype=np.uint32)
    block[:, 0] = counts
    first = np.cumsum(counts) - counts
    block[rows, 1 + np.arange(rows.size) - first[rows]] = words
    return block


def write_packed_block(chip, data: CoreSynapticData, space: KeySpace,
                       source_vertex: Vertex, rows: np.ndarray,
                       synapses: Optional[List[np.ndarray]] = None) -> None:
    """Write one :func:`pack_block` array into ``chip``'s SDRAM and index it.

    Rows are padded to the fixed stride so the packet handler can
    compute a row address directly from the neuron index, exactly as the
    real master population table does.  The block is the core's leg for
    ``space``: ``synapses`` (the caller's decode of the words, in row
    order) or else decoded here — the words, not the CSR they were
    packed from, so the leg carries the fixed-point quantisation.
    """
    region = chip.sdram.allocate(
        4 * rows.size, tag="synapses:%s->%s" % (source_vertex, data.vertex))
    data.regions.append(region)
    chip.sdram.write_block(region.base, rows)
    data.population_table.add(PopulationTableEntry(
        key=space.base_key, mask=space.mask, sdram_address=region.base,
        row_stride_words=rows.shape[1], n_rows=rows.shape[0]))
    counts = rows[:, 0]
    data.total_synapses += int(counts.sum())
    data.total_sdram_words += rows.size
    if synapses is None:
        keep = np.arange(rows.shape[1] - 1) < counts[:, None]
        synapses = unpack_synapse_words(rows[:, 1:][keep])
    data.legs[space.base_key] = CSRMatrix(
        rows.shape[0], data.vertex.n_neurons, np.append(0, np.cumsum(counts)),
        *synapses)
