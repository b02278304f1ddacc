"""The cluster's spike-exchange data path (shared memory + lookahead).

Only traffic between pool workers is exchanged: a worker's one engine
delivers each fired neuron on every board of its own its key reaches,
and the serial run is the one-worker plan, with no regions.  Pickling
per-tick spikes through ``multiprocessing`` pipes under a
parent-mediated barrier every tick costs more than the parallelism
gains, so the pool's data path is built from the three classic PDES
ingredients:

* **Preallocated shared-memory regions.**  One
  :class:`multiprocessing.shared_memory.SharedMemory` segment holds a
  packed ``uint32`` region per *(source worker, destination worker)*
  pair that can exchange spikes.  A record is ``[send_tick, count, plan
  cell...]``, one per tick and destination worker — a couple of array
  copies per tick instead of a pickle round-trip.  A *plan cell*
  numbers every placed neuron of the run: boards in order, cores in
  board order, neurons in slice order (:attr:`ExchangePlan.key_cells`).
* **Worker-side routing.**  The ``key -> destination workers`` table is
  part of the :class:`ExchangePlan` shipped to every worker at startup;
  the exchange turns it into one cell mask per region, so a worker
  writes each tick's exported cells once into the inbound region of
  every other worker they reach, and the receiving engine scatters
  them onto every board of its own their keys reach.  The parent is
  not a party to the exchange at all: it starts the workers and, after
  the run, tallies the traffic from the batch sizes the engines
  recorded.
* **Conservative lookahead.**  A cross-board spike emitted at tick ``t``
  cannot influence another board before ``t + 1 + d_min`` (``d_min`` =
  the minimum cross-board synaptic delay, read per board pair by the
  ShardByBoard pass, over every board pair so the schedule does not
  depend on the worker count), so every worker may run ``L = 1 +
  d_min`` ticks between barriers.  Records carry their send tick; the
  receiver re-bases each event's programmable delay by the record's age
  (:meth:`~repro.cluster.fused.FusedBoardEngine.apply_remote`).

Synchronisation is lock-free by construction: every region has exactly
one writer (its source worker), regions are double-banked (super-step
``s`` writes bank ``s % 2`` while readers drain bank ``(s - 1) % 2``),
and the workers' split barrier provides the happens-before edge between
a bank's writes and its reads.  No shared mutable state is guarded by a
lock because none is concurrently written.

Determinism: an exchanged event lands in the ring slot a local delivery
at its send tick would have used, and ring-buffer accumulation is exact
(fixed-point weights in float64) and clamped only as its tick drains, so
results are bit-identical across worker counts *and* lookahead depths.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.compile.context import BoardContext
from repro.neuron.synapse import MAX_DELAY_TICKS

__all__ = [
    "RECORD_HEADER_WORDS",
    "ExchangePlan",
    "SharedMemoryExchange",
    "superstep_schedule",
]

#: Words prefixed to every record: ``send_tick, count``.
RECORD_HEADER_WORDS = 2

#: Lookahead cap when *no* synapse crosses a board boundary (any depth
#: is then safe; the cap just bounds region capacity).
UNCONSTRAINED_LOOKAHEAD = 1 + MAX_DELAY_TICKS


def superstep_schedule(n_ticks: int, lookahead: int) -> List[Tuple[int, int]]:
    """``(start_tick, length)`` of every super-step covering ``n_ticks``."""
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1")
    return [(start, min(lookahead, n_ticks - start))
            for start in range(0, n_ticks, lookahead)]


@dataclass
class ExchangePlan:
    """Everything both sides of the exchange agree on before the run.

    Built once per run from the compiled board contexts and the board ->
    worker assignment; shipped to the workers at startup (worker-side
    routing) and kept by the parent (the tally reads the cross-board
    destinations).  The serial run's one-worker plan has no regions and
    no export keys.
    """

    #: Boards in canonical order.
    boards: List[int]
    #: Effective super-step depth (``1`` = exchange every tick).
    lookahead: int
    #: Minimum cross-board synaptic delay; ``None`` when no synapse
    #: crosses a board boundary.
    d_min: Optional[int]
    #: The largest safe lookahead (``1 + d_min``).
    max_lookahead: int
    #: key -> destination boards *other than* the key's home board, in
    #: board order: what the tally counts as crossing board cables.
    cross_destinations: Dict[int, Tuple[int, ...]]
    #: key -> destination workers *other than* the key's home worker, in
    #: worker order: the worker-side routing table.
    remote_workers: Dict[int, Tuple[int, ...]]
    #: worker -> keys its engine must hand to the exchange: its keys
    #: that have remote workers.
    export_keys: Dict[int, FrozenSet[int]]
    #: key -> the plan cells of its core's neurons (every placed core).
    key_cells: Dict[int, range]
    #: (source worker, destination worker) -> payload capacity in words
    #: of one bank; source and destination always differ.
    region_capacity: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        """Placed neurons of the run: the plan cells."""
        return max((cells.stop for cells in self.key_cells.values()),
                   default=0)

    @property
    def total_words(self) -> int:
        """Segment size in words: two banks per region, each a used-words
        header and the payload."""
        return 2 * sum(1 + words for words in self.region_capacity.values())

    def inbound_pairs(self, worker: int) -> List[Tuple[int, int]]:
        """Regions a worker drains, in canonical source order."""
        return sorted(pair for pair in self.region_capacity
                      if pair[1] == worker)

    @classmethod
    def build(cls, board_contexts: Dict[int, BoardContext],
              pair_min_delay: Dict[Tuple[int, int], int],
              assignment: Dict[int, int],
              lookahead: Optional[int] = None) -> "ExchangePlan":
        """Derive the plan from the compiled per-board sub-contexts.

        ``assignment`` maps each board to its worker.  ``lookahead=None``
        selects the deepest safe depth; an explicit request is clamped into
        ``1..max_lookahead`` (running deeper than ``1 + d_min`` would
        deliver spikes late, so the clamp is a correctness guard, not a
        heuristic).
        """
        boards = sorted(board_contexts)
        workers = sorted(set(assignment.values())) or [0]
        key_home: Dict[int, int] = {}
        key_cells: Dict[int, range] = {}
        outgoing: Dict[int, List[int]] = {worker: [] for worker in workers}
        cell = 0
        for board in boards:
            for core in board_contexts[board].cores:
                key_cells[core.base_key] = range(
                    cell, cell + core.vertex.n_neurons)
                cell += core.vertex.n_neurons
                if core.has_outgoing:
                    key_home[core.base_key] = board
                    outgoing[assignment[board]].append(core.base_key)

        destinations: Dict[int, List[int]] = {}
        for board in boards:
            for key in board_contexts[board].delivery_index.first_row:
                destinations.setdefault(key, []).append(board)

        cross: Dict[int, Tuple[int, ...]] = {}
        remote: Dict[int, Tuple[int, ...]] = {}
        for key, dests in destinations.items():
            home = key_home.get(key)
            cross_boards = tuple(dst for dst in dests if dst != home)
            if cross_boards:
                cross[key] = cross_boards
                to_workers = {assignment[dst] for dst in cross_boards}
                to_workers.discard(assignment.get(home))
                if to_workers:
                    remote[key] = tuple(sorted(to_workers))

        d_min = min(pair_min_delay.values()) if pair_min_delay else None
        max_lookahead = (1 + d_min) if d_min is not None \
            else UNCONSTRAINED_LOOKAHEAD
        if lookahead is None:
            effective = max_lookahead
        else:
            if lookahead < 1:
                raise ValueError("lookahead must be at least 1")
            effective = min(lookahead, max_lookahead)

        export_keys = {worker: frozenset(
            key for key in outgoing[worker] if key in remote)
            for worker in workers}

        # A region holds at most one record per tick of a super-step,
        # each at most every cell its source exports to its destination.
        capacity: Dict[Tuple[int, int], int] = {}
        for worker in workers:
            for key in export_keys[worker]:
                for dst in remote[key]:
                    capacity[(worker, dst)] = (capacity.get((worker, dst), 0)
                                               + len(key_cells[key]))
        capacity = {pair: (RECORD_HEADER_WORDS + cells) * effective
                    for pair, cells in capacity.items()}

        return cls(boards=boards, lookahead=effective, d_min=d_min,
                   max_lookahead=max_lookahead, cross_destinations=cross,
                   remote_workers=remote, export_keys=export_keys,
                   key_cells=key_cells, region_capacity=capacity)


class SharedMemoryExchange:
    """The packed ``uint32`` exchange over one shared-memory segment.

    Layout: per region (in plan order) two banks, each ``1 + capacity``
    words — word 0 of a bank is the used-payload-words count, written
    (and read back) by the region's single writer after every append (no reader looks
    before the split barrier, so no memory-ordering machinery is
    needed).  The segment is created by the parent before the workers
    fork and unlinked by the parent in a ``finally`` — including when a
    worker crashed mid-run — so a run can never leak ``/dev/shm``
    segments.
    """

    _sequence = itertools.count()

    def __init__(self, plan: ExchangePlan) -> None:
        self.plan = plan
        self._offsets: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        word = 0
        for pair in sorted(plan.region_capacity):
            capacity = plan.region_capacity[pair]
            for bank in (0, 1):
                self._offsets[pair + (bank,)] = (word, capacity)
                word += 1 + capacity
        # The routing table as one plan-cell mask per region: which of
        # the source's cells the destination takes.
        self._routes: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for src, dst in sorted(plan.region_capacity):
            mask = np.zeros(plan.n_cells, dtype=bool)
            for key in plan.export_keys[src]:
                if dst in plan.remote_workers[key]:
                    cells = plan.key_cells[key]
                    mask[cells.start:cells.stop] = True
            self._routes.setdefault(src, []).append((dst, mask))
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(4 * word, 1),
            name="repro-cluster-%d-%d" % (os.getpid(),
                                          next(self._sequence)))
        self.name = self._shm.name
        self._words = np.ndarray((word,), dtype=np.uint32,
                                 buffer=self._shm.buf) if word else None
        self._unlinked = False

    def _view(self, src: int, dst: int, bank: int) -> np.ndarray:
        offset, capacity = self._offsets[(src, dst, bank)]
        return self._words[offset:offset + 1 + capacity]

    def begin(self, bank: int, worker: int) -> None:
        """Empty ``worker``'s write regions of ``bank``."""
        for (src, dst) in self.plan.region_capacity:
            if src == worker:
                self._view(src, dst, bank)[0] = 0

    def write(self, src: int, bank: int, tick: int,
              cells: np.ndarray) -> None:
        """Route one tick's fired plan cells of worker ``src`` into its
        write regions: one record per other worker their keys reach,
        of the cells it takes."""
        for dst, mask in self._routes.get(src, ()):
            sent = cells[mask[cells]]
            if not sent.size:
                continue
            view = self._view(src, dst, bank)
            pos = 1 + int(view[0])
            end = pos + RECORD_HEADER_WORDS + sent.size
            if end > view.size:
                raise RuntimeError(
                    "exchange region %d->%d overflow" % (src, dst))
            view[pos] = tick
            view[pos + 1] = sent.size
            view[pos + 2:end] = sent
            view[0] = end - 1

    def inbound(self, dst: int, bank: int) -> Tuple[np.ndarray, np.ndarray]:
        """Worker ``dst``'s inbound records of ``bank``, in canonical
        source order, as ``(plan cells, each cell's send tick)``."""
        cells: List[np.ndarray] = [np.zeros(0, dtype=np.uint32)]
        ticks: List[int] = []
        sizes: List[int] = []
        for src, _dst in self.plan.inbound_pairs(dst):
            view = self._view(src, dst, bank)
            end = 1 + int(view[0])
            pos = 1
            while pos < end:
                tick, count = view[pos:pos + RECORD_HEADER_WORDS].tolist()
                pos += RECORD_HEADER_WORDS
                cells.append(view[pos:pos + count])
                ticks.append(tick)
                sizes.append(count)
                pos += count
        # Copied out of the segment: the bank is recycled two super-steps
        # later.
        return (np.concatenate(cells, dtype=np.intp),
                np.repeat(np.array(ticks, dtype=np.intp), sizes))

    def close(self) -> None:
        """Detach this process's mapping (workers, and the parent before
        unlink)."""
        self._words = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system — parent only, exactly
        once, on the run's ``finally`` path."""
        if not self._unlinked:
            self._unlinked = True
            self._shm.unlink()
