"""The cluster's spike-exchange data path (shared memory + lookahead).

Only traffic between pool workers is exchanged: a worker's one engine
delivers each batch on every board of its own it reaches, and the serial
run is the one-worker plan, with no regions.  Pickling per-tick batches
through ``multiprocessing`` pipes under a parent-mediated barrier every
tick costs more than the parallelism gains, so the pool's data path is
built from the three classic PDES ingredients:

* **Preallocated shared-memory regions.**  One
  :class:`multiprocessing.shared_memory.SharedMemory` segment holds a
  packed ``uint32`` region per *(source worker, destination worker)*
  pair that can exchange spikes.  A batch is ``[key, send_tick, count,
  index...]`` — a couple of array copies per tick instead of a pickle
  round-trip.
* **Worker-side routing.**  The ``key -> destination workers`` table is
  part of the :class:`ExchangePlan` shipped to every worker at startup,
  so a worker writes each batch once into the inbound region of every
  other worker it reaches, and the receiving engine scatters it onto
  every board of its own the key reaches.  The parent only sequences
  barriers and tallies (optionally replaying through the transport
  fabric) the same regions.
* **Conservative lookahead.**  A cross-board spike emitted at tick ``t``
  cannot influence another board before ``t + 1 + d_min`` (``d_min`` =
  the minimum cross-board synaptic delay, read per board pair by the
  ShardByBoard pass, over every board pair so the schedule does not
  depend on the worker count), so every worker may run ``L = 1 +
  d_min`` ticks between barriers.  Batches carry their send tick; the
  receiver re-bases each event's programmable delay by the batch's age
  (:meth:`~repro.cluster.fused.FusedBoardEngine.apply_remote`).

Synchronisation is lock-free by construction: every region has exactly
one writer (its source worker), regions are double-banked (super-step
``s`` writes bank ``s % 2`` while readers drain bank ``(s - 1) % 2``),
and the split barrier provides the happens-before edge between a bank's
writes and its reads.  No shared mutable state is guarded by a lock
because none is concurrently written.

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
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.compile.context import BoardContext
from repro.neuron.synapse import MAX_DELAY_TICKS

__all__ = [
    "BATCH_HEADER_WORDS",
    "ExchangePlan",
    "SharedMemoryExchange",
    "superstep_schedule",
]

#: Words prefixed to every batch record: ``key, send_tick, count``.
BATCH_HEADER_WORDS = 3

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
    routing) and kept by the parent (the tally reads the same regions).
    The serial run's one-worker plan has no regions, only tally stubs.
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
    #: worker order.  The worker-side routing table; its first entry is
    #: the one region the parent tallies the batch from.
    remote_workers: Dict[int, Tuple[int, ...]]
    #: worker -> keys its engine must hand to the exchange (batches for
    #: other workers plus count-only tally stubs).
    export_keys: Dict[int, FrozenSet[int]]
    #: worker -> keys exported as count-only tally stubs through the
    #: ``(worker, worker)`` region: keys that cross boards only within
    #: the worker, plus, under accounting, board-local keys.
    stub_keys: Dict[int, FrozenSet[int]]
    #: (source worker, destination worker) -> payload capacity in words
    #: of one bank.  ``(w, w)`` entries are the tally-stub regions.
    region_capacity: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_words(self) -> int:
        """Segment size in words: two banks per region, each a used-words
        header and the payload."""
        return 2 * sum(1 + words for words in self.region_capacity.values())

    def inbound_pairs(self, worker: int) -> List[Tuple[int, int]]:
        """Regions a worker drains, in canonical source order."""
        return sorted(pair for pair in self.region_capacity
                      if pair[1] == worker != pair[0])

    @classmethod
    def build(cls, board_contexts: Dict[int, BoardContext],
              pair_min_delay: Dict[Tuple[int, int], int],
              assignment: Dict[int, int],
              lookahead: Optional[int] = None,
              account_transport: bool = False) -> "ExchangePlan":
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
        key_neurons: Dict[int, int] = {}
        outgoing: Dict[int, List[int]] = {worker: [] for worker in workers}
        for board in boards:
            for core in board_contexts[board].cores:
                if core.has_outgoing:
                    key_home[core.base_key] = board
                    key_neurons[core.base_key] = core.vertex.n_neurons
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

        remote_keys = {worker: frozenset(
            key for key in outgoing[worker] if key in remote)
            for worker in workers}
        stub_keys = {worker: frozenset(
            key for key in outgoing[worker] if key not in remote
            and (key in cross or account_transport and key in destinations))
            for worker in workers}
        export_keys = {worker: remote_keys[worker] | stub_keys[worker]
                       for worker in workers}

        capacity: Dict[Tuple[int, int], int] = {}
        for worker in workers:
            for key in remote_keys[worker]:
                words = BATCH_HEADER_WORDS + key_neurons[key]
                for dst in remote[key]:
                    capacity[(worker, dst)] = (
                        capacity.get((worker, dst), 0) + words)
            # The serial run tallies its stubs straight from the engine.
            if stub_keys[worker] and len(workers) > 1:
                capacity[(worker, worker)] = (
                    BATCH_HEADER_WORDS * len(stub_keys[worker]))
        capacity = {pair: words * effective
                    for pair, words in capacity.items()}

        return cls(boards=boards, lookahead=effective, d_min=d_min,
                   max_lookahead=max_lookahead, cross_destinations=cross,
                   remote_workers=remote, export_keys=export_keys,
                   stub_keys=stub_keys, region_capacity=capacity)


class SharedMemoryExchange:
    """The packed ``uint32`` exchange over one shared-memory segment.

    Layout: per region (in plan order) two banks, each ``1 + capacity``
    words — word 0 of a bank is the used-payload-words count, written by
    the region's single writer after every append (no reader looks
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
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(4 * word, 1),
            name="repro-cluster-%d-%d" % (os.getpid(),
                                          next(self._sequence)))
        self.name = self._shm.name
        self._words = np.ndarray((word,), dtype=np.uint32,
                                 buffer=self._shm.buf) if word else None
        self._used: Dict[Tuple[int, int, int], int] = {}
        self._unlinked = False

    def _view(self, src: int, dst: int, bank: int) -> np.ndarray:
        offset, capacity = self._offsets[(src, dst, bank)]
        return self._words[offset:offset + 1 + capacity]

    def begin(self, bank: int, worker: int) -> None:
        """Empty ``worker``'s write regions of ``bank``."""
        for (src, dst) in self.plan.region_capacity:
            if src == worker:
                self._view(src, dst, bank)[0] = 0
                self._used[(src, dst, bank)] = 0

    def write_batches(self, src: int, bank: int, tick: int,
                      exported) -> None:
        """Route one worker's exported batches into its write regions.

        A batch for other workers is copied once into the inbound region
        of each of them; a stub key becomes a count-only record in the
        worker's own ``(src, src)`` region.
        """
        remote = self.plan.remote_workers
        for key, spiking in exported:
            if key in remote:
                for dst in remote[key]:
                    self.write_batch(src, dst, bank, key, tick, spiking)
            else:
                self.write_stub(src, bank, key, tick, int(spiking.size))

    def write_batch(self, src: int, dst: int, bank: int, key: int,
                    tick: int, indices: np.ndarray) -> None:
        view = self._view(src, dst, bank)
        used = self._used[(src, dst, bank)]
        count = int(indices.size)
        needed = BATCH_HEADER_WORDS + count
        if 1 + used + needed > view.size:  # pragma: no cover - capacity
            raise RuntimeError(               # bound is worst-case exact
                "exchange region %d->%d overflow" % (src, dst))
        pos = 1 + used
        view[pos] = key
        view[pos + 1] = tick
        view[pos + 2] = count
        if count:
            view[pos + 3:pos + 3 + count] = indices
        self._used[(src, dst, bank)] = used + needed
        view[0] = used + needed

    def write_stub(self, src: int, bank: int, key: int, tick: int,
                   count: int) -> None:
        view = self._view(src, src, bank)
        used = self._used[(src, src, bank)]
        pos = 1 + used
        view[pos] = key
        view[pos + 1] = tick
        view[pos + 2] = count
        self._used[(src, src, bank)] = used + BATCH_HEADER_WORDS
        view[0] = used + BATCH_HEADER_WORDS

    def read(self, src: int, dst: int,
             bank: int) -> Iterator[Tuple[int, int, np.ndarray]]:
        view = self._view(src, dst, bank)
        end = 1 + int(view[0])
        pos = 1
        while pos < end:
            count = int(view[pos + 2])
            # astype copies out of the segment: the bank is recycled two
            # super-steps later, while ring scatters may hold the array.
            yield (int(view[pos]), int(view[pos + 1]),
                   view[pos + 3:pos + 3 + count].astype(np.int64))
            pos += BATCH_HEADER_WORDS + count

    def read_counts(self, src: int, dst: int,
                    bank: int) -> Iterator[Tuple[int, int]]:
        view = self._view(src, dst, bank)
        end = 1 + int(view[0])
        pos = 1
        payload = 0 if src == dst else None
        while pos < end:
            count = int(view[pos + 2])
            yield int(view[pos]), count
            pos += BATCH_HEADER_WORDS + (payload if payload is not None
                                         else count)

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
