"""The cluster's spike-exchange data path (shared memory + lookahead).

Only a pooled run exchanges spikes: the serial run steps every board in
one engine, which delivers each batch on every board it reaches, so it
reads nothing here but the plan's key tables.  Pickling per-tick batches
through ``multiprocessing`` pipes under a parent-mediated barrier every
tick costs more than the parallelism gains, so the pool's data path is
built from the three classic PDES ingredients:

* **Preallocated shared-memory regions.**  One
  :class:`multiprocessing.shared_memory.SharedMemory` segment holds a
  packed ``uint32`` region per *(source board, destination board)* pair
  that can exchange spikes.  A batch is ``[key, send_tick, count,
  index...]`` — a couple of array copies per tick instead of a pickle
  round-trip.
* **Worker-side routing.**  The ``key -> destination boards`` table is
  part of the :class:`ExchangePlan` shipped to every worker at startup,
  so workers write batches straight into their destinations' inbound
  regions.  The parent never touches per-tick spike data; it only
  sequences barriers and (optionally) replays the same regions through
  the transport fabric for accounting.
* **Conservative lookahead.**  A cross-board spike emitted at tick ``t``
  cannot influence another board before ``t + 1 + d_min`` (``d_min`` =
  the minimum cross-board synaptic delay, read per board pair by the
  ShardByBoard pass), so every board may run ``L = 1 + d_min`` ticks
  between barriers.  Batches carry their send tick; the receiver
  re-bases each event's programmable delay by the batch's age
  (:meth:`~repro.cluster.fused.FusedBoardEngine.apply_remote`).

Synchronisation is lock-free by construction: every region has exactly
one writer (the worker owning the source board), regions are double
-banked (super-step ``s`` writes bank ``s % 2`` while readers drain bank
``(s - 1) % 2``), and the parent's pipe barrier provides the
happens-before edge between a bank's writes and its reads.  No shared
mutable state is guarded by a lock because none is concurrently
written.

Determinism: readers always drain regions in canonical (source board,
destination board) order, a re-based event lands in the slot a local
delivery at its send tick would have used, and ring-buffer accumulation
is exact (fixed-point weights in float64), so results are bit-identical
across worker counts *and* lookahead depths.
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

    Built once per run from the compiled board contexts; shipped to the
    workers at startup (worker-side routing) and kept by the parent
    (accounting replay reads the same regions).  The serial run reads
    only its key tables.
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
    #: board order.  The worker-side routing table.
    cross_destinations: Dict[int, Tuple[int, ...]]
    #: key -> lowest cross destination: the single region the parent
    #: replays the batch from, so accounting charges each batch once.
    first_cross_destination: Dict[int, int]
    #: board -> keys the board's engine must hand to the exchange
    #: (cross-board batches plus, under accounting, local-only stubs).
    export_keys: Dict[int, FrozenSet[int]]
    #: board -> keys exported as full cross-board batches.
    remote_keys: Dict[int, FrozenSet[int]]
    #: board -> local-only keys exported as count-only accounting stubs
    #: through the ``(board, board)`` region (empty unless accounting).
    stub_keys: Dict[int, FrozenSet[int]]
    #: (source board, destination board) -> payload capacity in words of
    #: one bank.  ``(b, b)`` entries are the accounting-stub regions.
    region_capacity: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def words_per_bank(self) -> Dict[Tuple[int, int], int]:
        """Bank size per region: one used-words header + the payload."""
        return {pair: 1 + capacity
                for pair, capacity in self.region_capacity.items()}

    @property
    def total_words(self) -> int:
        """Segment size in words (two banks per region)."""
        return 2 * sum(self.words_per_bank.values())

    def inbound_pairs(self, board: int) -> List[Tuple[int, int]]:
        """Regions a board drains, in canonical source order."""
        return [(src, board) for src in self.boards
                if src != board and (src, board) in self.region_capacity]

    @classmethod
    def build(cls, board_contexts: Dict[int, BoardContext],
              pair_min_delay: Dict[Tuple[int, int], int],
              lookahead: Optional[int] = None,
              account_transport: bool = False) -> "ExchangePlan":
        """Derive the plan from the compiled per-board sub-contexts.

        ``lookahead=None`` selects the deepest safe depth; an explicit
        request is clamped into ``1..max_lookahead`` (running deeper
        than ``1 + d_min`` would deliver spikes late, so the clamp is a
        correctness guard, not a heuristic).
        """
        boards = sorted(board_contexts)
        key_home: Dict[int, int] = {}
        key_neurons: Dict[int, int] = {}
        outgoing: Dict[int, List[int]] = {board: [] for board in boards}
        for board in boards:
            for core in board_contexts[board].cores:
                if core.has_outgoing:
                    key_home[core.base_key] = board
                    key_neurons[core.base_key] = core.vertex.n_neurons
                    outgoing[board].append(core.base_key)

        destinations: Dict[int, List[int]] = {}
        for board in boards:
            for key in board_contexts[board].delivery_index.first_row:
                destinations.setdefault(key, []).append(board)

        cross: Dict[int, Tuple[int, ...]] = {}
        first_cross: Dict[int, int] = {}
        for key, dests in destinations.items():
            home = key_home.get(key)
            remote = tuple(dst for dst in dests if dst != home)
            if remote:
                cross[key] = remote
                first_cross[key] = remote[0]

        d_min = min(pair_min_delay.values()) if pair_min_delay else None
        max_lookahead = (1 + d_min) if d_min is not None \
            else UNCONSTRAINED_LOOKAHEAD
        if lookahead is None:
            effective = max_lookahead
        else:
            if lookahead < 1:
                raise ValueError("lookahead must be at least 1")
            effective = min(lookahead, max_lookahead)

        remote_keys = {board: frozenset(
            key for key in outgoing[board] if key in cross)
            for board in boards}
        stub_keys = {board: frozenset(
            key for key in outgoing[board]
            if key not in cross and key in destinations) if account_transport
            else frozenset() for board in boards}
        export_keys = {board: remote_keys[board] | stub_keys[board]
                       for board in boards}

        capacity: Dict[Tuple[int, int], int] = {}
        for board in boards:
            for key in remote_keys[board]:
                words = BATCH_HEADER_WORDS + key_neurons[key]
                for dst in cross[key]:
                    capacity[(board, dst)] = (
                        capacity.get((board, dst), 0) + words)
            if stub_keys[board]:
                capacity[(board, board)] = (
                    BATCH_HEADER_WORDS * len(stub_keys[board]))
        capacity = {pair: words * effective
                    for pair, words in capacity.items()}

        return cls(boards=boards, lookahead=effective, d_min=d_min,
                   max_lookahead=max_lookahead, cross_destinations=cross,
                   first_cross_destination=first_cross,
                   export_keys=export_keys, remote_keys=remote_keys,
                   stub_keys=stub_keys, region_capacity=capacity)


class SharedMemoryExchange:
    """The packed ``uint32`` exchange over one shared-memory segment.

    Layout: per region (in plan order) two banks, each ``1 + capacity``
    words — word 0 of a bank is the used-payload-words count, written by
    the region's single writer after every append (no reader looks
    before the pipe barrier, so no memory-ordering machinery is
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

    def begin(self, bank: int, sources) -> None:
        for (src, dst) in self.plan.region_capacity:
            if src in sources:
                self._view(src, dst, bank)[0] = 0
                self._used[(src, dst, bank)] = 0

    def write_board_batches(self, src: int, bank: int, tick: int,
                            exported) -> None:
        """Route one board's exported batches into its write regions.

        A cross-board batch is copied into the inbound region of each of
        its destination boards; a stub key becomes a count-only record in
        the board's own ``(src, src)`` region.
        """
        plan = self.plan
        remote = plan.remote_keys[src]
        for key, spiking in exported:
            if key in remote:
                for dst in plan.cross_destinations[key]:
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
