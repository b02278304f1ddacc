"""The synaptic-word format and the deferred-event ("soft delay") model.

Section 3.2 of the paper: electronic communication is effectively
instantaneous on biological timescales, but biological axonal/synaptic
delays "are almost certainly functional, so they can't simply be eliminated
in the model.  Instead, they are made 'soft'.  Each synapse has a
programmable delay associated with its input, which is re-inserted
algorithmically at the target neuron."  The paper also notes this is "one
of the most expensive functions of the neuron models in terms of the cost
of data storage held locally".

This module provides the field widths of the packed 32-bit synaptic word
(the codec itself is in :mod:`repro.neuron.engine`) and the one circular
post-synaptic input ring, :class:`DeferredEventBuffer`, that implements
the algorithmic re-insertion of the delay at the target neuron for the
host, a core and a board alike.  Every event is addressed by its ring
offset ``delay * width + column`` from the row that drains next.  The
accumulation rule belongs to the weights a caller delivers, not to the
ring: unquantised float weights go through
:meth:`~DeferredEventBuffer.add_events`, which sums in element order;
fixed-point weights (decoded 16-bit words) through
:meth:`~DeferredEventBuffer.add_fixed_point`, whose sums are exact in
any order, so it pre-sums a batch with at least half as many events as
cells in the rows it spans and scatters a sparser one (the crossover is
measured in its docstring).  The tick kernel (:mod:`repro.neuron.kernel`)
builds the ring, lays the cells of the units that share a tick out as
its columns and is the only caller of ``drain()``.

The ring holds each cell's exact charge and saturates it at the 16-bit
weight range once, when the tick drains it
(:meth:`DeferredEventBuffer.drain`), counting one saturation per clamped
neuron cell.  A cell's input therefore depends only on the charge that
reached it, not on how that charge was batched: per event, per
projection, per board or per worker.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Number of delay slots supported by the deferred-event buffer.  The
#: SpiNNaker synaptic-word format reserves 4 bits for the delay, giving a
#: maximum programmable delay of 16 timesteps (16 ms at the 1 ms tick).
MAX_DELAY_TICKS = 16
#: Bit widths of the packed synaptic word (weight, delay, target index).
WEIGHT_BITS = 16
DELAY_BITS = 4
INDEX_BITS = 12
#: Fixed-point scaling of the 16-bit weight field.
WEIGHT_FIXED_POINT = 1 << 4
#: Largest charge magnitude (nA) representable in the 16-bit fixed-point
#: weight format (paper Section 5.3).  The deferred-event ring hands
#: the neuron its input in the same format, so a cell's accumulated
#: charge saturates — it cannot wrap — at this value when drained.
WEIGHT_SATURATION_NA = ((1 << (WEIGHT_BITS - 1)) - 1) / WEIGHT_FIXED_POINT


class DeferredEventBuffer:
    """The post-synaptic input ring (the deferred-event model).

    ``max_delay_ticks + 1`` slot rows of ``width`` cells: one row per
    future tick, one column per neuron of the units sharing the ring
    (the tick kernel's layout).  An event is addressed by its *offset*
    ``delay * width + column`` from the row that drains next, so
    ``0 <= offset < n_slots * width`` is exactly ``0 <= delay <=
    max_delay_ticks``; at the start of each timer tick the current row
    is drained into the neuron models and cleared.  This is how the
    programmable delay is "re-inserted algorithmically at the target
    neuron" (Section 3.2).

    The accumulation rule belongs to the weights a caller delivers, so
    there are two ways in.  :meth:`add_events` sums in element order and
    is exact for any float weights (the host's unquantised CSR).
    :meth:`add_fixed_point` takes weights that are multiples of 2^-4
    (decoded 16-bit words), whose float64 sums are exact in any order,
    and pre-sums a batch that fills at least half the cells of the rows
    it spans; a sparser one is scattered by the same body as
    :meth:`add_events`.
    """

    def __init__(self, width: int,
                 max_delay_ticks: int = MAX_DELAY_TICKS,
                 n_cells: Optional[int] = None) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if max_delay_ticks < 1:
            raise ValueError("max_delay_ticks must be at least 1")
        self.width = width
        #: The leading columns neurons read, which a drain clamps (all
        #: by default); the tick kernel's sink column follows them.
        self.n_cells = width if n_cells is None else n_cells
        self.max_delay_ticks = max_delay_ticks
        self.n_slots = max_delay_ticks + 1
        self._buffer = np.zeros((self.n_slots, width), dtype=float)
        self._current_tick = 0
        self.events_deferred = 0
        #: Drained cells whose charge lay beyond the 16-bit weight range.
        self.saturations = 0

    @property
    def current_tick(self) -> int:
        """The tick whose inputs will be drained next."""
        return self._current_tick

    def _rows(self, offsets: np.ndarray) -> tuple:
        """Validate a batch (all or nothing) and count it; return its
        first delay row, its row count and the ring row that delay row
        sits at."""
        low, high = int(offsets.min()), int(offsets.max())
        if low < 0 or high >= self._buffer.size:
            raise ValueError("event delays outside 0..%d (offset outside "
                             "the ring)" % (self.max_delay_ticks,))
        self.events_deferred += int(offsets.size)
        first = low // self.width
        return (first, high // self.width - first + 1,
                (self._current_tick + first) % self.n_slots)

    def _scatter(self, offsets: np.ndarray, weights: np.ndarray,
                 first: int, n_rows: int, start: int) -> None:
        """Add a validated batch (see :meth:`_rows`) event by event.

        ``np.add.at`` sums repeated cells in the order the events come,
        so the ring holds exactly what a per-event loop would.  The
        cells are the offsets rotated to the ring's rows, wrapping at
        most once.
        """
        size = self._buffer.size
        cells = offsets + (start - first) * self.width
        if start + n_rows > self.n_slots:
            cells -= (cells >= size) * cells.dtype.type(size)
        np.add.at(self._buffer.ravel(), cells, weights)

    def add_events(self, offsets: np.ndarray, weights: np.ndarray) -> None:
        """Accumulate a batch addressed by ring offset, in element order."""
        if offsets.size:
            self._scatter(offsets, weights, *self._rows(offsets))

    def add_fixed_point(self, offsets: np.ndarray,
                        weights: np.ndarray) -> None:
        """Accumulate a batch of fixed-point weights (multiples of 2^-4)
        addressed by ring offset.

        Their float64 sums are exact whatever the order, so the rule is
        picked by cost alone, from how densely the batch fills the rows
        it spans: with at least half as many events as cells in those
        rows it is pre-summed per cell (one ``bincount``, then slab adds:
        O(events + rows * width)); sparser, it is scattered like
        :meth:`add_events` (O(events)).  Measured on a 2-vCPU x86-64
        host (numpy 2.4), the two break even at densities of 0.3-1.0
        (within 10% of each other at 0.5) over rings 480-12,289 wide
        and batches of 1-16 rows.  On replayed batches, a pooled sparse
        worker's (~8k events over 16 rows of a 6,145-wide ring, density
        0.08) scatter in 0.046 ms and pre-sum in 0.118 ms; a dense
        run's (density ~1.1 on a 3,841-wide ring) pre-sum in 0.22 ms
        and scatter in 0.26 ms.  On a core's 256-wide ring, whose rows
        stay in cache, the pre-sum was cheaper at every density seen
        (0.004-1.5), by 0.5-3 us a batch.
        """
        if offsets.size == 0:
            return
        first, n_rows, start = self._rows(offsets)
        width = self.width
        if 2 * offsets.size < n_rows * width:
            self._scatter(offsets, weights, first, n_rows, start)
            return
        sums = np.bincount(offsets, weights=weights,
                           minlength=(first + n_rows) * width)
        sums = sums[first * width:].reshape(-1, width)
        head = min(n_rows, self.n_slots - start)
        self._buffer[start:start + head] += sums[:head]
        self._buffer[:n_rows - head] += sums[head:]

    def drain(self) -> np.ndarray:
        """Return and clear the inputs scheduled for the current tick.

        Advances the ring to the next tick, exactly as the
        timer-interrupt handler does before integrating the neuron
        equations.  One ``(width,)`` copy, each of the :attr:`n_cells`
        cells clamped at the 16-bit weight range; the caller slices it
        into per-core (or per-group) views.
        """
        slot = self._current_tick % self.n_slots
        inputs = self._buffer[slot].copy()
        self._buffer[slot] = 0.0
        self._current_tick += 1
        cells = inputs[:self.n_cells]
        if cells.size and (cells.max() > WEIGHT_SATURATION_NA
                           or cells.min() < -WEIGHT_SATURATION_NA):
            self.saturations += int(np.count_nonzero(
                np.abs(cells) > WEIGHT_SATURATION_NA))
            np.clip(cells, -WEIGHT_SATURATION_NA, WEIGHT_SATURATION_NA,
                    out=cells)
        return inputs

    def pending_charge(self) -> float:
        """Total charge currently waiting in the ring (for tests)."""
        return float(np.sum(self._buffer))
