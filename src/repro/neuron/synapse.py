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
(the codec itself is in :mod:`repro.neuron.engine`) and the circular
post-synaptic input buffers indexed by ``(arrival_tick mod max_delay)``
that implement the algorithmic re-insertion of the delay at the target
neuron.  There are two because the accumulation rule is a property of
the weight domain: :class:`DeferredEventBuffer` sums unquantised float
weights in element order, :class:`FusedDeferredEventBuffer` pre-sums
fixed-point weights exactly, addressed by ring offset.  The tick
kernel (:mod:`repro.neuron.kernel`) lays the cells of the units that
share a tick out as one ring's columns and is the only caller of
``drain()``.

Both hold each cell's exact charge and saturate it at the 16-bit weight
range once, when the tick drains it (:meth:`_Ring.drain`), counting one
saturation per clamped cell.  A cell's input therefore depends only on
the charge that reached it, not on how that charge was batched: per
event, per projection, per board or per worker.
"""

from __future__ import annotations

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


class _Ring:
    """What both rings share: ``max_delay_ticks + 1`` slot rows of
    ``width`` cells, one row drained (and clamped) per tick."""

    def __init__(self, width: int, max_delay_ticks: int) -> None:
        if max_delay_ticks < 1:
            raise ValueError("max_delay_ticks must be at least 1")
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

    def drain(self) -> np.ndarray:
        """Return and clear the inputs scheduled for the current tick.

        Advances the ring to the next tick, exactly as the
        timer-interrupt handler does before integrating the neuron
        equations.  One ``(width,)`` copy, each cell clamped at the
        16-bit weight range; the caller slices it into per-core (or
        per-group) views.
        """
        slot = self._current_tick % self.n_slots
        inputs = self._buffer[slot].copy()
        self._buffer[slot] = 0.0
        self._current_tick += 1
        if (inputs.max() > WEIGHT_SATURATION_NA
                or inputs.min() < -WEIGHT_SATURATION_NA):
            self.saturations += int(np.count_nonzero(
                np.abs(inputs) > WEIGHT_SATURATION_NA))
            np.clip(inputs, -WEIGHT_SATURATION_NA, WEIGHT_SATURATION_NA,
                    out=inputs)
        return inputs

    def pending_charge(self) -> float:
        """Total charge currently waiting in the ring (for tests)."""
        return float(np.sum(self._buffer))

    def reset(self) -> None:
        """Clear the ring and rewind the tick and counters."""
        self._buffer[:] = 0.0
        self._current_tick = 0
        self.events_deferred = 0
        self.saturations = 0


class DeferredEventBuffer(_Ring):
    """The post-synaptic input ring buffer (the deferred-event model).

    The buffer holds one row per future timestep (up to ``max_delay``
    ticks ahead) and one column per neuron of the units sharing it.
    When a synaptic row is processed at tick ``t``, each synapse's
    weight is accumulated into slot ``(t + delay) mod (max_delay + 1)``;
    at the start of each timer tick the current slot is drained into the
    neuron model and cleared.  This is how the programmable delay is "re-inserted
    algorithmically at the target neuron" (Section 3.2).
    """

    def __init__(self, n_neurons: int,
                 max_delay_ticks: int = MAX_DELAY_TICKS) -> None:
        if n_neurons <= 0:
            raise ValueError("n_neurons must be positive")
        super().__init__(n_neurons, max_delay_ticks)
        self.n_neurons = n_neurons

    def add_events(self, targets: np.ndarray, weights: np.ndarray,
                   delay_ticks: np.ndarray) -> None:
        """Defer a whole batch of synaptic events in one vectorized scatter.

        All three arrays are aligned per-event; the accumulation into the
        ring is performed with ``np.add.at`` so repeated ``(slot,
        target)`` pairs sum in element order.
        """
        targets = np.asarray(targets, dtype=np.intp)
        delay_ticks = np.asarray(delay_ticks, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        if targets.size == 0:
            return
        # Validate the whole batch up front so an invalid event can never
        # leave the buffer partially mutated.
        if targets.min() < 0 or targets.max() >= self.n_neurons:
            raise IndexError("event targets outside population of %d neurons"
                             % (self.n_neurons,))
        if delay_ticks.min() < 1 or delay_ticks.max() > self.max_delay_ticks:
            raise ValueError("event delays outside 1..%d"
                             % (self.max_delay_ticks,))
        self.events_deferred += int(targets.size)
        if targets.size <= 32:
            # Small batches (single DMA rows on the machine model) are
            # cheaper through a scalar accumulate, in the same element
            # order, than through the fixed overhead of a vectorized
            # scatter.
            tick = self._current_tick
            for target, weight, delay in zip(targets.tolist(),
                                             weights.tolist(),
                                             delay_ticks.tolist()):
                self._buffer[(tick + delay) % self.n_slots, target] += weight
            return
        slots = (self._current_tick + delay_ticks) % self.n_slots
        np.add.at(self._buffer.ravel(), slots * self.n_neurons + targets,
                  weights)


class FusedDeferredEventBuffer(_Ring):
    """One deferred-event ring shared by every core of a board, for
    fixed-point weights.

    All of a board's cores' columns sit in a single ``(n_slots,
    total_width)`` array (the tick kernel's layout), so one vectorized
    scatter per tick can deliver events to every core at once and one
    row drain hands every core its inputs.

    Events address the ring by *offset* ``delay * total_width + cell``
    from the row draining this tick, ``cell`` being the fused column
    (``core_offset + target``), computed once per synapse at build time.
    A batch the conservative-lookahead exchange sent at tick ``t`` may
    only reach the ring once it has advanced to ``t + 1 + age``, so the
    caller subtracts ``age * total_width``; lookahead never exceeds
    ``1 + d_min`` ticks, so a negative offset means the caller violated
    the lookahead bound.

    Bit-identity with per-core rings: weights are fixed-point multiples
    of ``2^-4`` held in float64, so ring accumulation is an exact sum
    and independent of event order or batch grouping — a single fused
    scatter lands the same values as many per-core ones, and the drain
    clamps the same cells.
    """

    def __init__(self, total_width: int,
                 max_delay_ticks: int = MAX_DELAY_TICKS) -> None:
        if total_width <= 0:
            raise ValueError("total_width must be positive")
        super().__init__(total_width, max_delay_ticks)
        self.total_width = total_width

    def add_events(self, offsets: np.ndarray, weights: np.ndarray) -> None:
        """Accumulate a batch of events addressed by ring offset.

        As ``cell < total_width``, ``0 <= offset < n_slots *
        total_width`` is exactly ``0 <= effective delay <=
        max_delay_ticks``.  The whole batch is validated before any
        mutation, matching the per-core buffer's all-or-nothing contract.
        """
        if offsets.size == 0:
            return
        width, size = self.total_width, self._buffer.size
        low, high = int(offsets.min()), int(offsets.max())
        if low < 0 or high >= size:
            raise ValueError("effective delays outside 0..%d (lookahead "
                             "bound violated)" % (self.max_delay_ticks,))
        # Delay rows first..first + n_rows - 1 sit at ring rows start..,
        # wrapping at most once.
        first = low // width
        n_rows = high // width - first + 1
        start = (self._current_tick + first) % self.n_slots
        head = min(n_rows, self.n_slots - start)
        self.events_deferred += int(offsets.size)
        if offsets.size < width:
            # A batch narrower than the ring scatters in place: its cells
            # are its offsets rotated to the ring's rows.
            cells = offsets + (start - first) * width
            if head < n_rows:
                cells -= (cells >= size) * cells.dtype.type(size)
            np.add.at(self._buffer.ravel(), cells, weights)
            return
        # A wider one is pre-summed per cell (exact in float64) and lands
        # as slab adds.
        sums = np.bincount(offsets, weights=weights,
                           minlength=(first + n_rows) * width)
        sums = sums[first * width:].reshape(-1, width)
        self._buffer[start:start + head] += sums[:head]
        self._buffer[:n_rows - head] += sums[head:]
