"""The board engine (:class:`FusedBoardEngine`).

The engine replays the on-machine application model of Figure 7 for the
compiled sub-contexts of a sequence of boards, tick-synchronously and
without the event kernel in the loop: a pool worker's engine steps the
worker's boards, the serial cluster run's one engine every board.  The timer
task itself is the tick kernel (:mod:`repro.neuron.kernel`) over the
boards' cores, concatenated in board order: every placed vertex is a unit
with the per-core generator (:func:`~repro.neuron.population.core_rng`
keyed by the core's physical location) the on-machine runtime would give
it, cores of a model step as one stacked block, and all of them share one
:class:`~repro.neuron.synapse.FusedDeferredEventBuffer`.  What is the
engine's own is the propagate step: spike batches are delivered through
the boards' :class:`~repro.compile.context.BoardDeliveryIndex` row
tables (merged by the ShardByBoard pass from the destination cores'
delivery legs, the legs the event path and the transport fabric read)
stacked back to back, their arena slots pre-computed as ring offsets
``delay * ring width + column`` — one row-table gather, one offset
gather and one ring update per batch list, landing at ``tick + 1 +
delay``, the arrival tick of the fabric transport at zero timer stagger.
A key that reaches several of the engine's boards is delivered to each
of them locally, as is an exchanged batch; batches on exported keys are
also handed back, for the exchange or the report's tally.

Determinism: the kernel's steps are elementwise per cell, the ring sums
fixed-point weights (exact multiples of 2^-4 in float64) and clamps a
cell only as its tick drains it, so its inputs are independent of
delivery order and batching, each core owns its generator, and the
engine touches no shared machine state.  A board therefore computes the
same spike trains wherever and next to whatever it runs — the property
the cluster runner relies on for worker-count-independent results, and
the reason the sharded run is spike-train-equivalent to the unsharded
engine (``NeuralApplication(transport="fabric", stagger_us=0)``), which
``tests/test_cluster_fused.py`` pins.  Units are board-major, so within
a tick each population's spikes are recorded in board order; merging a
pool's per-worker results in worker order, over a contiguous cut, keeps
that order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compile.context import BoardContext
from repro.neuron.engine import expand_rows
from repro.neuron.kernel import TickKernel, TickUnit
from repro.neuron.population import Population, core_rng
from repro.neuron.synapse import FusedDeferredEventBuffer
from repro.profile import perf_now
from repro.runtime.application import ApplicationResult

__all__ = ["FusedBoardEngine", "SpikeBatch"]

#: One cross-core spike batch: the source vertex's sticky AER base key
#: plus the spiking neurons' vertex-local indices.
SpikeBatch = Tuple[int, np.ndarray]


class FusedBoardEngine:
    """Tick-synchronous, vectorised executor of a sequence of boards'
    compiled sub-contexts."""

    def __init__(self, contexts: Sequence[BoardContext],
                 populations: Dict[str, Population],
                 seed: Optional[int], timestep_ms: float,
                 export_keys: Set[int]) -> None:
        #: The boards the engine steps, in board order.
        self.contexts = list(contexts)
        #: Keys whose spiking indices :meth:`step` must hand back (the
        #: worker's entry of
        #: :attr:`~repro.cluster.exchange.ExchangePlan.export_keys`).
        #: The engine's own boards are delivered *locally* at the end of
        #: each tick (worker-side routing: traffic between them never
        #: leaves the process).
        self.export_keys = export_keys

        self.result = ApplicationResult(duration_ms=0.0)
        self.result.track(populations.values())
        cores = [spec for context in self.contexts for spec in context.cores]
        units = [TickUnit(populations[spec.vertex.population_label],
                          spec.vertex.slice_start, spec.vertex.slice_stop,
                          core_rng(seed, spec.chip.x, spec.chip.y,
                                   spec.core_id))
                 for spec in cores]
        self._core_of = dict(zip(units, cores))
        #: The boards' timer task (see :mod:`repro.neuron.kernel`).
        self.kernel = TickKernel(units, timestep_ms,
                                 FusedDeferredEventBuffer, self.result)

        # The boards' row tables back to back: board b's rows, arena
        # slots and neurons follow board b - 1's, and a key keeps one
        # first row per board it reaches.  Each arena slot's ring offset
        # is its delay row, then the ring column of its board-flat target.
        indexes = [context.delivery_index for context in self.contexts]
        self._width = width = self.kernel.ring.total_width
        # Offsets, and their rotation by up to one ring, fit in int32.
        assert 2 * self.kernel.ring.n_slots * width <= np.iinfo(np.int32).max
        translate = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [self.kernel.columns(unit) for unit in units]).astype(np.int32)
        self._first_rows: Dict[int, List[int]] = {}
        row_ptr = [np.zeros(1, dtype=np.int64)]
        self._arena_offsets = np.empty(
            sum(index.targets.size for index in indexes), dtype=np.int32)
        n_rows = n_slots = n_neurons = 0
        for index in indexes:
            for key, row in index.first_row.items():
                self._first_rows.setdefault(key, []).append(n_rows + row)
            row_ptr.append(index.row_ptr[1:] + n_slots)
            arena = self._arena_offsets[n_slots:n_slots + index.targets.size]
            arena[:] = translate[n_neurons:][index.targets]
            arena += index.delay_ticks.astype(np.int32) * width
            n_rows += index.row_ptr.size - 1
            n_slots += index.targets.size
            n_neurons += index.total_neurons
        row_ptr = np.concatenate(row_ptr)
        self._row_start = row_ptr[:-1]
        self._row_end = row_ptr[1:]
        # One board's engine reads its index's weights in place.
        weights = [index.weights for index in indexes]
        self._arena_weights = (weights[0] if len(weights) == 1
                               else np.concatenate([np.zeros(0), *weights]))
        self.step_s = 0.0
        self.local_apply_s = 0.0
        self.remote_apply_s = 0.0
        self.ticks_run = 0

    @property
    def compute_s(self) -> float:
        """Seconds spent stepping neurons and scattering events."""
        return self.step_s + self.local_apply_s + self.remote_apply_s

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _scatter_batches(
            self, batches: Iterable[Tuple[int, int, np.ndarray]]) -> None:
        """Deliver ``(key, age, spiking)`` batches in one fused scatter.

        A batch costs a few list appends; the list then costs one row
        offset, one gather of each table and one ring update — exact
        versus delivering each leg on its own (as the fabric transport
        does): ring accumulation of fixed-point weights is an exact sum.
        """
        first_rows = self._first_rows
        parts: List[np.ndarray] = []
        firsts: List[int] = []
        ages: List[int] = []
        spikes: List[int] = []
        for key, age, spiking in batches:
            # Local and exchanged batches alike only go to boards the
            # key reaches, so every key has table rows here: one run of
            # rows per board it reaches.
            for first_row in first_rows[key]:
                parts.append(spiking)
                firsts.append(first_row)
                ages.append(age)
                spikes.append(spiking.size)
        if not parts:
            return
        rows = np.concatenate(parts) + np.repeat(firsts, spikes)
        starts = self._row_start[rows]
        counts = self._row_end[rows] - starts
        slots = expand_rows(starts, counts)
        offsets = self._arena_offsets[slots]
        weights = self._arena_weights[slots]
        # Freed before the ring update, which makes per-event copies of
        # its own: an engine over every board scatters a whole tick here.
        del slots
        if any(ages):
            # Re-base aged batches: delay - age, one row per tick of age.
            offsets -= np.repeat(np.repeat(
                np.array(ages) * self._width, spikes), counts)
        self.result.synaptic_events += int(offsets.size)
        # One charge sum over the merged batches: every weight is an
        # exact multiple of 2^-4 in float64, so the total is exact and
        # grouping-independent — bit-equal to a per-leg accumulation.
        self.result.delivered_charge_na += float(weights.sum())
        self.kernel.ring.add_events(offsets, weights)

    def apply_remote(self,
                     batches: Iterable[Tuple[int, int, np.ndarray]]) -> None:
        """Scatter exchanged cross-board batches at a super-step barrier.

        Each batch carries its *send tick*: under conservative lookahead
        the barrier may be up to ``L - 1`` ticks later than a per-tick
        exchange would have been, so every event's programmable delay is
        re-based by the batch's age (``delay - age``; the lookahead
        bound ``L <= 1 + d_min`` guarantees this never goes negative).
        """
        began = perf_now()
        current = self.ticks_run
        self._scatter_batches(
            (key, current - 1 - send_tick, spiking)
            for key, send_tick, spiking in batches)
        self.remote_apply_s += perf_now() - began

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def step(self, tick: int) -> List[SpikeBatch]:
        """Run one tick over every core, deliver to the engine's own
        boards and return the batches to export."""
        began = perf_now()
        outbound: List[SpikeBatch] = []
        local: List[SpikeBatch] = []
        for unit, spiking in self.kernel.step(tick):
            spec = self._core_of[unit]
            if spec.has_outgoing:
                self.result.packets_sent += int(spiking.size)
                if spec.base_key in self._first_rows:
                    local.append((spec.base_key, spiking))
                if spec.base_key in self.export_keys:
                    outbound.append((spec.base_key, spiking))
        stepped = perf_now()
        self.step_s += stepped - began
        self.ticks_run = tick + 1
        if local:
            # The ring is already one past the send tick, so a delay-d
            # synapse lands d ticks ahead: the fabric's arrival slot.
            self._scatter_batches((key, 0, spiking) for key, spiking in local)
            self.local_apply_s += perf_now() - stepped
        return outbound

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self, duration_ms: float) -> ApplicationResult:
        """Close out the boards' recording and return their result."""
        self.result.flush()
        self.result.duration_ms = duration_ms
        self.result.saturations = self.kernel.ring.saturations
        return self.result
