"""The board engine (:class:`FusedBoardEngine`).

The engine replays the on-machine application model of Figure 7 for the
compiled sub-contexts of a sequence of boards, tick-synchronously and
without the event kernel in the loop: a pool worker's engine steps the
worker's boards, the serial cluster run's one engine every board.  The timer
task itself is the tick kernel (:mod:`repro.neuron.kernel`) over the
boards' cores, concatenated in board order: every placed vertex is a
unit, a spike source's with the per-core generator
(:func:`~repro.neuron.population.core_rng` keyed by the core's physical
location) the on-machine runtime would give it (a neuron core draws
nothing, so it gets none), cores of a model step as one stacked block,
and all of them share one
:class:`~repro.neuron.synapse.DeferredEventBuffer`, fed through its
fixed-point rule (``add_fixed_point``: a batch that fills at least half
the cells of the delay rows it spans is pre-summed, a sparser one
scattered).  What is the
engine's own is the propagate step, and a tick of it is array work with
no loop over cores:

* **Plan cells.**  The run's :class:`~repro.cluster.exchange.ExchangePlan`
  numbers every placed neuron (boards in order, cores in board order,
  neurons in slice order); the engine's cores are a contiguous run of
  them, so the kernel's cell ``c`` is plan cell ``first_cell + c``.
* **One CSR from a plan cell to its rows.**  The boards'
  :class:`~repro.compile.context.BoardDeliveryIndex` row tables (merged
  by the ShardByBoard pass from the destination cores' delivery legs,
  the legs the event path and the transport fabric read) are the parts
  of one :class:`~repro.neuron.engine.RowTable`, the host loop's table
  type: a plan cell's rows, one per board of the engine its key
  reaches, are one run, and every arena slot is a ring offset ``delay *
  ring width + column``.  Local and exchanged spikes take the same
  :meth:`FusedBoardEngine._deliver`: cells -> rows -> slots -> one ring
  update, landing at ``tick + 1 + delay``, the arrival tick of the
  fabric transport at zero timer stagger.  The ring picks its add rule
  per update from the batch's density over the delay rows it spans (a
  pooled sparse worker's tick scatters, a dense tick pre-sums), and the
  delivered charge is a sum over the tick's rows of a per-row charge
  table.
* **Per-cell tables.**  Whether a cell's core sends and which keyed
  core it belongs to are arrays over the engine's cells: a tick's
  ``packets_sent`` is one ``count_nonzero`` and its batch sizes one
  ``bincount`` (:attr:`FusedBoardEngine.batch_sizes`, from which the
  run's traffic is tallied once, after the run).  A pool worker hands
  the tick's fired plan cells to the exchange, whose per-region cell
  masks pick what each other worker takes.

The engine reads no clock: the runner that calls :meth:`step` and
:meth:`apply_remote` times each call into its own stage table
(:data:`repro.cluster.application.STAGES`).

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

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.exchange import ExchangePlan
from repro.compile.context import BoardContext
from repro.neuron.engine import RowTable
from repro.neuron.kernel import TickKernel, TickUnit
from repro.neuron.population import Population, core_rng
from repro.runtime.application import ApplicationResult

__all__ = ["FusedBoardEngine"]


class FusedBoardEngine:
    """Tick-synchronous, vectorised executor of a sequence of boards'
    compiled sub-contexts."""

    def __init__(self, contexts: Sequence[BoardContext],
                 populations: Dict[str, Population],
                 seed: Optional[int], timestep_ms: float,
                 plan: ExchangePlan, worker: int) -> None:
        #: The boards the engine steps, in board order (``worker``'s
        #: boards of ``plan``).
        self.contexts = list(contexts)

        self.result = ApplicationResult(duration_ms=0.0)
        self.result.track(populations.values())
        cores = [spec for context in self.contexts for spec in context.cores]
        units = []
        for spec in cores:
            population = populations[spec.vertex.population_label]
            units.append(TickUnit(
                population, spec.vertex.slice_start, spec.vertex.slice_stop,
                core_rng(seed, spec.chip.x, spec.chip.y, spec.core_id)
                if population.is_spike_source else None))
        #: The boards' timer task (see :mod:`repro.neuron.kernel`).
        self.kernel = TickKernel(units, timestep_ms, self.result)
        #: The plan cell of the engine's cell 0: the engine's cores are
        #: the plan's, in plan order, from here on.
        self.first_cell = (plan.key_cells[cores[0].base_key].start
                           if cores else 0)
        assert all(plan.key_cells[spec.base_key].start
                   == self.first_cell + unit.cell
                   for spec, unit in zip(cores, units))

        # The boards' row tables back to back, each target translated from
        # its board-flat neuron to its ring column.
        indexes = [context.delivery_index for context in self.contexts]
        columns = np.concatenate([np.zeros(0, dtype=np.intp)]
                                 + [self.kernel.columns(unit)
                                    for unit in units])
        parts, n_neurons = [], 0
        for index in indexes:
            # Row ``first_row[key] + i`` is plan cell ``key_cells[key][i]``.
            board_cells = np.empty(index.row_ptr.size - 1, dtype=np.intp)
            for key, first in index.first_row.items():
                cells = plan.key_cells[key]
                board_cells[first:first + len(cells)] = cells
            parts.append((index, board_cells, columns[
                n_neurons:n_neurons + index.total_neurons]))
            n_neurons += index.total_neurons
        #: Plan cell -> rows (one per board of the engine its key
        #: reaches, in board order) -> ring slots.
        self.table = RowTable(parts, plan.n_cells, self.kernel.ring)
        # Every weight is an exact multiple of 2^-4 in float64, so a
        # row's charge, and any sum of rows', is exact in any grouping.
        n_rows = self.table.row_ptr.size - 1
        self._row_charge = np.bincount(
            np.repeat(np.arange(n_rows), np.diff(self.table.row_ptr)),
            weights=self.table.weights, minlength=n_rows)

        # Per-cell tables of the tick: does the cell's core send, and
        # which keyed core's batch does it join.
        export_keys = plan.export_keys[worker]
        reached = {key for index in indexes for key in index.first_row}
        sizes = [spec.vertex.n_neurons for spec in cores]
        self._sends = np.repeat([spec.has_outgoing for spec in cores],
                                sizes).astype(bool)
        #: The keys whose batch sizes :attr:`batch_sizes` records: the
        #: engine's keys some board reaches (its own boards or, through
        #: the export keys, another worker's).
        self._keyed = [spec.base_key for spec in cores if spec.has_outgoing
                       and (spec.base_key in reached
                            or spec.base_key in export_keys)]
        keyed = {key: column for column, key in enumerate(self._keyed)}
        self._cell_keyed = np.repeat(
            [keyed.get(spec.base_key, len(keyed)) for spec in cores],
            sizes).astype(np.intp)
        #: Per tick, the spikes of every keyed core (and, last, the rest).
        self._tick_sizes: List[np.ndarray] = []
        self.ticks_run = 0

    @property
    def batch_sizes(self) -> Dict[int, List[int]]:
        """key -> the spike count of every tick the key fired, for each
        of the engine's keys some board reaches."""
        sizes = np.array(self._tick_sizes, dtype=np.int64).reshape(
            -1, len(self._keyed) + 1)
        return {key: column[column > 0].tolist()
                for key, column in zip(self._keyed, sizes.T)}

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, cells: np.ndarray,
                 ages: Optional[np.ndarray] = None) -> None:
        """Deliver fired plan ``cells`` (each ``ages`` ticks old) on the
        engine's boards in one fused scatter: cells -> rows -> slots.

        Exact versus delivering each leg on its own (as the fabric
        transport does): ring accumulation of fixed-point weights is an
        exact sum.
        """
        rows, rows_per_cell = self.table.rows(cells)
        slots, lengths = self.table.slots(rows)
        offsets = self.table.offsets[slots]
        weights = self.table.weights[slots]
        # Bit-equal to summing ``weights`` (and to a per-leg
        # accumulation): the per-row charges are exact.
        self.result.delivered_charge_na += float(
            self._row_charge[rows].sum())
        # Freed before the ring update, which makes per-event copies of
        # its own: an engine over every board scatters a whole tick here.
        del rows, slots
        if ages is not None and ages.any():
            # Re-base aged cells: delay - age, one row per tick of age.
            offsets -= np.repeat(np.repeat(ages * self.kernel.ring.width,
                                           rows_per_cell), lengths)
        self.result.synaptic_events += int(offsets.size)
        self.kernel.ring.add_fixed_point(offsets, weights)

    def apply_remote(self, cells: np.ndarray,
                     send_ticks: np.ndarray) -> None:
        """Scatter exchanged plan cells at a super-step barrier.

        Each cell carries its *send tick*: under conservative lookahead
        the barrier may be up to ``L - 1`` ticks later than a per-tick
        exchange would have been, so every event's programmable delay is
        re-based by the cell's age (``delay - age``; the lookahead bound
        ``L <= 1 + d_min`` guarantees this never goes negative).
        """
        if cells.size:
            self._deliver(cells, self.ticks_run - 1 - send_ticks)

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def step(self, tick: int) -> np.ndarray:
        """Run one tick over every core, deliver to the engine's own
        boards and return the tick's fired plan cells (the exchange
        routes those other workers' boards take)."""
        fired = self.kernel.step(tick)
        self.result.packets_sent += int(np.count_nonzero(self._sends[fired]))
        self._tick_sizes.append(np.bincount(self._cell_keyed[fired],
                                            minlength=len(self._keyed) + 1))
        fired = fired + self.first_cell
        self.ticks_run = tick + 1
        if fired.size:
            # The ring is already one past the send tick, so a delay-d
            # synapse lands d ticks ahead: the fabric's arrival slot.
            self._deliver(fired)
        return fired

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self, duration_ms: float) -> ApplicationResult:
        """Close out the boards' recording and return their result."""
        self.result.flush()
        self.result.duration_ms = duration_ms
        self.result.saturations = self.kernel.ring.saturations
        return self.result
