"""The tick kernel: Figure 7's timer task, written once.

Every engine of the reproduction runs the same millisecond-timer task —
generate the stimulus, drain the deferred-event slot into the neuron
models, integrate the equations, record what fired — and differs only in
how the resulting spikes are *propagated*.  The host loop
(:meth:`repro.neuron.network.Network.run`) and the cluster's board
engine (:class:`repro.cluster.fused.FusedBoardEngine`) both expand the
fired cells through one :class:`~repro.neuron.engine.RowTable` (cells ->
rows -> ring slots): the host's table stacks float CSR rows and the host
sorts a tick's rows into element order; the board engine's stacks its
boards' delivery arenas, and the engine exports the rest.  The on-machine runtime
(:class:`repro.runtime.application.CoreRuntime`) sends packets or fabric
batches.  :class:`TickKernel` is everything before that step, for a set
of *units that share a tick*.

A :class:`TickUnit` is ``(population, slice, generator)``: the host
passes its populations whole with the one simulation generator, a core
runtime passes its single vertex with its per-core generator, a board
engine passes its board's cores (a generator only for a spike-source
core: nothing else draws).  The kernel

* groups the neuron units by model into :class:`StackedBlock` lanes
  with a bias grid — one set of array operations steps every unit of a
  model;
* lays the units' cells out as the columns of the one deferred-event
  ring it builds (:class:`~repro.neuron.synapse.DeferredEventBuffer`;
  group blocks back to back, lane-major, padded; then one sink column
  when the set holds a spike source).  An engine addresses the ring by
  offset ``delay * ring.width + column`` (:meth:`TickKernel.columns`)
  and picks the add rule that fits its weights: element-order float
  sums for the host, exact fixed-point sums for a core or a board
  (pre-summed or scattered, whichever the batch's density makes
  cheaper);
* numbers the units' neurons as contiguous *cells* in unit order
  (:attr:`TickUnit.cell` is a unit's first); :meth:`TickKernel.step`
  returns a tick's fired cells as one integer array — the sources',
  then each group's lanes in unit order, ascending within a unit — so
  an engine propagates a whole tick with array operations, never a
  loop over units;
* draws each source unit's spikes from the unit's own generator, a
  block of ticks per call when asked to draw ahead
  (:meth:`TickKernel.prefetch_sources`), and queues them as one cell
  array per tick;
* records through the engine's :class:`SpikeRecord`: one ``(time_ms,
  label codes, population indices)`` chunk per tick, both gathered
  from per-cell tables, which :meth:`SpikeRecord.flush` sorts by label
  once (stably: chunk order stays recording order), counts and appends
  to each population's array-backed :class:`SpikeTrain`.

A spike source integrates nothing, so charge aimed at one lands nowhere:
:meth:`TickKernel.columns` maps a source's cells to the sink column,
which no unit reads and the drain neither clamps nor counts as a
saturation.  The engine still counts those events and their charge.

Every step is elementwise per cell and every generator is drawn in tick
order, so a kernel of N units computes, cell for cell, what N one-unit
kernels compute — the property that makes the host, the machine and the
cluster agree.
"""

from __future__ import annotations

import itertools
from collections import abc, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.neuron.population import Population, stimulus_spikes
from repro.neuron.synapse import MAX_DELAY_TICKS, DeferredEventBuffer
from repro.profile import profile_stage

__all__ = ["SpikeRecord", "SpikeTrain", "StackedBlock", "TickKernel",
           "TickUnit"]

# The kernel's phases of the timer tick, hoisted so every tick re-enters
# the same stage objects (a disabled entry is one flag check).
_STIMULUS_STAGE = profile_stage("stimulus")
_NEURON_UPDATE_STAGE = profile_stage("neuron_update")
_RECORD_STAGE = profile_stage("record")

#: A tick's fired cells when none fired.
_NO_CELLS = np.zeros(0, dtype=np.intp)


class SpikeTrain(abc.Sequence):
    """One population's recorded spikes: ``times_ms`` (``float64``) and
    ``neurons`` (``int64``), in recording order.  Read as a sequence it
    is the list of ``(time_ms, neuron)`` pairs, and compares equal to
    that list; ``np.asarray(train)`` is the ``(n, 2)`` pair array.
    """

    __slots__ = ("times_ms", "neurons")

    def __init__(self, times_ms=(), neurons=()) -> None:
        self.times_ms = np.asarray(times_ms, dtype=np.float64)
        self.neurons = np.asarray(neurons, dtype=np.int64)

    def __len__(self) -> int:
        return self.times_ms.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpikeTrain(self.times_ms[index], self.neurons[index])
        return float(self.times_ms[index]), int(self.neurons[index])

    def __iter__(self):
        return zip(self.times_ms.tolist(), self.neurons.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpikeTrain):
            return (np.array_equal(self.times_ms, other.times_ms)
                    and np.array_equal(self.neurons, other.neurons))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        pairs = np.stack((self.times_ms, self.neurons), axis=1)
        return pairs if dtype is None else pairs.astype(dtype, copy=False)


@dataclass
class SpikeRecord:
    """The recorded part of every engine's result, and its recorder.

    ``spikes`` maps a recorded population's label to its
    :class:`SpikeTrain` (population numbering) and ``spike_counts`` maps
    every label to totals; every flush brings both up to date.  A label
    has an integer *code* (:meth:`label_code`), so a kernel records a
    whole tick as two arrays gathered from per-cell tables.
    """

    duration_ms: float
    spikes: Dict[str, SpikeTrain] = field(default_factory=dict)
    spike_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    #: label -> code, in the order labels were first seen.
    _codes: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: ``(time_ms, codes, neurons)`` chunks not yet in :attr:`spikes`.
    _pending: List[Tuple[float, np.ndarray, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False)

    def track(self, populations: Iterable[Population]) -> None:
        """Start fresh counts (and trains, where requested) for
        ``populations``."""
        for population in populations:
            self.label_code(population.label)
            self.spike_counts[population.label] = np.zeros(population.size,
                                                           dtype=int)
            if population.record_spikes:
                self.spikes[population.label] = SpikeTrain()

    def label_code(self, label: str) -> int:
        """The code :meth:`add` takes for ``label``'s spikes."""
        return self._codes.setdefault(label, len(self._codes))

    def add(self, time_ms: float, codes: np.ndarray,
            neurons: np.ndarray) -> None:
        """Record one tick's spikes of one kernel: each spike's label
        code and population index."""
        self._pending.append((time_ms, codes, neurons))

    def flush(self) -> None:
        """Count the pending chunks and append them to :attr:`spikes`.

        One stable sort by label code over every chunk keeps each
        label's spikes in chunk order — tick order, and within a tick
        the order the kernels recorded them in.
        """
        if not self._pending:
            return
        times, codes, neurons = zip(*self._pending)
        self._pending.clear()
        sizes = [part.size for part in codes]
        codes = np.concatenate(codes)
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order],
                                 np.arange(len(self._codes) + 1)).tolist()
        neurons = np.concatenate(neurons)[order]
        times = np.repeat(times, sizes)[order]
        for label, code in self._codes.items():
            lo, hi = bounds[code], bounds[code + 1]
            if lo == hi:
                continue
            counts = self.spike_counts[label]
            counts += np.bincount(neurons[lo:hi], minlength=counts.size)
            train = self.spikes.get(label)
            if train is not None:
                train.times_ms = np.concatenate((train.times_ms,
                                                 times[lo:hi]))
                train.neurons = np.concatenate((train.neurons,
                                                neurons[lo:hi]))

    def _counts(self, label: str) -> np.ndarray:
        if label not in self.spike_counts:
            raise KeyError("unknown population label %r; this run recorded %s"
                           % (label, sorted(self.spike_counts)))
        return self.spike_counts[label]

    def total_spikes(self, label: Optional[str] = None) -> int:
        """Total spikes of one population, or of all populations.

        Raises
        ------
        KeyError
            If ``label`` names a population this run never recorded.
        """
        if label is not None:
            return int(self._counts(label).sum())
        return int(sum(c.sum() for c in self.spike_counts.values()))

    def mean_rate_hz(self, label: str) -> float:
        """Mean firing rate of a population over the run."""
        seconds = self.duration_ms / 1000.0
        if seconds <= 0:
            return 0.0
        return float(self._counts(label).mean() / seconds)


class TickUnit:
    """One ``(population, slice, generator)`` sharing a kernel's tick.

    Only a spike source draws from its generator; a neuron unit may
    have none (``rng=None``).
    """

    __slots__ = ("population", "slice_start", "slice_stop", "rng",
                 "cell", "base", "group", "lane")

    def __init__(self, population: Population, slice_start: int,
                 slice_stop: int,
                 rng: Optional[np.random.Generator]) -> None:
        self.population = population
        self.slice_start = slice_start
        self.slice_stop = slice_stop
        self.rng = rng
        #: The kernel's cell of the unit's first neuron.
        self.cell = 0
        #: Ring column of the unit's first neuron; ``None`` for a source.
        self.base: Optional[int] = None
        #: The stacked group and lane holding a neuron unit's state.
        self.group: Optional["_Group"] = None
        self.lane = 0

    @property
    def n_neurons(self) -> int:
        """Neurons in the unit's slice."""
        return self.slice_stop - self.slice_start


class StackedBlock:
    """Populations of one model stacked into ``(n_lanes, width)`` arrays:
    the one neuron update path.

    Each lane holds one population's initial state (what its class
    lists under ``STATE``), zero-padded to the widest lane; the
    per-population scalars (``PARAMETERS``) become ``(n_lanes, 1)``
    columns that broadcast across the row, and :meth:`step` is the
    model's ``advance`` — elementwise, so every valid cell evolves bit
    for bit like one scalar neuron of its lane's parameters, whatever
    else is stacked beside it.
    """

    def __init__(self, states: Sequence) -> None:
        model = type(states[0])
        self._advance = model.advance
        self.n_lanes = len(states)
        self.lane_sizes = [state.size for state in states]
        self.width = max(self.lane_sizes)
        self.timestep_ms = states[0].timestep_ms
        shape = (self.n_lanes, self.width)
        self.valid = np.zeros(shape, dtype=bool)
        for lane, size in enumerate(self.lane_sizes):
            self.valid[lane, :size] = True
        for name in model.STATE:
            grid = np.zeros(shape, dtype=getattr(states[0], name).dtype)
            for lane, state in enumerate(states):
                grid[lane, :state.size] = getattr(state, name)
            setattr(self, name, grid)
        for name in model.PARAMETERS:
            setattr(self, name, np.array(
                [getattr(state, name) for state in states]).reshape(-1, 1))

    def inject_synaptic_input(self, charge_na: np.ndarray) -> None:
        """Add synaptic charge, one ``(n_lanes, width)`` array per tick."""
        self.synaptic_current += charge_na

    def step(self, external_current_na: Optional[np.ndarray] = None
             ) -> np.ndarray:
        """Advance every lane one timestep; return the masked spike grid."""
        return self._advance(self, external_current_na, self.valid)

    def lane_voltages(self, lane: int) -> np.ndarray:
        """The valid cells of one lane's membrane potentials."""
        return self.v[lane, :self.lane_sizes[lane]]


class _Group(StackedBlock):
    """All of a kernel's units of one neuron model: their stacked state,
    bias grid and place in the ring."""

    def __init__(self, units: List[TickUnit], timestep_ms: float,
                 base: int) -> None:
        # A unit's state is that of a population the size of its slice
        # with the same model and parameters.
        super().__init__([
            Population(unit.n_neurons, unit.population.parameters,
                       label=unit.population.label).build_state(timestep_ms)
            for unit in units])
        #: Ring columns ``base:base + span`` are the block, lane-major.
        self.base = base
        self.span = self.n_lanes * self.width
        bias = np.zeros((self.n_lanes, self.width), dtype=float)
        #: The kernel cell of every block position, lane-major (padding
        #: never fires).
        self.cells = np.zeros(self.span, dtype=np.intp)
        for lane, unit in enumerate(units):
            unit.group, unit.lane = self, lane
            unit.base = base + lane * self.width
            bias[lane, :unit.n_neurons] = unit.population.bias_current_na
            start = lane * self.width
            self.cells[start:start + unit.n_neurons] = unit.cell + np.arange(
                unit.n_neurons)
        # Padding keeps a zero bias; a group nobody biases skips the add.
        self.bias = bias if bias.any() else None


class TickKernel:
    """Stimulus, update and record for the units that share a tick."""

    def __init__(self, units: Sequence[TickUnit], timestep_ms: float,
                 record: SpikeRecord) -> None:
        self.timestep_ms = timestep_ms
        self.record = record
        # Cells: every unit's neurons, back to back in unit order.
        sizes = [unit.n_neurons for unit in units]
        for unit, cell in zip(units, itertools.accumulate(sizes,
                                                          initial=0)):
            unit.cell = cell
        #: Neurons over every unit: the cells :meth:`step` numbers.
        self.n_cells = sum(sizes)
        # What recording reads of a fired cell: its label's code and
        # its population index.
        self._cell_codes = np.repeat(np.array(
            [record.label_code(unit.population.label) for unit in units],
            dtype=np.int32), sizes)
        self._cell_neurons = np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [np.arange(unit.slice_start, unit.slice_stop, dtype=np.int64)
               for unit in units])
        self._sources = [unit for unit in units
                         if unit.population.is_spike_source]
        grouped: Dict[str, List[TickUnit]] = {}
        for unit in units:
            if not unit.population.is_spike_source:
                grouped.setdefault(unit.population.model_name,
                                   []).append(unit)
        self._groups: List[_Group] = []
        width = 0
        for members in grouped.values():
            group = _Group(members, timestep_ms, width)
            self._groups.append(group)
            width += group.span
        #: The column charge aimed at a spike source is addressed to
        #: (last, and only there when the kernel holds a source).
        self.sink = width
        #: The deferred-event ring under every unit of the kernel; its
        #: drain clamps and counts only the columns before the sink.
        self.ring = DeferredEventBuffer(max(width + bool(self._sources), 1),
                                        MAX_DELAY_TICKS, n_cells=width)
        #: Drawn-ahead source spikes, one cell array per tick from
        #: ``_next_source_tick - len(_queued)`` on.
        self._queued: deque = deque()
        self._next_source_tick = 0

    # ------------------------------------------------------------------
    # Addressing the ring
    # ------------------------------------------------------------------
    def columns(self, unit: TickUnit) -> np.ndarray:
        """The ring column of each of ``unit``'s neurons (the sink, for
        a source): an event at local index ``i`` with delay ``d`` is
        ring offset ``d * ring.width + columns(unit)[i]``."""
        if unit.base is None:
            return np.full(unit.n_neurons, self.sink, dtype=np.intp)
        return unit.base + np.arange(unit.n_neurons, dtype=np.intp)

    def voltages(self, unit: TickUnit) -> np.ndarray:
        """A neuron unit's membrane potentials after the latest step."""
        return unit.group.lane_voltages(unit.lane)

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def prefetch_sources(self, upto_tick: int) -> None:
        """Draw the source spikes up to and including ``upto_tick``.

        Worth calling right before a barrier wait.  Each source draws
        its whole block in one call, the same stream as one draw per
        tick when no two sources share a generator — true of every
        engine that draws ahead (one generator per core), and asserted;
        a shared generator (the host's) is drawn one tick at a time.
        One stable sort by tick turns the block into a cell array per
        tick, sources in unit order within it.
        """
        ahead = upto_tick + 1 - self._next_source_tick
        if ahead <= 0:
            return
        generators = {id(unit.rng) for unit in self._sources}
        assert ahead == 1 or len(generators) == len(self._sources), \
            "sources sharing a generator must be drawn one tick at a time"
        if not self._sources:
            self._queued.extend([_NO_CELLS] * ahead)
        else:
            drawn = [stimulus_spikes(
                unit.population, unit.slice_start, unit.slice_stop,
                self._next_source_tick, ahead, self.timestep_ms, unit.rng)
                for unit in self._sources]
            cells = np.concatenate([spiking + unit.cell for unit, (_, spiking)
                                    in zip(self._sources, drawn)])
            if ahead == 1:
                self._queued.append(cells)
            else:
                ticks = np.concatenate([offsets for offsets, _ in drawn])
                order = np.argsort(ticks, kind="stable")
                self._queued.extend(np.split(cells[order], np.searchsorted(
                    ticks[order], np.arange(1, ahead))))
        self._next_source_tick = upto_tick + 1

    @property
    def next_source_tick(self) -> int:
        """The first tick whose source spikes are not drawn yet."""
        return self._next_source_tick

    def step(self, tick: int) -> np.ndarray:
        """Run one timer tick; return the fired cells: the sources',
        then each group's lanes in unit order, ascending within a
        unit."""
        with _STIMULUS_STAGE:
            self.prefetch_sources(tick)
            fired = [self._queued.popleft()]
        with _NEURON_UPDATE_STAGE:
            row = self.ring.drain()
            grids = []
            for group in self._groups:
                group.inject_synaptic_input(
                    row[group.base:group.base + group.span].reshape(
                        group.n_lanes, group.width))
                grids.append(group.step(group.bias))
        with _RECORD_STAGE:
            # Row-major: lanes ascend, so each group keeps unit order.
            fired.extend(group.cells[np.flatnonzero(spikes)]
                         for group, spikes in zip(self._groups, grids))
            fired = np.concatenate(fired)
            if fired.size:
                self.record.add(tick * self.timestep_ms,
                                self._cell_codes[fired],
                                self._cell_neurons[fired])
        return fired
