"""The board engine (:class:`FusedBoardEngine`).

The engine replays the on-machine application model of Figure 7 for one
board's compiled sub-context, tick-synchronously and without the event
kernel in the loop.  Every placed vertex ("core") gets the neuron state
and per-core generator (:func:`~repro.neuron.population.core_rng` keyed
by the core's physical location) the on-machine runtime would give it,
and spike batches are delivered through the decoded synaptic blocks of
the board sub-context (the same fixed-point SDRAM words the transport
fabric replays), landing in the ring at ``tick + 1 + delay`` — the
arrival tick of the fabric transport at zero timer stagger.  The
per-core loops are hoisted out of the tick path:

* cores are grouped by neuron model and their state stacked into
  ``(n_lanes, n_neurons)`` blocks (:class:`~repro.neuron.lif.LIFBlock`,
  :class:`~repro.neuron.izhikevich.IzhikevichBlock`) — one set of array
  operations steps every core of a model at once;
* all cores share one :class:`~repro.neuron.synapse.FusedDeferredEventBuffer`
  whose columns are the stacked blocks' cells, so one ``drain()`` hands
  every core its tick inputs;
* spike delivery goes through the board-level
  :class:`~repro.compile.context.BoardDeliveryIndex` built by the
  ShardByBoard pass — one slot gather and one ring scatter per batch
  list;
* spike sources stay per-core (each owns its ``core_rng`` stream) but
  their masks can be *prefetched* ahead of a barrier wait
  (:meth:`FusedBoardEngine.prefetch_sources`) — draws stay in tick
  order per generator, so the spikes are unchanged.

Determinism: stacked steps are elementwise (broadcast parameter columns
perform the identical IEEE-754 scalar operations a per-population step
does), ring accumulation sums fixed-point weights (exact multiples of
2^-4 in float64) and is therefore independent of delivery order and
batching, each core owns its generator, and the engine touches no
shared machine state.  A board therefore computes the same spike trains
wherever and next to whatever it runs — the property the cluster runner
relies on for worker-count-independent results, and the reason the
sharded run is spike-train-equivalent to the unsharded engine
(``NeuralApplication(transport="fabric", stagger_us=0)``), which
``tests/test_cluster_fused.py`` pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.compile.context import BoardContext
from repro.neuron.izhikevich import IzhikevichBlock
from repro.neuron.lif import LIFBlock
from repro.neuron.population import Population, core_rng, stimulus_mask
from repro.neuron.synapse import MAX_DELAY_TICKS, FusedDeferredEventBuffer
from repro.profile import perf_now
from repro.runtime.application import ApplicationResult

__all__ = ["FusedBoardEngine", "ShardResult", "SpikeBatch"]

#: One cross-core spike batch: the source vertex's sticky AER base key
#: plus the spiking neurons' vertex-local indices.
SpikeBatch = Tuple[int, np.ndarray]

#: model name -> stacked block implementation (every model
#: :class:`~repro.neuron.population.Population` admits).
_BLOCKS = {"lif": LIFBlock, "izhikevich": IzhikevichBlock}


@dataclass
class ShardResult:
    """What one board's engine hands back after a run."""

    board: int
    result: ApplicationResult
    #: Packets that matched no synaptic block at their destination.
    unmatched_packets: int = 0
    #: Seconds this board spent stepping neurons and scattering events.
    compute_s: float = 0.0
    #: Engine-side split of :attr:`compute_s` — ``step`` (tick loop),
    #: ``local_apply`` (same-board scatters) and ``remote_apply``
    #: (cross-board scatters).
    stage_s: Dict[str, float] = field(default_factory=dict)


class _FusedGroup:
    """All of a board's cores of one neuron model, stepped as a block."""

    __slots__ = ("model", "specs", "block", "bias", "base", "n_lanes",
                 "width")

    def __init__(self, model: str, specs: List, states: List,
                 biases: List[Optional[float]]) -> None:
        self.model = model
        self.specs = specs
        self.block = _BLOCKS[model](states)
        self.n_lanes = self.block.n_lanes
        self.width = self.block.width
        #: Ring column of lane 0, cell 0 (set by the engine's layout).
        self.base = 0
        # A zero bias column is bit-safe: the only consumer adds it to
        # the synaptic current, and ``x + 0.0`` only differs from ``x``
        # at ``-0.0``, which no downstream comparison can distinguish.
        self.bias = np.zeros((self.n_lanes, self.width), dtype=float)
        for lane, (spec, bias) in enumerate(zip(specs, biases)):
            if bias:
                self.bias[lane, :spec.vertex.n_neurons] = bias


class _SourceCore:
    """A spike-source core: its generator stream and prefetched masks."""

    __slots__ = ("spec", "population", "rng", "queued", "next_tick")

    def __init__(self, spec, population: Population,
                 seed: Optional[int]) -> None:
        self.spec = spec
        self.population = population
        self.rng = core_rng(seed, spec.chip.x, spec.chip.y, spec.core_id)
        #: Prefetched masks, oldest first.
        self.queued: deque = deque()
        #: Next tick a mask would be generated for.
        self.next_tick = 0


class FusedBoardEngine:
    """Tick-synchronous, vectorised executor of one board's compiled
    sub-context."""

    def __init__(self, context: BoardContext,
                 populations: Dict[str, Population],
                 seed: Optional[int], timestep_ms: float,
                 export_keys: Set[int]) -> None:
        self.context = context
        self.board = context.board
        self.timestep_ms = timestep_ms
        #: Keys whose spiking indices :meth:`step` must hand back for
        #: the exchange (this board's entry of
        #: :attr:`~repro.cluster.exchange.ExchangePlan.export_keys`).
        #: The board's own legs are delivered *locally* at the
        #: end of each tick (worker-side routing: same-board traffic
        #: never leaves the process).
        self.export_keys = export_keys

        # ---- group the board's cores ---------------------------------
        grouped: Dict[str, Tuple[List, List, List]] = {}
        self._sources: List[_SourceCore] = []
        #: Local core index -> (model, lane); ``None`` for a source.
        lanes: List[Optional[Tuple[str, int]]] = []
        for spec in context.cores:
            population = populations[spec.vertex.population_label]
            if population.is_spike_source:
                self._sources.append(_SourceCore(spec, population, seed))
                lanes.append(None)
                continue
            specs, states, biases = grouped.setdefault(
                population.model_name, ([], [], []))
            # The per-core construction of the on-machine runtime: the
            # same sliced population fed the same per-core generator.
            rng = core_rng(seed, spec.chip.x, spec.chip.y, spec.core_id)
            sliced = Population(
                spec.vertex.n_neurons, population.parameters,
                label="%s-shard-%d" % (population.label, spec.vertex.index))
            specs.append(spec)
            states.append(sliced.build_state(timestep_ms, rng))
            biases.append(population.bias_current_na or None)
            lanes.append((population.model_name, len(specs) - 1))
        groups = {model: _FusedGroup(model, *members)
                  for model, members in grouped.items()}
        self._groups = list(groups.values())

        # ---- fused ring layout ---------------------------------------
        # Group blocks back to back (lane-major, padded), then one sink
        # column: a projection *onto* a spike source still has synaptic
        # blocks, and its events are counted like any other but their
        # charge must land nowhere.  ``translate`` maps a board-flat
        # neuron index (the delivery arena's numbering) to its column.
        ring_width = 0
        for group in self._groups:
            group.base = ring_width
            ring_width += group.n_lanes * group.width
        index = self._index = context.delivery_index
        translate = np.full(max(index.total_neurons, 1), ring_width,
                            dtype=np.intp)
        for local, lane in enumerate(lanes):
            if lane is None:
                continue
            flat = index.core_offsets[local]
            n = context.cores[local].vertex.n_neurons
            group = groups[lane[0]]
            translate[flat:flat + n] = (group.base + lane[1] * group.width
                                        + np.arange(n))
        self._ring = FusedDeferredEventBuffer(ring_width + 1,
                                              MAX_DELAY_TICKS)
        # Pre-translate the arena's targets to ring columns once.
        self._arena_cells = translate[index.targets]
        self._arena_weights = index.weights
        self._arena_delays = index.delay_ticks

        # ---- recording -----------------------------------------------
        self.result = ApplicationResult(duration_ms=0.0)
        self._spike_chunks: Dict[str, List[Tuple[float, np.ndarray]]] = {}
        for label, population in populations.items():
            self.result.spike_counts[label] = np.zeros(population.size,
                                                       dtype=int)
            if population.record_spikes:
                self.result.spikes[label] = []
                self._spike_chunks[label] = []
        self.unmatched_packets = 0
        self.step_s = 0.0
        self.local_apply_s = 0.0
        self.remote_apply_s = 0.0
        self.ticks_run = 0

    @property
    def compute_s(self) -> float:
        """Seconds spent stepping neurons and scattering events."""
        return self.step_s + self.local_apply_s + self.remote_apply_s

    @property
    def stage_s(self) -> Dict[str, float]:
        """The engine-stage split reported in :class:`ShardResult`."""
        return {"step": self.step_s, "local_apply": self.local_apply_s,
                "remote_apply": self.remote_apply_s}

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _scatter_batches(
            self, batches: Iterable[Tuple[int, int, np.ndarray]]) -> None:
        """Deliver ``(key, age, spiking)`` batches in one fused scatter.

        Gathers every batch's arena slots, concatenates, and lands the
        lot with a single ring update — result-exact versus delivering
        each leg on its own (as the fabric transport does) because ring
        accumulation of the fixed-point weights is an exact sum.
        """
        index = self._index
        none_legs = index.none_legs
        row_ptr_map = index.row_ptr
        result = self.result
        start_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        ages: List[int] = []
        sizes: List[int] = []
        for key, age, spiking in batches:
            matchless = none_legs.get(key)
            if matchless:
                self.unmatched_packets += matchless * int(spiking.size)
            row_ptr = row_ptr_map.get(key)
            if row_ptr is None:
                continue
            starts = row_ptr[spiking]
            counts = row_ptr[spiking + 1] - starts
            total = int(counts.sum())
            if total == 0:
                continue
            start_parts.append(starts)
            count_parts.append(counts)
            ages.append(age)
            sizes.append(total)
        if not start_parts:
            return
        # One merged row expansion for the whole batch list — the same
        # (batch, spiking source)-major slot order ``slots_for`` yields
        # per batch, without the per-key expansion overhead.
        starts = (start_parts[0] if len(start_parts) == 1
                  else np.concatenate(start_parts))
        counts = (count_parts[0] if len(count_parts) == 1
                  else np.concatenate(count_parts))
        total = sum(sizes)
        offsets = np.cumsum(counts) - counts
        slots = np.arange(total, dtype=np.intp)
        slots += np.repeat(starts - offsets, counts)
        weights = self._arena_weights[slots]
        delays = self._arena_delays[slots]
        if any(ages):
            delays = delays - np.repeat(np.asarray(ages, dtype=np.intp),
                                        sizes)
        result.synaptic_events += total
        # One charge sum over the merged batches: every weight is an
        # exact multiple of 2^-4 in float64, so the total is exact and
        # grouping-independent — bit-equal to a per-leg accumulation.
        result.delivered_charge_na += float(weights.sum())
        self._ring.add_events(self._arena_cells[slots], weights, delays)

    def apply(self, batches: List[SpikeBatch]) -> None:
        """Scatter inbound spike batches into the fused ring.

        Called at the tick barrier with the previous tick's batches, so
        the ring's current tick is already one past the send tick and a
        delay-``d`` synapse lands ``d`` ticks ahead — the arrival slot
        of the fabric transport.
        """
        began = perf_now()
        self._scatter_batches(
            (key, 0, spiking) for key, spiking in batches)
        self.local_apply_s += perf_now() - began

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
        """Run one tick over every core — one block step per model
        instead of one call per core — deliver the board's own legs and
        return the batches to export."""
        began = perf_now()
        time_ms = tick * self.timestep_ms
        outbound: List[SpikeBatch] = []
        local: List[SpikeBatch] = []
        row = self._ring.drain()
        for group in self._groups:
            grid = row[group.base:group.base + group.n_lanes * group.width]
            group.block.inject_synaptic_input(
                grid.reshape(group.n_lanes, group.width))
            spikes = group.block.step(group.bias)
            lanes, cols = np.nonzero(spikes)
            if lanes.size == 0:
                continue
            # Row-major nonzero: lanes ascend, so slicing per lane keeps
            # the canonical core order within the group (and therefore
            # within every population, which maps to exactly one group).
            bounds = np.searchsorted(lanes, np.arange(group.n_lanes + 1))
            for lane, spec in enumerate(group.specs):
                lo, hi = int(bounds[lane]), int(bounds[lane + 1])
                if lo == hi:
                    continue
                self._emit(spec, cols[lo:hi], time_ms, outbound, local)
        for core in self._sources:
            if core.queued:
                mask = core.queued.popleft()
            else:
                mask = self._source_mask(core, tick)
                core.next_tick = tick + 1
            spiking = np.flatnonzero(mask)
            if spiking.size:
                self._emit(core.spec, spiking, time_ms, outbound, local)
        self.step_s += perf_now() - began
        self.ticks_run = tick + 1
        if local:
            self.apply(local)
        return outbound

    def _emit(self, spec, spiking: np.ndarray, time_ms: float,
              outbound: List[SpikeBatch], local: List[SpikeBatch]) -> None:
        """Record one core's tick spikes and route its batch."""
        result = self.result
        label = spec.vertex.population_label
        global_indices = spiking + spec.vertex.slice_start
        result.spike_counts[label][global_indices] += 1
        if label in self._spike_chunks:
            self._spike_chunks[label].append((time_ms, global_indices))
        if spec.has_outgoing:
            result.packets_sent += int(spiking.size)
            if spec.base_key in self.context.deliveries:
                local.append((spec.base_key, spiking))
            if spec.base_key in self.export_keys:
                outbound.append((spec.base_key, spiking))

    def _source_mask(self, core: _SourceCore, tick: int) -> np.ndarray:
        vertex = core.spec.vertex
        return stimulus_mask(core.population, vertex.slice_start,
                             vertex.slice_stop, tick, self.timestep_ms,
                             core.rng)

    def prefetch_sources(self, upto_tick: int) -> None:
        """Precompute source masks up to and including ``upto_tick``.

        Worth calling right before a barrier wait: the generator draws
        happen while the engine would otherwise block, and stay in tick
        order per stream, so the spikes are unchanged.
        """
        for core in self._sources:
            while core.next_tick <= upto_tick:
                core.queued.append(self._source_mask(core, core.next_tick))
                core.next_tick += 1

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self, duration_ms: float) -> ShardResult:
        """Close out the board's recording and return its result.

        Materialises the per-tick spike chunks into the per-spike
        ``(time_ms, index)`` tuples of the ApplicationResult surface —
        chunks were appended in tick order with in-tick indices already
        sorted, so the expansion is the canonical recording order.
        """
        self.result.duration_ms = duration_ms
        for label, chunks in self._spike_chunks.items():
            out = self.result.spikes[label]
            for time_ms, indices in chunks:
                out.extend(zip(repeat(time_ms), indices.tolist()))
            chunks.clear()
        return ShardResult(board=self.board, result=self.result,
                           unmatched_packets=self.unmatched_packets,
                           compute_s=self.compute_s,
                           stage_s=self.stage_s)
