"""The event-driven real-time neural application (Figure 7).

Every active application core executes the same three interrupt-driven
tasks:

* **Packet received** (priority 1): identify the spiking neuron from the
  packet key, look it up in the master population table and schedule a DMA
  of the corresponding synaptic row from SDRAM.
* **DMA complete** (priority 2): process the fetched synaptic row — defer
  each synapse's charge into the input ring buffer at the slot selected by
  its programmable delay.
* **Millisecond timer** (priority 3): drain the current ring-buffer slot,
  integrate the neuron equations — the tick kernel
  (:mod:`repro.neuron.kernel`), driven here with one unit per core — and
  emit a multicast packet for every neuron that fired.

When all tasks are complete the core sleeps in the low-power
wait-for-interrupt state.  :class:`NeuralApplication` wires a
population/projection network onto a machine using the mapping layer and
runs it in (simulated) biological real time; spike-delivery latencies are
recorded so experiments E8 and E10 can check the paper's sub-millisecond
delivery claim.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.compile import MappingContext, MappingPipeline
from repro.core.dma import DMARequest
from repro.core.event_kernel import EventKernel
from repro.core.geometry import ChipCoordinate
from repro.core.machine import SpiNNakerMachine
from repro.core.packets import MulticastPacket
from repro.core.processor import ProcessorSubsystem
from repro.mapping.keys import KeyAllocator, KeySpace
from repro.mapping.placement import Placement, Vertex
from repro.mapping.synaptic_matrix import CoreSynapticData
from repro.neuron.engine import CSRMatrix
from repro.router.fabric import RouteProgram, RouteTarget, TransportFabric
from repro.neuron.kernel import SpikeRecord, SpikeTrain, TickKernel, TickUnit
from repro.neuron.network import Network
from repro.neuron.population import Population, core_rng

#: The biological real-time tick of the application model.
TIMER_PERIOD_US = 1000.0

#: Sentinel hop distance recorded for deliveries whose packet carried no
#: source coordinate, keeping the latency/distance samples aligned.
UNKNOWN_DISTANCE = -1


@dataclass
class ApplicationResult(SpikeRecord):
    """Spike records and timing statistics from an on-machine run."""

    #: Per-delivery latency samples (microseconds), in delivery order.
    latency_samples: array = field(default_factory=lambda: array("d"))
    #: Per-delivery hop distances, aligned one-to-one with the latency
    #: samples; :data:`UNKNOWN_DISTANCE` marks deliveries whose packet
    #: carried no source coordinate.
    distance_samples: array = field(default_factory=lambda: array("q"))
    packets_sent: int = 0
    packets_dropped: int = 0
    emergency_invocations: int = 0
    #: Synaptic events scattered into the deferred-event buffers.
    synaptic_events: int = 0
    #: Total synaptic charge (nA) delivered; an exact sum of fixed-point
    #: weights, so it is comparable bit-for-bit across transports.
    delivered_charge_na: float = 0.0
    #: Deferred-event ring cells clamped at the 16-bit weight range.
    saturations: int = 0

    @property
    def delivery_latencies_us(self) -> np.ndarray:
        """Per-delivery latency samples in microseconds (send to
        processing), as an independent array."""
        return np.array(self.latency_samples)

    @property
    def delivery_distances(self) -> np.ndarray:
        """Per-delivery hop distances, aligned with ``delivery_latencies_us``."""
        return np.array(self.distance_samples)

    def record_delivery(self, latency_us: float,
                        distance: Optional[int] = None,
                        count: int = 1) -> None:
        """Record ``count`` spike deliveries of one latency and distance:
        one packet on the event transport, a batch on the fabric.

        ``distance=None`` (a packet with no source coordinate) records
        :data:`UNKNOWN_DISTANCE` so the latency and distance arrays stay
        aligned sample-for-sample.
        """
        if distance is None:
            distance = UNKNOWN_DISTANCE
        if count == 1:
            self.latency_samples.append(latency_us)
            self.distance_samples.append(distance)
        else:
            self.latency_samples.extend([latency_us] * count)
            self.distance_samples.extend([distance] * count)

    @classmethod
    def merge(cls, results: List["ApplicationResult"]) -> "ApplicationResult":
        """Merge per-shard results into one machine-wide result.

        Used by the cluster runner (:mod:`repro.cluster`): shards are
        merged *in list order*, so callers that always present shards in
        canonical board order get a bit-identical merge regardless of how
        many workers produced them.  Spike counts are summed per label,
        trains are concatenated and stably sorted by time (preserving
        the board-order tie-break within a tick), and counters add up.
        """
        merged = cls(duration_ms=max(
            (result.duration_ms for result in results), default=0.0))
        trains: Dict[str, List[SpikeTrain]] = {}
        for result in results:
            for label, counts in result.spike_counts.items():
                merged.spike_counts[label] = (
                    merged.spike_counts.get(label, 0) + counts)
            for label, train in result.spikes.items():
                trains.setdefault(label, []).append(train)
            merged.latency_samples.extend(result.latency_samples)
            merged.distance_samples.extend(result.distance_samples)
            merged.packets_sent += result.packets_sent
            merged.packets_dropped += result.packets_dropped
            merged.emergency_invocations += result.emergency_invocations
            merged.synaptic_events += result.synaptic_events
            merged.delivered_charge_na += result.delivered_charge_na
            merged.saturations += result.saturations
        for label, parts in trains.items():
            times = np.concatenate([part.times_ms for part in parts])
            order = np.argsort(times, kind="stable")
            merged.spikes[label] = SpikeTrain(times[order], np.concatenate(
                [part.neurons for part in parts])[order])
        return merged

    def max_delivery_latency_us(self) -> float:
        """Worst spike-delivery latency observed (0 if nothing delivered)."""
        samples = np.frombuffer(self.latency_samples)
        return float(samples.max()) if samples.size else 0.0

    def mean_delivery_latency_us(self) -> float:
        """Mean spike-delivery latency (0 for an empty run)."""
        samples = np.frombuffer(self.latency_samples)
        return float(samples.mean()) if samples.size else 0.0

    def within_deadline_fraction(self, deadline_us: float = 1000.0) -> float:
        """Fraction of deliveries completed within ``deadline_us``.

        An empty run (nothing delivered) trivially meets every deadline
        and reports 1.0.
        """
        samples = np.frombuffer(self.latency_samples)
        if samples.size == 0:
            return 1.0
        return float(np.count_nonzero(samples <= deadline_us) / samples.size)


@dataclass
class _FabricDelivery:
    """One precompiled (source vertex -> destination core) delivery leg.

    Compiled once after mapping: the destination core's leg for the
    source key (:attr:`CoreSynapticData.legs`), plus the transport
    latency extended with the nominal core-side costs (packet handler,
    DMA fetch, DMA-complete handler) the event path pays per packet.
    That is the uncongested latency: the event path's samples also hold
    NoC, DMA and handler queueing, so the two transports' latencies
    differ (their counters and delivery counts do not).
    """

    runtime: "CoreRuntime"
    leg: Optional[CSRMatrix]
    latency_us: float
    distance: int
    stride_words: int


class CoreRuntime:
    """The application kernel running on one core (one placed vertex)."""

    def __init__(self, application: "NeuralApplication", core: ProcessorSubsystem,
                 chip_coordinate: ChipCoordinate, vertex: Vertex,
                 population: Population, key_space: KeySpace,
                 synaptic_data: CoreSynapticData,
                 rng: np.random.Generator,
                 has_outgoing_projections: bool = True,
                 transport: str = "event") -> None:
        self.application = application
        self.transport = transport
        #: Filled in by the application when ``transport="fabric"``.
        self.fabric_program: Optional[RouteProgram] = None
        self.fabric_deliveries: List[_FabricDelivery] = []
        self.core = core
        self.chip_coordinate = chip_coordinate
        self.vertex = vertex
        self.population = population
        self.key_space = key_space
        self.synaptic_data = synaptic_data
        self.rng = rng
        #: Vertices of populations with no outgoing projections have no
        #: routing entries for their keys; the mapping layer therefore does
        #: not emit spike packets for them (their spikes are still recorded
        #: locally), mirroring the real tool-chain.
        self.has_outgoing_projections = has_outgoing_projections

        #: The vertex as the one unit of this core's tick kernel.
        self.unit = TickUnit(population, vertex.slice_start,
                             vertex.slice_stop, rng)
        self.tick_kernel = TickKernel([self.unit], application.timestep_ms,
                                      application.result)
        #: Ring column of each of the vertex's neurons (see
        #: :meth:`TickKernel.columns`); ``None`` for a spike source, which
        #: integrates nothing, so charge aimed at it is dropped.
        self._columns = (None if population.is_spike_source
                         else self.tick_kernel.columns(self.unit))
        self.tick = 0

        core.on_packet(self._on_packet)
        core.on_dma_complete(self._on_dma_complete)
        core.on_timer(self._on_timer)
        core.start_application()

    # ------------------------------------------------------------------
    # Figure 7, priority 1: packet received
    # ------------------------------------------------------------------
    def _on_packet(self, packet: MulticastPacket) -> None:
        entry = self.synaptic_data.population_table.lookup(packet.key)
        if entry is None:
            # No connectivity block for this key: a routing-table error.
            self.application.unmatched_packets += 1
            return
        address, row_words = entry.address_of(packet.key)
        self.core.dma.read(address, row_words,
                           on_complete=self.core.dma_completed,
                           context=(packet, entry))

    # ------------------------------------------------------------------
    # Figure 7, priority 2: DMA complete
    # ------------------------------------------------------------------
    def _on_dma_complete(self, request: DMARequest) -> None:
        packet, entry = request.context
        # The DMA fetched (and was charged for) the packed row; its
        # decoded form is that row of the entry's leg.
        leg = self.synaptic_data.legs[entry.key]
        row = entry.row_of(packet.key)
        count = self.deliver(leg, slice(leg.row_ptr[row],
                                        leg.row_ptr[row + 1]))
        self.core.charge_cycles(self.core.costs.row_cycles(count))
        latency = self.application.kernel.now - packet.timestamp
        distance = None
        if packet.source is not None:
            distance = self.application.machine.geometry.distance(
                packet.source, self.chip_coordinate)
        self.application.result.record_delivery(latency, distance)

    def deliver(self, leg: CSRMatrix, slots) -> int:
        """Defer the synapses at ``slots`` of ``leg`` into this core's
        ring — the tail both transports share — and count them."""
        weights = leg.weights[slots]
        count = int(weights.size)
        if self._columns is not None:
            # Decoded 16-bit words: fixed-point weights, addressed as the
            # board engine addresses its ring.
            ring = self.tick_kernel.ring
            ring.add_fixed_point(self._columns[leg.targets[slots]]
                                 + leg.delay_ticks[slots] * ring.width,
                                 weights)
        result = self.application.result
        result.synaptic_events += count
        result.delivered_charge_na += float(weights.sum())
        return count

    # ------------------------------------------------------------------
    # Figure 7, priority 3: millisecond timer
    # ------------------------------------------------------------------
    def _on_timer(self) -> None:
        # The kernel's one unit is the vertex: its cells are local indices.
        spiking = self.tick_kernel.step(self.tick)
        if not self.population.is_spike_source:
            self.core.charge_cycles(
                self.core.costs.timer_cycles_per_neuron * self.vertex.n_neurons)
        if spiking.size and self.has_outgoing_projections:
            if self.transport == "fabric":
                # Compiled transport: one batched send for the whole
                # tick's spikes instead of a packet per neuron.
                self.application.fabric_send(self, spiking)
            else:
                for local_index in spiking:
                    self.core.send_multicast(MulticastPacket(
                        key=self.key_space.key_for(int(local_index)),
                        timestamp=self.application.kernel.now,
                        source=self.chip_coordinate))
            self.application.result.packets_sent += int(spiking.size)
        self.tick += 1


class NeuralApplication:
    """Maps a network onto a machine and runs it under the event kernel."""

    def __init__(self, machine: SpiNNakerMachine, network: Network,
                 max_neurons_per_core: int = 256,
                 placement_strategy: str = "locality",
                 seed: Optional[int] = None,
                 transport: str = "event",
                 stagger_us: float = 10.0) -> None:
        if transport not in ("event", "fabric"):
            raise ValueError("transport must be 'event' or 'fabric', "
                             "got %r" % (transport,))
        if stagger_us < 0:
            raise ValueError("stagger_us must be non-negative")
        self.machine = machine
        self.network = network
        self.kernel: EventKernel = machine.kernel
        self.timestep_ms = network.timestep_ms
        self.seed = seed if seed is not None else (network.seed or 0)
        #: Seed key used for connectivity expansion.  Unlike ``self.seed``
        #: (which must be concrete to derive per-core generators), this
        #: preserves ``None`` for an unseeded network so the mapping
        #: layers share the host simulator's unseeded cache entry instead
        #: of building an independent expansion under key 0.
        self.expansion_seed = seed if seed is not None else network.seed
        self.max_neurons_per_core = max_neurons_per_core
        self.placement_strategy = placement_strategy
        self.transport = transport
        #: Upper bound (us) of the random per-core timer offset.  The
        #: default keeps the paper's bounded asynchrony; transport
        #: equivalence checks set it to 0 so both transports see the same
        #: tick alignment at every core.
        self.stagger_us = stagger_us

        self.placement: Optional[Placement] = None
        self.keys: Optional[KeyAllocator] = None
        #: The mapping compiler bound to this application; built by
        #: :meth:`prepare`, re-driven by :meth:`remap`.
        self.pipeline: Optional[MappingPipeline] = None
        self.core_runtimes: List[CoreRuntime] = []
        self.result = ApplicationResult(duration_ms=0.0)
        self.unmatched_packets = 0
        self.fabric: Optional[TransportFabric] = None
        self._prepared = False
        self._broadcast_routing = False

    # ------------------------------------------------------------------
    # Mapping and configuration
    # ------------------------------------------------------------------
    def prepare(self, broadcast_routing: bool = False) -> None:
        """Compile the mapping artifacts and configure every core.

        A thin wrapper around the :mod:`repro.compile` pass pipeline.
        ``broadcast_routing`` selects the bus-style AER baseline of
        experiment E11 instead of multicast trees.

        Preparing twice is guarded explicitly: a second call with the
        same arguments is a no-op (it used to double-append core runtimes
        and re-seed every per-core generator), and a second call that
        asks for a *different* routing mode is an error — re-map through
        :meth:`remap` instead.
        """
        if self._prepared:
            if broadcast_routing != self._broadcast_routing:
                raise RuntimeError(
                    "application already prepared with broadcast_routing=%r;"
                    " it cannot be re-prepared with a different routing mode"
                    % (self._broadcast_routing,))
            return
        self._broadcast_routing = broadcast_routing
        self.pipeline = MappingPipeline(
            self.machine, self.network, seed=self.seed,
            expansion_seed=self.expansion_seed,
            max_neurons_per_core=self.max_neurons_per_core,
            placement_strategy=self.placement_strategy,
            broadcast_routing=broadcast_routing,
            compile_transport=(self.transport == "fabric"))
        ctx = self.pipeline.run()
        self.placement = ctx.placement
        self.keys = ctx.keys
        self._reset_recording()
        self._instantiate_runtimes(ctx)
        if self.transport == "fabric":
            self._build_fabric(ctx.route_programs)
        self._prepared = True

    def _reset_recording(self) -> None:
        """Fresh recording state (shared by prepare and reset re-maps,
        so a reset re-run cannot drift from a cold run).  Runtimes record
        into the result they were built with, so this comes first."""
        self.result = ApplicationResult(duration_ms=0.0)
        self.result.track(self.network.populations)
        self.unmatched_packets = 0

    def _instantiate_runtimes(self, ctx: MappingContext,
                              vertices: Optional[set] = None) -> int:
        """Build core runtimes for placed vertices (all, or a subset).

        Iterates the placement in its canonical order and derives every
        per-core generator from the core's physical location
        (:func:`core_rng`), so the runtimes any two compilations build
        for the same core are identical regardless of iteration order or
        how many re-maps happened in between.
        """
        populations = {p.label: p for p in self.network.populations}
        projecting_labels = {projection.pre.label
                             for projection in self.network.projections}
        built = 0
        for vertex, (chip_coordinate, core_id) in self.placement.locations.items():
            if vertices is not None and vertex not in vertices:
                continue
            chip = self.machine.chips[chip_coordinate]
            core = chip.cores[core_id]
            if not core.is_available:
                continue
            if core.state.value == "off":
                core.run_self_test(True)
            data = ctx.core_data[(chip_coordinate, core_id)]
            runtime = CoreRuntime(
                application=self, core=core, chip_coordinate=chip_coordinate,
                vertex=vertex, population=populations[vertex.population_label],
                key_space=self.keys.key_space(vertex), synaptic_data=data,
                rng=core_rng(self.seed, chip_coordinate.x, chip_coordinate.y,
                             core_id),
                has_outgoing_projections=(vertex.population_label
                                          in projecting_labels),
                transport=self.transport)
            self.core_runtimes.append(runtime)
            built += 1
        return built

    # ------------------------------------------------------------------
    # Incremental re-mapping
    # ------------------------------------------------------------------
    def remap(self, reset: bool = False) -> MappingContext:
        """Incrementally re-map after the machine changed underneath us.

        Re-runs the pipeline (fingerprints decide which passes actually
        execute) after a chip condemnation, core fault or lease shrink.
        With ``reset=False`` (the live fault-mitigation path) only the
        displaced vertices get fresh runtimes — surviving cores keep
        their neuron state and simply see the new routes.  With
        ``reset=True`` every runtime is rebuilt from scratch and the
        recording state cleared, so the subsequent run reproduces a cold
        compile on the shrunken machine bit for bit.
        """
        if not self._prepared:
            raise RuntimeError("prepare() the application before remapping")
        ctx = self.pipeline.run()
        self.placement = ctx.placement
        self.keys = ctx.keys
        if reset:
            for runtime in self.core_runtimes:
                runtime.core.stop_timer()
            self.core_runtimes = []
            self._reset_recording()
            self._instantiate_runtimes(ctx)
            if self.transport == "fabric":
                self._build_fabric(ctx.route_programs)
        else:
            self._rebind_runtimes(
                ctx, set(ctx.moved_vertices) | set(ctx.removed_vertices))
        return ctx

    def _rebind_runtimes(self, ctx: MappingContext, moved: set) -> int:
        """Follow a live re-map: fresh runtimes for ``moved`` vertices only.

        Shared by :meth:`remap` and the functional migrator.  Runtimes
        whose vertex moved (or left the placement) are stopped and
        dropped; survivors keep their neuron state and are re-pointed at
        their core's rebuilt synaptic data; the moved vertices still
        placed get new runtimes at their new slots, and the fabric's
        delivery legs (which reference runtime objects) are recompiled so
        none points at a dropped runtime.  Returns how many runtimes
        were built.
        """
        locations = self.placement.locations
        kept: List[CoreRuntime] = []
        for runtime in self.core_runtimes:
            if runtime.vertex in moved or runtime.vertex not in locations:
                runtime.core.stop_timer()
                continue
            data = ctx.core_data.get((runtime.chip_coordinate,
                                      runtime.core.core_id))
            if data is not None:
                runtime.synaptic_data = data
            kept.append(runtime)
        self.core_runtimes = kept
        built = self._instantiate_runtimes(
            ctx, vertices={v for v in moved if v in locations})
        if self.transport == "fabric":
            self._build_fabric(ctx.route_programs)
        return built

    # ------------------------------------------------------------------
    # Compiled transport fabric
    # ------------------------------------------------------------------
    def _build_fabric(self, programs: Dict[int, RouteProgram]) -> None:
        """Compile route programs and per-destination delivery legs.

        Transport programs come from the mapping compiler (walked from
        the installed tables); any source vertex the route pass skipped
        (for example a projecting population whose slice has no synapses)
        is compiled here so every sender has a program, even if that
        program just records the packet drop the event path would
        perform.
        """
        self.fabric = TransportFabric(self.machine)
        self.fabric.adopt(programs)
        by_location = {(runtime.chip_coordinate, runtime.core.core_id): runtime
                       for runtime in self.core_runtimes}
        for runtime in self.core_runtimes:
            if not runtime.has_outgoing_projections:
                continue
            key = runtime.key_space.base_key
            program = self.fabric.program_for(key)
            if program is None:
                program = self.fabric.compile_key(runtime.chip_coordinate, key)
            runtime.fabric_program = program
            runtime.fabric_deliveries = [
                delivery for delivery in
                (self._compile_delivery(runtime, by_location.get(
                    (target.chip, target.core_id)), target)
                 for target in program.targets)
                if delivery is not None]

    def _compile_delivery(self, source: CoreRuntime,
                          destination: Optional[CoreRuntime],
                          target: RouteTarget) -> Optional[_FabricDelivery]:
        """Compile one delivery leg: the destination's leg, the latency."""
        if destination is None:
            # Delivered to a core no runtime occupies; the event path
            # would raise a packet interrupt that no application handles.
            return None
        chip = self.machine.chips[target.chip]
        clock = destination.core.clock
        costs = destination.core.costs
        distance = self.machine.geometry.distance(source.chip_coordinate,
                                                  target.chip)
        entry = destination.synaptic_data.population_table.entry_for(
            source.key_space.base_key)
        if entry is None:
            # No connectivity block for this key: the event path counts
            # an unmatched packet per delivery.
            latency = (target.latency_us
                       + clock.cycles_to_microseconds(
                           costs.packet_received_cycles))
            return _FabricDelivery(runtime=destination, leg=None,
                                   latency_us=latency, distance=distance,
                                   stride_words=0)
        stride = entry.row_stride_words
        # Nominal per-packet core-side costs the event path pays between
        # arrival and the deferred-event scatter.
        processing = (clock.cycles_to_microseconds(costs.packet_received_cycles)
                      + destination.core.dma.setup_time_us
                      + chip.sdram.transfer_time(4 * stride)
                      + clock.cycles_to_microseconds(
                          costs.dma_complete_cycles(stride)))
        return _FabricDelivery(runtime=destination,
                               leg=destination.synaptic_data.legs[entry.key],
                               latency_us=target.latency_us + processing,
                               distance=distance, stride_words=stride)

    def fabric_send(self, runtime: CoreRuntime, spiking: np.ndarray) -> None:
        """Send one tick's whole spike batch over the compiled fabric."""
        program = runtime.fabric_program
        if program is None:
            return
        n = int(spiking.size)
        self.fabric.account_batch(program, n)
        runtime.core.record_sent(n)
        send_time = self.kernel.now
        for delivery in runtime.fabric_deliveries:
            self.kernel.schedule_batch(
                delivery.latency_us, self._fabric_deliver, count=n,
                priority=1, label="fabric-deliver", delivery=delivery,
                spiking=spiking, send_time=send_time)

    def _fabric_deliver(self, _kernel: EventKernel,
                        delivery: _FabricDelivery, spiking: np.ndarray,
                        send_time: float) -> None:
        """Run one delivered batch through the event path's steps at the
        destination — arrival, population-table lookup, row DMA,
        DMA-complete handler — counting each with ``n = batch``, and
        scatter it into the destination's buffers."""
        destination = delivery.runtime
        core = destination.core
        costs = core.costs
        n = int(spiking.size)
        if not core.record_received(n):
            return
        destination.synaptic_data.population_table.record_lookups(
            n, hit=delivery.leg is not None)
        if delivery.leg is None:
            self.unmatched_packets += n
            core.charge_cycles(n * costs.packet_received_cycles)
            return
        count = destination.deliver(delivery.leg,
                                    delivery.leg.synapse_slots(spiking))
        core.dma.record_reads(n, delivery.stride_words)
        core.record_dma_completions(n)
        core.charge_cycles(
            n * (costs.packet_received_cycles
                 + costs.dma_complete_cycles(delivery.stride_words))
            + costs.row_cycles(count))
        self.result.record_delivery(self.kernel.now - send_time,
                                    delivery.distance, n)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def launch(self, duration_ms: float) -> float:
        """Start every core's timer and return the simulated end time.

        The timers are staggered slightly so the machine is not
        artificially lock-stepped (bounded asynchrony).  ``launch`` does
        not advance the kernel: several applications on one machine (for
        example concurrent allocation jobs on disjoint leases) can all be
        launched and then driven together — see :func:`run_concurrently`.
        """
        if not self._prepared:
            self.prepare()
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        n_ticks = int(round(duration_ms / self.timestep_ms))
        end_time = self.kernel.now
        for runtime in self.core_runtimes:
            # The offset is derived from the core's location (stream 1 of
            # the per-core generator family), so the stagger pattern is
            # independent of runtime construction order and survives
            # incremental re-maps.
            offset = 0.0
            if self.stagger_us > 0:
                offset = float(core_rng(
                    self.seed, runtime.chip_coordinate.x,
                    runtime.chip_coordinate.y, runtime.core.core_id,
                    stream=1).uniform(0.0, self.stagger_us))
            first_tick = runtime.core.start_timer(TIMER_PERIOD_US,
                                                  start_offset_us=offset)
            # The run ends on the latest core's final tick, computed by
            # the timer's own ``first + k * period`` expression, so every
            # core executes exactly ``n_ticks`` ticks.
            if n_ticks > 0:
                end_time = max(end_time,
                               first_tick + (n_ticks - 1) * TIMER_PERIOD_US)
        return end_time

    def halt(self) -> None:
        """Stop every core's millisecond timer."""
        for runtime in self.core_runtimes:
            runtime.core.stop_timer()

    def collect(self, duration_ms: float) -> ApplicationResult:
        """Finalise the result bookkeeping after a (halted) run."""
        self.result.flush()
        self.result.duration_ms += duration_ms
        self.result.packets_dropped = self.machine.total_dropped_packets()
        self.result.emergency_invocations = self.machine.total_emergency_invocations()
        self.result.saturations = sum(runtime.tick_kernel.ring.saturations
                                      for runtime in self.core_runtimes)
        return self.result

    def run(self, duration_ms: float) -> ApplicationResult:
        """Run the application for ``duration_ms`` of biological time; a
        later call continues the run, growing :attr:`result` in place."""
        end_time = self.launch(duration_ms)
        self.kernel.run_until(end_time)
        self.halt()
        # Let in-flight packets and DMAs drain so latency statistics are
        # complete, without advancing the timers any further.
        self.kernel.run(max_events=1_000_000)
        return self.collect(duration_ms)


def run_concurrently(applications: List["NeuralApplication"],
                     duration_ms: float) -> List[ApplicationResult]:
    """Run several applications side by side on one event kernel.

    All applications must share the same kernel (the normal situation for
    allocation jobs holding disjoint leases of one machine).  Every
    application is launched first, the shared kernel is advanced once to
    the common end time, and only then are the timers halted and the
    queues drained — so the workloads genuinely interleave in simulated
    time instead of running back to back.
    """
    if not applications:
        return []
    kernel = applications[0].kernel
    for application in applications[1:]:
        if application.kernel is not kernel:
            raise ValueError("concurrent applications must share one "
                             "event kernel")
    end_times = [application.launch(duration_ms)
                 for application in applications]
    kernel.run_until(max(end_times))
    for application in applications:
        application.halt()
    kernel.run(max_events=1_000_000)
    return [application.collect(duration_ms)
            for application in applications]
