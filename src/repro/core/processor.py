"""The ARM968 processor subsystem (Figure 4).

Each SpiNNaker chip contains up to 20 of these subsystems.  Every subsystem
has:

* 32 Kbyte of instruction memory (ITCM) and 64 Kbyte of data memory (DTCM);
* a timer/counter that raises the 1 ms interrupt of the real-time model;
* a vectored interrupt controller (VIC) that prioritises the three
  application interrupts of Figure 7 — packet received (highest), DMA
  complete, millisecond timer (lowest);
* a communications controller that injects and receives router packets;
* a DMA controller used to fetch synaptic rows from the shared SDRAM.

The processor is modelled as an *event-cost* machine rather than an
instruction-set simulator: each interrupt handler occupies the core for a
configurable number of cycles, the core tracks the time it spends busy
versus asleep ("wait for interrupt"), and handler invocations that arrive
while the core is busy queue up — which is exactly what determines whether
the real-time deadlines of Section 3.1 are met.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from repro.core.clock import ClockDomain
from repro.core.dma import DMAController, DMARequest
from repro.core.event_kernel import EventKernel

#: Local instruction memory size (bytes).
ITCM_BYTES = 32 * 1024
#: Local data memory size (bytes).
DTCM_BYTES = 64 * 1024


class ProcessorState(Enum):
    """Lifecycle states of a processor subsystem (Sections 5.2 and 5.3)."""

    OFF = "off"                    #: Not yet powered / before boot.
    SELF_TEST = "self-test"        #: Running the power-on self-test.
    FAILED = "failed"              #: Self-test failed or fault detected.
    READY = "ready"                #: Passed self-test, awaiting a role.
    MONITOR = "monitor"            #: Elected as the chip's Monitor Processor.
    APPLICATION = "application"    #: Running event-driven application code.
    SLEEPING = "sleeping"          #: In the low-power wait-for-interrupt state.
    DISABLED = "disabled"          #: Mapped out due to a suspected fault.


class InterruptPriority:
    """VIC priorities of the three application events (Figure 7)."""

    PACKET_RECEIVED = 1
    DMA_COMPLETE = 2
    MILLISECOND_TIMER = 3


@dataclass
class HandlerCosts:
    """Cycle costs charged for each interrupt handler.

    The defaults approximate the costs reported for the SpiNNaker neural
    kernel: a packet handler that looks up the master-population table and
    issues a DMA, a DMA handler that processes a synaptic row, and a timer
    handler that integrates the neuron state equations.
    """

    packet_received_cycles: float = 80.0
    dma_complete_cycles_per_word: float = 12.0
    dma_complete_fixed_cycles: float = 60.0
    timer_cycles_per_neuron: float = 120.0
    timer_fixed_cycles: float = 200.0

    def dma_complete_cycles(self, row_words: int) -> float:
        """One DMA-complete handler for a fetched ``row_words``-word row."""
        return (self.dma_complete_fixed_cycles
                + self.dma_complete_cycles_per_word * row_words)

    def row_cycles(self, synapses: int) -> float:
        """Processing ``synapses`` synaptic events out of fetched rows."""
        return self.dma_complete_cycles_per_word * synapses


@dataclass
class _PendingInterrupt:
    priority: int
    cycles: float
    handler: Callable[..., None]
    kwargs: Dict[str, Any]
    raised_at: float


class ProcessorSubsystem:
    """One ARM968 core with its local peripherals (Figure 4).

    Parameters
    ----------
    kernel:
        The shared discrete-event kernel.
    core_id:
        Index of the core within its chip (0-19).
    clock:
        The core's GALS clock domain.
    dma:
        The core's DMA controller (already bound to the node's SDRAM).
    send_packet:
        Callable used by the communications controller to inject a packet
        into the chip's router, invoked as ``send_packet(core_id, packet)``.
    costs:
        Cycle-cost model for the interrupt handlers.
    """

    def __init__(self, kernel: EventKernel, core_id: int, clock: ClockDomain,
                 dma: DMAController,
                 send_packet: Optional[Callable[[int, Any], None]] = None,
                 costs: Optional[HandlerCosts] = None) -> None:
        self.kernel = kernel
        self.core_id = core_id
        self.clock = clock
        self.dma = dma
        self._send_packet = send_packet
        self.costs = costs or HandlerCosts()

        self.state = ProcessorState.OFF
        self.itcm_bytes = ITCM_BYTES
        self.dtcm_bytes = DTCM_BYTES
        self.itcm_used = 0
        self.dtcm_used = 0

        # Application handlers (Figure 7).
        self._packet_handler: Optional[Callable[..., None]] = None
        self._dma_handler: Optional[Callable[..., None]] = None
        self._timer_handler: Optional[Callable[..., None]] = None
        self._timer_event = None
        self.timer_period_us: Optional[float] = None

        # Interrupt machinery: pending interrupts wait while a handler is
        # running; they are drained in priority order.
        self._pending: List[_PendingInterrupt] = []
        self._running = False
        self._busy_until = 0.0

        # Accounting for the energy model and the real-time benchmarks.
        self.busy_time_us = 0.0
        self.handler_invocations: Dict[str, int] = {
            "packet": 0, "dma": 0, "timer": 0}
        self.packets_sent = 0
        self.packets_received = 0
        self.max_interrupt_latency_us = 0.0
        self.dropped_work = 0

    # ------------------------------------------------------------------
    # Boot-time behaviour (Section 5.2)
    # ------------------------------------------------------------------
    def run_self_test(self, passes: bool) -> bool:
        """Run the power-on self-test.

        ``passes`` is decided by the fault model; the processor records the
        outcome and moves to ``READY`` or ``FAILED``.
        """
        self.state = ProcessorState.SELF_TEST
        if passes:
            self.state = ProcessorState.READY
        else:
            self.state = ProcessorState.FAILED
        return passes

    def become_monitor(self) -> None:
        """Take on the Monitor Processor role."""
        if self.state is not ProcessorState.READY:
            raise RuntimeError(
                "core %d cannot become monitor from state %s"
                % (self.core_id, self.state.value))
        self.state = ProcessorState.MONITOR

    def start_application(self) -> None:
        """Switch a ready core into the application-running state.

        Idempotent for a core already running an application: an
        incremental re-map rebinds fresh runtimes onto cores that never
        stopped, which must not trip the state check.
        """
        if self.state is ProcessorState.APPLICATION:
            return
        if self.state not in (ProcessorState.READY, ProcessorState.SLEEPING):
            raise RuntimeError(
                "core %d cannot start an application from state %s"
                % (self.core_id, self.state.value))
        self.state = ProcessorState.APPLICATION

    def disable(self) -> None:
        """Map the core out (suspected fault, Section 5.3)."""
        self.state = ProcessorState.DISABLED
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None

    @property
    def is_application_core(self) -> bool:
        """True for cores that run application code (not monitor/failed)."""
        return self.state in (ProcessorState.APPLICATION,
                              ProcessorState.SLEEPING)

    @property
    def is_available(self) -> bool:
        """True if the core passed self-test and has not been disabled."""
        return self.state not in (ProcessorState.OFF, ProcessorState.FAILED,
                                  ProcessorState.DISABLED,
                                  ProcessorState.SELF_TEST)

    # ------------------------------------------------------------------
    # Application binding (Figure 7)
    # ------------------------------------------------------------------
    def on_packet(self, handler: Callable[..., None]) -> None:
        """Register the packet-received handler (priority 1)."""
        self._packet_handler = handler

    def on_dma_complete(self, handler: Callable[..., None]) -> None:
        """Register the DMA-complete handler (priority 2)."""
        self._dma_handler = handler

    def on_timer(self, handler: Callable[..., None]) -> None:
        """Register the millisecond-timer handler (priority 3)."""
        self._timer_handler = handler

    def start_timer(self, period_us: float,
                    start_offset_us: float = 0.0) -> float:
        """Start the periodic timer interrupt (1000 us for real time).

        ``start_offset_us`` delays the first tick; the application layer
        staggers the offsets across cores so the machine is not
        artificially lock-stepped (bounded asynchrony, Section 3.1).
        Returns the time of the first tick; tick ``k`` fires at exactly
        that time plus ``k * period_us``.
        """
        if period_us <= 0:
            raise ValueError("timer period must be positive")
        if start_offset_us < 0:
            raise ValueError("timer offset must be non-negative")
        self.timer_period_us = period_us
        self._timer_event = self.kernel.schedule_periodic(
            period_us, self._timer_tick,
            start=self.kernel.now + period_us + start_offset_us,
            priority=InterruptPriority.MILLISECOND_TIMER,
            label="core%d-timer" % self.core_id)
        return self._timer_event.time

    def stop_timer(self) -> None:
        """Stop the periodic timer interrupt."""
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None

    # ------------------------------------------------------------------
    # Interrupt sources
    # ------------------------------------------------------------------
    def deliver_packet(self, packet: Any) -> None:
        """Deliver a router packet to the communications controller."""
        if self.record_received():
            self._raise_interrupt(InterruptPriority.PACKET_RECEIVED,
                                  self.costs.packet_received_cycles,
                                  self._packet_handler, packet=packet)

    def dma_completed(self, request: DMARequest) -> None:
        """Signal completion of a DMA transfer (wired by the application)."""
        if self.record_dma_completions():
            self._raise_interrupt(
                InterruptPriority.DMA_COMPLETE,
                self.costs.dma_complete_cycles(request.n_words),
                self._dma_handler, request=request)

    def record_received(self, n: int = 1) -> bool:
        """Count ``n`` packets arriving at the communications controller;
        True when an application's packet handler takes (and counts) them."""
        self.packets_received += n
        return self._record_invocations("packet", self._packet_handler, n)

    def record_dma_completions(self, n: int = 1) -> bool:
        """Count ``n`` DMA-complete handler invocations, if one is bound."""
        return self._record_invocations("dma", self._dma_handler, n)

    def _record_invocations(self, kind: str, handler: Optional[Callable],
                            n: int) -> bool:
        if handler is None or not self.is_application_core:
            return False
        self.handler_invocations[kind] += n
        return True

    def _timer_tick(self, _kernel: EventKernel) -> None:
        if self._record_invocations("timer", self._timer_handler, 1):
            self._raise_interrupt(InterruptPriority.MILLISECOND_TIMER,
                                  self.costs.timer_fixed_cycles,
                                  self._timer_handler)

    # ------------------------------------------------------------------
    # Interrupt execution model
    # ------------------------------------------------------------------
    def _raise_interrupt(self, priority: int, cycles: float,
                         handler: Callable[..., None],
                         **kwargs: Any) -> None:
        self._pending.append(_PendingInterrupt(
            priority=priority, cycles=cycles, handler=handler,
            kwargs=kwargs, raised_at=self.kernel.now))
        if not self._running:
            self._dispatch()

    def _dispatch(self) -> None:
        """Run pending interrupts in VIC priority order."""
        if not self._pending:
            if self.state is ProcessorState.APPLICATION:
                self.state = ProcessorState.SLEEPING
            return
        self._running = True
        if self.state is ProcessorState.SLEEPING:
            self.state = ProcessorState.APPLICATION
        # Highest priority = smallest number; stable for equal priorities.
        self._pending.sort(key=lambda p: p.priority)
        interrupt = self._pending.pop(0)

        latency = self.kernel.now - interrupt.raised_at
        if latency > self.max_interrupt_latency_us:
            self.max_interrupt_latency_us = latency

        duration = self.clock.cycles_to_microseconds(interrupt.cycles)
        self.busy_time_us += duration
        self._busy_until = self.kernel.now + duration
        self.kernel.schedule_after(duration, self._finish_handler,
                                   priority=interrupt.priority,
                                   label="core%d-handler" % self.core_id,
                                   interrupt=interrupt)

    def _finish_handler(self, _kernel: EventKernel,
                        interrupt: _PendingInterrupt) -> None:
        # The handler's observable effects happen at completion time.
        interrupt.handler(**interrupt.kwargs)
        self._running = False
        self._dispatch()

    def charge_cycles(self, cycles: float) -> None:
        """Charge extra work to the currently-running handler.

        Application code (for example the neuron-update loop) calls this to
        account for data-dependent work beyond the fixed handler cost.
        """
        duration = self.clock.cycles_to_microseconds(cycles)
        self.busy_time_us += duration
        self._busy_until += duration

    # ------------------------------------------------------------------
    # Communications controller
    # ------------------------------------------------------------------
    def send_multicast(self, packet: Any) -> None:
        """Inject a multicast packet into the chip's router."""
        if self._send_packet is None:
            raise RuntimeError("core %d has no communications controller wired"
                               % (self.core_id,))
        self.record_sent()
        self._send_packet(self.core_id, packet)

    def record_sent(self, n: int = 1) -> None:
        """Count ``n`` packets injected into the router."""
        self.packets_sent += n

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def utilisation(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` the core spent executing handlers."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / elapsed_us)

    def load_application(self, code_bytes: int, data_bytes: int = 0) -> None:
        """Model loading application code/data into the local memories.

        Raises
        ------
        MemoryError
            If the image does not fit in ITCM/DTCM — the constraint that
            drives the flood-fill block sizes of Section 5.2.
        """
        if code_bytes > self.itcm_bytes:
            raise MemoryError("application code (%d bytes) exceeds the %d-byte ITCM"
                              % (code_bytes, self.itcm_bytes))
        if data_bytes > self.dtcm_bytes:
            raise MemoryError("application data (%d bytes) exceeds the %d-byte DTCM"
                              % (data_bytes, self.dtcm_bytes))
        self.itcm_used = code_bytes
        self.dtcm_used = data_bytes
