"""The multicast packet router with emergency routing (Sections 4 and 5.3).

Every chip has one router.  For each incoming multicast packet the router:

1. looks the 32-bit routing key up in the associative table;
2. on a hit, copies the packet to every link and local core in the entry's
   route;
3. on a miss, *default-routes* the packet: it continues straight through,
   leaving on the link opposite the one it arrived on (the 'D' nodes of
   Figure 8);
4. if an output link is blocked (congested or failed), the router first
   waits a programmable time, then invokes **emergency routing** — sending
   the packet around the other two sides of the adjacent mesh triangle —
   and finally, after a further programmable wait, drops the packet and
   informs the Monitor Processor.  This wait/divert/drop policy is what
   guarantees the fabric never deadlocks even though routes may contain
   loops (Section 5.3).

The router also forwards point-to-point packets using the algorithmic p2p
table and delivers nearest-neighbour packets to the Monitor Processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.event_kernel import EventKernel
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.packets import EmergencyState, MulticastPacket
from repro.router.routing_table import MulticastRoutingTable


@dataclass
class RouterConfig:
    """Programmable router parameters (Section 5.3).

    ``emergency_wait_us`` is how long the router waits for a blocked link
    to clear before invoking emergency routing; ``drop_wait_us`` is how long
    it persists with emergency routing before giving up and dropping the
    packet.  Both are "programmable delays" in the paper.
    """

    emergency_wait_us: float = 1.0
    drop_wait_us: float = 2.0
    emergency_routing_enabled: bool = True
    #: Number of retry attempts within each wait period.
    retries_per_wait: int = 2
    #: Router pipeline latency per packet, in microseconds.
    routing_latency_us: float = 0.05
    #: Maximum router hops a packet may take before it is dropped.  This is
    #: the simulation's equivalent of the hardware time-phase mechanism and
    #: prevents default-routed packets with no matching table entry from
    #: circulating around the torus forever.
    max_hops: int = 64


@dataclass
class RouterStatistics:
    """Counters exposed to the Monitor Processor and the benchmarks."""

    multicast_routed: int = 0
    injected_local: int = 0
    table_hits: int = 0
    default_routed: int = 0
    delivered_local: int = 0
    forwarded: int = 0
    emergency_invocations: int = 0
    emergency_successes: int = 0
    dropped: int = 0
    aged_out: int = 0
    p2p_routed: int = 0
    nn_delivered: int = 0
    wait_time_us: float = 0.0
    #: Packets forwarded per outgoing link direction.  Incremented one at
    #: a time by the event-driven path and in bulk by the compiled
    #: transport fabric, so per-link load analyses read the same counters
    #: whichever transport carried the traffic.
    forwarded_by_link: Dict[Direction, int] = field(default_factory=dict)
    #: Packets forwarded onto links that leave the board (multi-board
    #: machines only; see :attr:`Router.inter_board_directions`).
    inter_board_forwarded: int = 0
    #: Spike batches accounted by the compiled transport fabric.
    fabric_batches: int = 0


@dataclass
class RoutingDecision:
    """The outputs selected for one packet (used by tests and traces)."""

    links: List[Direction] = field(default_factory=list)
    cores: List[int] = field(default_factory=list)
    default_routed: bool = False
    table_hit: bool = False


class Router:
    """One chip's packet router.

    The router is wired to its chip through three callbacks so that it can
    be unit-tested in isolation:

    ``transmit(direction, packet) -> bool``
        Try to send ``packet`` on the inter-chip link in ``direction``.
        Returns ``False`` if the link is blocked (failed or congested).

    ``deliver_local(core_id, packet) -> None``
        Hand the packet to a local processor subsystem.

    ``notify_monitor(event, **info) -> None``
        Inform the Monitor Processor of a dropped packet or an
        emergency-routing invocation.
    """

    def __init__(self, kernel: EventKernel, coordinate: ChipCoordinate,
                 table: Optional[MulticastRoutingTable] = None,
                 config: Optional[RouterConfig] = None,
                 transmit: Optional[Callable[[Direction, MulticastPacket], bool]] = None,
                 deliver_local: Optional[Callable[[int, MulticastPacket], None]] = None,
                 notify_monitor: Optional[Callable[..., None]] = None) -> None:
        self.kernel = kernel
        self.coordinate = coordinate
        self.table = table if table is not None else MulticastRoutingTable()
        self.config = config or RouterConfig()
        self._transmit = transmit
        self._deliver_local = deliver_local
        self._notify_monitor = notify_monitor
        self.stats = RouterStatistics()
        #: Outgoing directions whose links cross a board boundary, set by
        #: the machine after link construction (empty for single-board
        #: machines and stand-alone routers under unit test).
        self.inter_board_directions: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, transmit: Callable[[Direction, MulticastPacket], bool],
                deliver_local: Callable[[int, MulticastPacket], None],
                notify_monitor: Callable[..., None]) -> None:
        """Attach the chip-level callbacks after construction."""
        self._transmit = transmit
        self._deliver_local = deliver_local
        self._notify_monitor = notify_monitor

    # ------------------------------------------------------------------
    # Decision logic (pure, easily unit-tested)
    # ------------------------------------------------------------------
    def decide(self, packet: MulticastPacket,
               arrival: Optional[Direction]) -> RoutingDecision:
        """Compute the route of ``packet`` without transmitting anything.

        ``arrival`` is the link the packet arrived on, or ``None`` when the
        packet was injected by a local core.
        """
        decision = RoutingDecision()

        if packet.emergency is EmergencyState.FIRST_LEG:
            if arrival is None:
                raise ValueError("a first-leg emergency packet cannot be "
                                 "injected locally")
            # Fixed hardware relation: second leg = arrival link + 1.
            decision.links.append(Direction.emergency_second_leg(arrival))
            return decision

        entry = self.table.lookup(packet.key)
        if entry is not None:
            decision.table_hit = True
            decision.links.extend(sorted(entry.link_directions))
            decision.cores.extend(sorted(entry.processor_ids))
            return decision

        # Miss: default routing — continue straight through.
        decision.default_routed = True
        if packet.emergency is EmergencyState.SECOND_LEG and arrival is not None:
            # The packet detoured around a triangle; "straight through" is
            # defined by the originally-blocked link, which is arrival + 4.
            decision.links.append(Direction((arrival.value + 4) % 6))
        elif arrival is not None:
            decision.links.append(arrival.opposite)
        # A locally-injected packet with no matching entry has nowhere to
        # go; it is dropped (the mapping tool-chain always installs an
        # entry for locally-sourced keys, so this indicates a load error).
        return decision

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def route_multicast(self, packet: MulticastPacket,
                        arrival: Optional[Direction] = None) -> RoutingDecision:
        """Route one multicast packet, transmitting on every selected output."""
        if self._transmit is None or self._deliver_local is None:
            raise RuntimeError("router at %s is not connected to its chip"
                               % (self.coordinate,))
        if arrival is not None and packet.hops >= self.config.max_hops:
            # Time-phase expiry: the packet has been travelling (most likely
            # default-routed with no matching table entry anywhere) for too
            # long; drop it rather than let it circulate forever.
            self._count_routed(1, injected=False)
            self._drop("time-phase-expired", packet)
            return RoutingDecision()
        decision = self.decide(packet, arrival)
        self._count_routed(1, arrival is None, decision.table_hit,
                           decision.default_routed, len(decision.cores))

        for core_id in decision.cores:
            self._deliver_local(core_id, packet)

        forward_packet = packet.aged()
        for direction in decision.links:
            self._send_with_recovery(forward_packet, direction)

        if (not decision.links and not decision.cores
                and decision.default_routed and arrival is None):
            self._drop("no-route-for-local-key", packet)
        return decision

    def _count_routed(self, n: int, injected: bool, table_hit: bool = False,
                      default_routed: bool = False, n_cores: int = 0) -> None:
        """Count ``n`` packets through the router (from a local core when
        ``injected``): their routing decision and local deliveries."""
        self.stats.multicast_routed += n
        if injected:
            self.stats.injected_local += n
        if table_hit:
            self.stats.table_hits += n
        if default_routed:
            self.stats.default_routed += n
        self.stats.delivered_local += n * n_cores

    # ------------------------------------------------------------------
    # Blocked-link recovery: wait -> emergency -> drop (Section 5.3)
    # ------------------------------------------------------------------
    def _send_with_recovery(self, packet: MulticastPacket,
                            direction: Direction) -> None:
        outgoing = packet
        if packet.emergency is EmergencyState.FIRST_LEG:
            outgoing = packet.with_emergency(EmergencyState.SECOND_LEG)
        elif packet.emergency is EmergencyState.SECOND_LEG:
            outgoing = packet.with_emergency(EmergencyState.NORMAL)

        if self._transmit(direction, outgoing):
            self._record_forward(direction)
            return

        # The output link is blocked: wait a programmable time and retry.
        self._schedule_retry(outgoing, direction, attempt=1,
                             phase="normal")

    def _schedule_retry(self, packet: MulticastPacket, direction: Direction,
                        attempt: int, phase: str) -> None:
        wait = (self.config.emergency_wait_us if phase == "normal"
                else self.config.drop_wait_us)
        delay = wait / max(1, self.config.retries_per_wait)
        self.stats.wait_time_us += delay
        self.kernel.schedule_after(delay, self._retry, priority=5,
                                   label="router-retry",
                                   packet=packet, direction=direction,
                                   attempt=attempt, phase=phase)

    def _retry(self, _kernel: EventKernel, packet: MulticastPacket,
               direction: Direction, attempt: int, phase: str) -> None:
        if self._transmit(direction, packet):
            self._record_forward(direction)
            if phase == "emergency":
                self.stats.emergency_successes += 1
            return

        if attempt < self.config.retries_per_wait:
            self._schedule_retry(packet, direction, attempt + 1, phase)
            return

        if phase == "normal" and self.config.emergency_routing_enabled:
            self._invoke_emergency(packet, direction)
        else:
            self._drop("blocked-link", packet, direction=direction)

    def _invoke_emergency(self, packet: MulticastPacket,
                          direction: Direction) -> None:
        """Redirect the packet around the triangle adjacent to ``direction``."""
        self.stats.emergency_invocations += 1
        if self._notify_monitor is not None:
            self._notify_monitor("emergency-routing", direction=direction,
                                 key=packet.key)
        first_leg, _second_leg = direction.emergency_pair()
        emergency_packet = packet.with_emergency(EmergencyState.FIRST_LEG)
        if self._transmit(first_leg, emergency_packet):
            self._record_forward(first_leg)
            self.stats.emergency_successes += 1
            return
        # The emergency leg is itself blocked: keep trying for the drop
        # wait, then give up.
        self._schedule_retry(emergency_packet, first_leg, attempt=1,
                             phase="emergency")

    def _record_forward(self, direction: Direction, n: int = 1) -> None:
        """Count ``n`` successful forwards on ``direction``."""
        self.stats.forwarded += n
        self.stats.forwarded_by_link[direction] = (
            self.stats.forwarded_by_link.get(direction, 0) + n)
        if direction in self.inter_board_directions:
            self.stats.inter_board_forwarded += n

    # ------------------------------------------------------------------
    # Bulk accounting (compiled transport fabric)
    # ------------------------------------------------------------------
    def account_batch(self, n_packets: int,
                      link_directions: Iterable[Direction] = (),
                      n_local_cores: int = 0,
                      table_hit: Optional[bool] = True,
                      injected: bool = False,
                      dropped: bool = False,
                      aged_out: bool = False) -> None:
        """Charge this router's counters for a precompiled spike batch.

        The compiled transport fabric (:mod:`repro.router.fabric`) routes
        each source key's multicast tree once at compile time; at run time
        it calls this per tree chip to keep the Monitor-visible statistics
        — including the per-link load counters and the routing table's
        lookup/miss counters — identical to what the per-packet event
        path would have recorded for the same traffic, through the same
        counting methods called with ``n = n_packets``.  (Drop diagnostics
        reach the Monitor mailbox as one batched notification carrying a
        count, where the event path posts one entry per packet.)
        ``table_hit=None`` means no routing decision was made (time-phase
        expiry); ``aged_out`` marks those expiry drops.
        """
        if n_packets < 0 or n_local_cores < 0:
            raise ValueError("batch sizes must be non-negative")
        if n_packets == 0:
            return
        self.stats.fabric_batches += 1
        self._count_routed(n_packets, injected, table_hit is True,
                           table_hit is False, n_local_cores)
        if table_hit is not None:
            # The event path consults the table once per packet.
            self.table.record_lookups(n_packets, hit=table_hit)
        for direction in link_directions:
            self._record_forward(direction, n_packets)
        if dropped or aged_out:
            self._drop("time-phase-expired" if aged_out
                       else "no-route-for-local-key", count=n_packets)

    def _drop(self, reason: str, packet: Optional[MulticastPacket] = None,
              direction: Optional[Direction] = None, count: int = 1) -> None:
        """Drop ``count`` packets and inform the Monitor Processor (Section
        5.3).  A time-phase expiry also counts as aged out.  A compiled
        batch (no ``packet``) posts one notification carrying its count."""
        if reason == "time-phase-expired":
            self.stats.aged_out += count
        self.stats.dropped += count
        if self._notify_monitor is None:
            return
        if packet is None:
            self._notify_monitor("packet-dropped", reason=reason,
                                 direction=None, key=None, packet=None,
                                 count=count)
        else:
            self._notify_monitor("packet-dropped", reason=reason,
                                 direction=direction, key=packet.key,
                                 packet=packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def delivery_ratio(self) -> float:
        """Fraction of routed packets that were not dropped."""
        if self.stats.multicast_routed == 0:
            return 1.0
        return 1.0 - self.stats.dropped / self.stats.multicast_routed
