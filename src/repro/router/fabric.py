"""The compiled multicast transport fabric.

The paper's router fabric carries billions of spike events per second
because the routing work per spike is a single CAM lookup: the multicast
*tree* of every source neuron is fixed at load time by the mapping
tool-chain, and the hardware merely replays it.  The event-driven
simulation path (:meth:`repro.router.multicast.Router.route_multicast`)
faithfully models that replay one packet and one hop at a time, which is
the right fidelity for congestion, emergency-routing and fault studies —
and far too slow for system-scale throughput runs.

This module is the PACMAN-style alternative: walk the installed
:class:`~repro.router.routing_table.MulticastRoutingTable`s **once** per
source routing key and compile the resulting multicast tree into a flat
:class:`RouteProgram` — destination core list, per-destination hop count
and accumulated NoC + link latency, per-link traversal list and per-chip
router accounting records.  At run time a whole tick's spike batch is then
delivered with one scheduled callback per destination core and one bulk
counter update per tree element, instead of O(spikes x hops) discrete
events.  Because the program is derived from the very tables the event
path consults, both transports move identical traffic over identical
trees; the transport-equivalence tests hold the two to identical spike
trains and counters on seeded networks (latencies differ: the fabric's
are the uncongested nominal ones).

The fabric assumes the lightly-loaded, fault-free regime the paper says
the interconnect is designed for.  Congestion back-pressure, emergency
routing, link glitches and fault scenarios remain the province of the
per-packet event transport.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.geometry import ChipCoordinate, Direction
from repro.core.packets import MC_PACKET_BITS
from repro.profile import profile_stage

# One span per spike batch (counter replay is the fabric's entire
# per-tick cost); hoisted so every account_batch re-enters it.
_ACCOUNT_STAGE = profile_stage("fabric_account")

__all__ = [
    "ChipVisit",
    "RouteTarget",
    "RouteProgram",
    "TransportFabric",
    "compile_route",
]


@dataclass(frozen=True)
class RouteTarget:
    """One destination core of a compiled multicast tree."""

    chip: ChipCoordinate
    core_id: int
    #: Inter-chip hops from the source chip to this destination.
    hops: int
    #: Accumulated NoC + link latency from injection to arrival at the
    #: destination core's communications controller, in microseconds.
    latency_us: float


@dataclass(frozen=True)
class ChipVisit:
    """The per-chip router accounting record of one tree traversal.

    Mirrors exactly the counters one packet would touch at this chip's
    router, so :meth:`TransportFabric.account_batch` can replay them in
    bulk for a batch of ``n`` packets.
    """

    chip: ChipCoordinate
    #: ``True`` on a table hit, ``False`` when default-routed, ``None``
    #: when no routing decision was made (time-phase expiry).
    table_hit: Optional[bool]
    link_directions: Tuple[Direction, ...] = ()
    n_local_cores: int = 0
    injected: bool = False
    dropped: bool = False
    aged_out: bool = False


@dataclass
class RouteProgram:
    """A source routing key's multicast tree, compiled to flat form."""

    key: int
    source: ChipCoordinate
    #: Destination cores, in tree-walk order.
    targets: List[RouteTarget] = field(default_factory=list)
    #: Every inter-chip link traversal one packet makes, as
    #: ``(source chip, outgoing direction)`` pairs.
    link_hops: List[Tuple[ChipCoordinate, Direction]] = field(
        default_factory=list)
    #: Router-counter records, one per chip the packet visits.
    chip_visits: List[ChipVisit] = field(default_factory=list)
    #: ``(chip, multiplier)`` pairs for Communications-NoC accounting:
    #: one traversal at the source (injection) plus one per local
    #: delivery at each destination chip.
    noc_batches: List[Tuple[ChipCoordinate, int]] = field(
        default_factory=list)
    #: True when the key has no entry at its source chip: a locally
    #: injected packet would be dropped ("no-route-for-local-key").
    dropped_at_source: bool = False
    #: Branches terminated by the time-phase (max hops) guard.
    aged_out_paths: int = 0
    #: Of :attr:`link_hops`, how many cross a board boundary (multi-board
    #: machines; 0 on a single board).
    n_inter_board_hops: int = 0

    @property
    def n_destinations(self) -> int:
        """Number of destination cores reached by the tree."""
        return len(self.targets)

    @property
    def n_link_hops(self) -> int:
        """Link traversals per packet sent with this key."""
        return len(self.link_hops)

    @property
    def max_hops(self) -> int:
        """Deepest destination's hop distance (0 for local-only trees)."""
        return max((target.hops for target in self.targets), default=0)

    @property
    def max_latency_us(self) -> float:
        """Worst-case transport latency over all destinations."""
        return max((target.latency_us for target in self.targets),
                   default=0.0)


def compile_route(machine, source: ChipCoordinate, key: int) -> RouteProgram:
    """Walk the installed routing tables and compile ``key``'s tree.

    ``machine`` is a :class:`~repro.core.machine.SpiNNakerMachine` (typed
    loosely to keep this module import-light).  The walk replays the
    event path's routing semantics for a normal locally-injected packet:
    indexed table lookup at every chip, default routing (straight
    through) on a miss, drop for a local key with no entry, and the
    time-phase hop limit.  Latencies accumulate the same NoC and link
    service + traversal terms the event transport pays per packet in the
    uncongested case.
    """
    program = RouteProgram(key=key, source=source)
    source_chip = machine.chips[source]
    injection_noc = source_chip.comms_noc
    injection_latency = (1.0 / injection_noc.packets_per_us
                         + injection_noc.latency_us)
    program.noc_batches.append((source, 1))

    # Breadth-first over (chip, arrival link, hops, latency-at-router).
    frontier = deque([(source, None, 0, injection_latency)])
    while frontier:
        coordinate, arrival, hops, latency = frontier.popleft()
        chip = machine.chips[coordinate]
        router = chip.router
        if arrival is not None and hops >= router.config.max_hops:
            # Time-phase expiry: the event path drops the packet here.
            program.aged_out_paths += 1
            program.chip_visits.append(ChipVisit(
                chip=coordinate, table_hit=None, dropped=True,
                aged_out=True))
            continue

        entry = router.table.route_for(key)
        if entry is not None:
            links: Tuple[Direction, ...] = tuple(
                sorted(entry.link_directions))
            cores = sorted(entry.processor_ids)
            table_hit = True
        elif arrival is None:
            # Locally-sourced key with no routing entry: the event path
            # counts a default-route decision, then drops the packet.
            program.dropped_at_source = True
            program.chip_visits.append(ChipVisit(
                chip=coordinate, table_hit=False, injected=True,
                dropped=True))
            continue
        else:
            # Miss in transit: default routing, straight through.
            links = (arrival.opposite,)
            cores = []
            table_hit = False

        program.chip_visits.append(ChipVisit(
            chip=coordinate, table_hit=table_hit, link_directions=links,
            n_local_cores=len(cores), injected=(arrival is None)))

        if cores:
            delivery_noc = chip.comms_noc
            delivery_latency = (latency + 1.0 / delivery_noc.packets_per_us
                                + delivery_noc.latency_us)
            for core_id in cores:
                program.targets.append(RouteTarget(
                    chip=coordinate, core_id=core_id, hops=hops,
                    latency_us=delivery_latency))
            program.noc_batches.append((coordinate, len(cores)))

        for direction in links:
            link = machine.links[(coordinate, direction)]
            program.link_hops.append((coordinate, direction))
            if link.inter_board:
                program.n_inter_board_hops += 1
            frontier.append((link.target, direction.opposite, hops + 1,
                             latency + 1.0 / link.packets_per_us
                             + link.latency_us))
    return program


class TransportFabric:
    """Compiled route programs plus the bulk accounting that replays them.

    One instance serves a whole machine: the runtime compiles a program
    per source routing key after mapping (``prepare()``), then calls
    :meth:`account_batch` once per spike batch so links, routers and NoCs
    show the same loads the per-packet event transport would have
    recorded for identical traffic.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.programs: Dict[int, RouteProgram] = {}
        self.batches_accounted = 0
        self.packets_accounted = 0
        #: Board-to-board link traversals replayed (packets x crossing
        #: hops), the fabric-side view of inter-board load.
        self.inter_board_traversals = 0

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile_key(self, source: ChipCoordinate, key: int) -> RouteProgram:
        """Compile (and cache) the route program of ``key`` from ``source``."""
        program = compile_route(self.machine, source, key)
        self.programs[key] = program
        return program

    def program_for(self, key: int) -> Optional[RouteProgram]:
        """The compiled program of ``key``, or ``None`` if not compiled."""
        return self.programs.get(key)

    def adopt(self, programs: Dict[int, RouteProgram]) -> None:
        """Take over programs precompiled by the mapping layer."""
        self.programs.update(programs)

    # ------------------------------------------------------------------
    # Bulk accounting
    # ------------------------------------------------------------------
    def account_batch(self, program: RouteProgram, n_packets: int) -> None:
        """Charge every counter one batch of ``n_packets`` would touch.

        Replays ``program``'s per-chip router records, per-link
        traversals and NoC crossings in bulk — the fabric's substitute
        for the event transport's per-packet statistics updates.
        """
        if n_packets <= 0:
            return
        with _ACCOUNT_STAGE:
            self.batches_accounted += 1
            self.packets_accounted += n_packets
            self.inter_board_traversals += (n_packets
                                            * program.n_inter_board_hops)
            machine = self.machine
            for visit in program.chip_visits:
                machine.chips[visit.chip].router.account_batch(
                    n_packets,
                    link_directions=visit.link_directions,
                    n_local_cores=visit.n_local_cores,
                    table_hit=visit.table_hit,
                    injected=visit.injected,
                    dropped=visit.dropped,
                    aged_out=visit.aged_out)
            # Spike batches are plain (payload-less) multicast packets;
            # derive the wire size from the packet format rather than
            # assuming it.
            for coordinate, direction in program.link_hops:
                machine.links[(coordinate, direction)].record_batch(
                    n_packets, bit_length=MC_PACKET_BITS)
            for coordinate, multiplier in program.noc_batches:
                machine.chips[coordinate].comms_noc.record_batch(
                    n_packets * multiplier, bit_length=MC_PACKET_BITS)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Aggregate shape statistics of the compiled programs."""
        programs = list(self.programs.values())
        return {
            "programs": float(len(programs)),
            "destinations": float(sum(p.n_destinations for p in programs)),
            "link_hops": float(sum(p.n_link_hops for p in programs)),
            "batches_accounted": float(self.batches_accounted),
            "packets_accounted": float(self.packets_accounted),
            "inter_board_traversals": float(self.inter_board_traversals),
        }
