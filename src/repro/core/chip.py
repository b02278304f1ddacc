"""The SpiNNaker chip multiprocessor node (Figure 3).

A node pairs the MPSoC — up to 20 ARM968 processor subsystems, a multicast
router, two NoC fabrics and a system controller — with a shared off-chip
SDRAM.  This module assembles those components and wires them together:

* cores inject packets into the router through the Communications NoC;
* the router delivers local packets back to cores through the same fabric;
* cores reach the SDRAM through the System NoC via their DMA controllers;
* the System Controller provides the read-sensitive register used to elect
  the Monitor Processor at boot (Section 5.2);
* the System RAM is the shared scratchpad a neighbouring chip can write
  boot code into when repairing a failed node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.clock import GALSClockSystem
from repro.core.dma import DMAController
from repro.core.event_kernel import EventKernel
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.noc import CommunicationsNoC, SystemNoC
from repro.core.packets import MulticastPacket, NearestNeighbourPacket, PointToPointPacket
from repro.core.processor import ProcessorState, ProcessorSubsystem
from repro.core.sdram import SDRAM
from repro.router.multicast import Router, RouterConfig
from repro.router.p2p import P2PRoutingTable

#: Number of processor subsystems on a SpiNNaker chip.
DEFAULT_CORES_PER_CHIP = 20
#: Size of the shared on-chip System RAM (32 Kbyte in the real chip).
SYSTEM_RAM_BYTES = 32 * 1024


class SystemController:
    """The chip's System Controller.

    The component modelled here is the *read-sensitive register* used to
    break the symmetry between the identical cores at boot: every core that
    passes its self-test reads the register, and the hardware guarantees
    that exactly one reader sees the "you are the monitor" value
    (Section 5.2).
    """

    def __init__(self) -> None:
        self._monitor_claimed = False
        self.monitor_core_id: Optional[int] = None
        self.reads = 0

    def read_monitor_arbiter(self, core_id: int) -> bool:
        """Read the arbiter register; only the first reader wins."""
        self.reads += 1
        if self._monitor_claimed:
            return False
        self._monitor_claimed = True
        self.monitor_core_id = core_id
        return True

    def reset(self) -> None:
        """Reset the arbiter (used when a neighbour forces a re-election)."""
        self._monitor_claimed = False
        self.monitor_core_id = None


@dataclass
class ChipState:
    """Boot-related state of the whole chip (Section 5.2)."""

    booted: bool = False
    coordinates_known: bool = False
    p2p_configured: bool = False
    application_loaded: bool = False
    boot_failed: bool = False


class Chip:
    """One node of the machine: the MPSoC plus its SDRAM.

    Parameters
    ----------
    kernel:
        Shared discrete-event kernel.
    coordinate:
        The chip's position in the mesh (assigned physically; the chip does
        not *know* it until the boot flood tells it).
    n_cores:
        Number of processor subsystems (the paper says "up to 20").
    router_config:
        Programmable router parameters.
    transmit:
        Callable provided by the machine to send a packet on an inter-chip
        link: ``transmit(coordinate, direction, packet) -> bool``.
    """

    def __init__(self, kernel: EventKernel, coordinate: ChipCoordinate,
                 n_cores: int = DEFAULT_CORES_PER_CHIP,
                 router_config: Optional[RouterConfig] = None,
                 transmit: Optional[Callable[[ChipCoordinate, Direction, Any], bool]] = None,
                 sdram: Optional[SDRAM] = None,
                 clocks: Optional[GALSClockSystem] = None) -> None:
        if n_cores < 1:
            raise ValueError("a chip needs at least one core")
        self.kernel = kernel
        self.coordinate = coordinate
        self.n_cores = n_cores
        self._machine_transmit = transmit

        self.sdram = sdram if sdram is not None else SDRAM()
        self.clocks = clocks if clocks is not None else GALSClockSystem.for_chip(n_cores)
        self.system_noc = SystemNoC()
        self.comms_noc = CommunicationsNoC()
        self.system_controller = SystemController()
        self.system_ram: List[int] = []
        self.state = ChipState()

        self.router = Router(kernel, coordinate, config=router_config)
        self.router.connect(transmit=self._transmit_link,
                            deliver_local=self._deliver_to_core,
                            notify_monitor=self._notify_monitor)

        self.cores: List[ProcessorSubsystem] = []
        for core_id in range(n_cores):
            dma = DMAController(kernel, self.sdram, self.system_noc)
            core = ProcessorSubsystem(
                kernel, core_id, self.clocks.core_domain(core_id), dma,
                send_packet=self._inject_from_core)
            self.cores.append(core)

        self.monitor_core_id: Optional[int] = None
        self.monitor_mailbox: List[Dict[str, Any]] = []
        self.p2p_table: Optional[P2PRoutingTable] = None
        #: The chip's own belief about its coordinates, set during boot.
        self.assigned_coordinate: Optional[ChipCoordinate] = None
        #: Handlers the runtime layers register for management packets.
        self._nn_handler: Optional[Callable[[NearestNeighbourPacket, Direction], None]] = None

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    def on_nearest_neighbour(self, handler: Callable[[NearestNeighbourPacket, Direction], None]) -> None:
        """Register the handler for incoming nn packets (boot code)."""
        self._nn_handler = handler

    # ------------------------------------------------------------------
    # Packet plumbing
    # ------------------------------------------------------------------
    def _inject_from_core(self, core_id: int, packet: MulticastPacket) -> None:
        """A core's communications controller injects a packet (via the NoC)."""
        arrival_at_router = self.comms_noc.schedule_packet(
            self.kernel.now, packet.bit_length)
        self.kernel.schedule(arrival_at_router, self._router_receive,
                             priority=4, label="noc-to-router",
                             packet=packet, arrival=None)

    def _router_receive(self, _kernel: EventKernel, packet: MulticastPacket,
                        arrival: Optional[Direction]) -> None:
        self.router.route_multicast(packet, arrival)

    def receive_from_link(self, packet: Any, arrival: Direction) -> None:
        """Entry point used by the machine when a packet arrives on a link."""
        if isinstance(packet, MulticastPacket):
            self.router.route_multicast(packet, arrival)
        elif isinstance(packet, NearestNeighbourPacket):
            self.router.stats.nn_delivered += 1
            if self._nn_handler is not None:
                self._nn_handler(packet, arrival)
        elif isinstance(packet, PointToPointPacket):
            self._route_p2p(packet)
        else:
            raise TypeError("unknown packet type %r" % (type(packet).__name__,))

    def _transmit_link(self, direction: Direction, packet: Any) -> bool:
        if self._machine_transmit is None:
            return False
        return self._machine_transmit(self.coordinate, direction, packet)

    def _deliver_to_core(self, core_id: int, packet: MulticastPacket) -> None:
        if not 0 <= core_id < self.n_cores:
            return
        arrival = self.comms_noc.schedule_packet(self.kernel.now,
                                                 packet.bit_length)
        self.kernel.schedule(arrival, self._core_receive, priority=1,
                             label="noc-to-core", core_id=core_id,
                             packet=packet)

    def _core_receive(self, _kernel: EventKernel, core_id: int,
                      packet: MulticastPacket) -> None:
        self.cores[core_id].deliver_packet(packet)

    def _notify_monitor(self, event: str, **info: Any) -> None:
        self.monitor_mailbox.append(dict(event=event, time=self.kernel.now,
                                         **info))

    # ------------------------------------------------------------------
    # Point-to-point routing (Section 5.2)
    # ------------------------------------------------------------------
    def send_p2p(self, packet: PointToPointPacket) -> bool:
        """Send (or forward) a p2p packet from this chip."""
        return self._route_p2p(packet, injected=True)

    def _route_p2p(self, packet: PointToPointPacket, injected: bool = False) -> bool:
        destination = packet.destination
        if destination == self.coordinate:
            self.router.stats.p2p_routed += 1
            return True
        if self.p2p_table is None or not self.p2p_table.knows(destination):
            # The p2p fabric is only usable after boot phase two.
            self._notify_monitor("p2p-unroutable", destination=destination)
            return False
        direction = self.p2p_table.next_hop(destination)
        if direction is None:
            return True
        self.router.stats.p2p_routed += 1
        sent = self._transmit_link(direction, packet)
        if not sent:
            self._notify_monitor("p2p-blocked", destination=destination,
                                 direction=direction)
        return sent

    # ------------------------------------------------------------------
    # Nearest-neighbour packets (Section 5.2)
    # ------------------------------------------------------------------
    def send_nearest_neighbour(self, direction: Direction,
                               packet: NearestNeighbourPacket) -> bool:
        """Send an nn packet to the adjacent chip in ``direction``."""
        return self._transmit_link(direction, packet)

    # ------------------------------------------------------------------
    # Core management
    # ------------------------------------------------------------------
    @property
    def monitor(self) -> Optional[ProcessorSubsystem]:
        """The elected Monitor Processor, or ``None`` before election."""
        if self.monitor_core_id is None:
            return None
        return self.cores[self.monitor_core_id]

    @property
    def application_cores(self) -> List[ProcessorSubsystem]:
        """Cores available for application use (working, not the monitor)."""
        return [core for core in self.cores
                if core.is_available and core.core_id != self.monitor_core_id]

    @property
    def working_cores(self) -> List[ProcessorSubsystem]:
        """Cores that passed self-test and are not disabled."""
        return [core for core in self.cores if core.is_available]

    def elect_monitor(self) -> Optional[int]:
        """Run the monitor-processor arbitration among working cores.

        Every core that passed self-test reads the System Controller's
        read-sensitive register in core-id order (the order is irrelevant to
        the outcome — only one read can win).  Returns the elected core id,
        or ``None`` if no core is available.
        """
        for core in self.cores:
            if core.state is not ProcessorState.READY:
                continue
            if self.system_controller.read_monitor_arbiter(core.core_id):
                core.become_monitor()
                self.monitor_core_id = core.core_id
                return core.core_id
        return None

    def write_system_ram(self, words: List[int]) -> None:
        """Write boot code into the System RAM (used by neighbour repair)."""
        if len(words) * 4 > SYSTEM_RAM_BYTES:
            raise MemoryError("boot image of %d words exceeds the %d-byte "
                              "System RAM" % (len(words), SYSTEM_RAM_BYTES))
        self.system_ram = list(words)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Chip(%s, %d cores)" % (self.coordinate, self.n_cores)
