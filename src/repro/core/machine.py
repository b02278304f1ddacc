"""The full SpiNNaker machine: a torus of chips plus the host link (Fig. 1).

The machine model owns:

* one :class:`~repro.core.chip.Chip` per mesh coordinate;
* one unidirectional :class:`Link` per chip per direction (six per chip),
  each with latency, bandwidth, a congestion backlog and a failure flag;
* the transport layer that moves packets between chips through those links
  under the discrete-event kernel;
* the Ethernet attachment point(s) through which the host system reaches
  chip (0, 0) (Section 5.2).

The full machine described in the paper has 65 536 chips (over a million
cores); the model scales to whatever fits in memory — hundreds to a few
thousand chips for the packet-level experiments — while the analytic
machine-scale calculations of benchmark E15 use :class:`MachineConfig`
without instantiating chips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.chip import DEFAULT_CORES_PER_CHIP, Chip
from repro.core.event_kernel import EventKernel
from repro.core.geometry import ChipCoordinate, Direction, TorusGeometry
from repro.core.packets import MulticastPacket, NearestNeighbourPacket, PointToPointPacket
from repro.router.multicast import RouterConfig

#: Inter-chip link latency in microseconds (self-timed 2-of-7 NRZ link).
DEFAULT_LINK_LATENCY_US = 0.2
#: Inter-chip link throughput in packets per microsecond (~250 Mbit/s of
#: 40-bit packets ≈ 6 packets/us).
DEFAULT_LINK_PACKETS_PER_US = 6.0
#: Backlog (in microseconds of queued service time) beyond which the link
#: reports itself blocked to the router, triggering emergency routing.
DEFAULT_BLOCK_THRESHOLD_US = 1.0

#: Standard production board: 48 chips arranged as an 8 x 6 tile.
DEFAULT_BOARD_WIDTH = 8
DEFAULT_BOARD_HEIGHT = 6
#: Board-to-board links leave the PCB through serialising connectors and
#: cables, so they are slower and longer-latency than on-board traces.
DEFAULT_INTER_BOARD_LATENCY_US = 1.0
DEFAULT_INTER_BOARD_PACKETS_PER_US = 2.0


@dataclass
class Link:
    """A unidirectional inter-chip link.

    The real link is a self-timed 2-of-7 NRZ channel (Section 5.1); at the
    machine level we model its latency, its finite bandwidth (as a busy-
    until time) and its failure state.  A link whose backlog exceeds
    ``block_threshold_us`` refuses packets, which is what the router's
    congestion detection sees.
    """

    source: ChipCoordinate
    direction: Direction
    target: ChipCoordinate
    latency_us: float = DEFAULT_LINK_LATENCY_US
    packets_per_us: float = DEFAULT_LINK_PACKETS_PER_US
    block_threshold_us: float = DEFAULT_BLOCK_THRESHOLD_US
    #: True when the link crosses a board boundary of a multi-board
    #: machine (see :attr:`MachineConfig.board_width`); such links carry
    #: the distinct inter-board latency/bandwidth figures.
    inter_board: bool = False
    failed: bool = False
    _busy_until: float = 0.0
    packets_carried: int = 0
    packets_refused: int = 0
    bits_carried: int = 0

    def backlog(self, now: float) -> float:
        """Service time already queued ahead of a packet arriving at ``now``."""
        return max(0.0, self._busy_until - now)

    def is_blocked(self, now: float) -> bool:
        """True if the link cannot currently accept a packet."""
        return self.failed or self.backlog(now) > self.block_threshold_us

    def try_accept(self, now: float, bit_length: int) -> Optional[float]:
        """Accept a packet if possible and return its arrival time.

        Returns ``None`` when the link is failed or congested; the caller
        (the router) then enters its wait/emergency/drop sequence.
        """
        if self.is_blocked(now):
            self.packets_refused += 1
            return None
        service = 1.0 / self.packets_per_us
        start = max(now, self._busy_until)
        self._busy_until = start + service
        self.packets_carried += 1
        self.bits_carried += bit_length
        return start + service + self.latency_us

    def record_batch(self, n_packets: int, bit_length: int = 40) -> None:
        """Account ``n_packets`` carried in bulk (compiled transport fabric).

        The fabric delivers whole spike batches along precompiled trees;
        this keeps :attr:`packets_carried` / :attr:`bits_carried` — and
        therefore every load/utilisation analysis built on them — correct
        without a per-packet event.  The congestion state (``_busy_until``)
        is untouched: the fabric is the lightly-loaded fast path, the
        event transport remains the congestion-faithful reference.
        """
        if n_packets < 0:
            raise ValueError("batch size must be non-negative")
        self.packets_carried += n_packets
        self.bits_carried += n_packets * bit_length

    def utilisation(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` the link spent transferring packets."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, (self.packets_carried / self.packets_per_us) / elapsed_us)


@dataclass
class MachineConfig:
    """Static description of a machine build.

    The defaults describe a small experimental configuration; the
    :meth:`full_machine` constructor returns the million-core machine of
    the paper for the analytic benchmarks.
    """

    width: int = 8
    height: int = 8
    cores_per_chip: int = DEFAULT_CORES_PER_CHIP
    link_latency_us: float = DEFAULT_LINK_LATENCY_US
    link_packets_per_us: float = DEFAULT_LINK_PACKETS_PER_US
    block_threshold_us: float = DEFAULT_BLOCK_THRESHOLD_US
    router_config: RouterConfig = field(default_factory=RouterConfig)
    #: Chips with an Ethernet connection to the host.  Chip (0, 0) is the
    #: origin node used for boot (Section 5.2).
    ethernet_chips: Tuple[Tuple[int, int], ...] = ((0, 0),)
    #: Board tiling of a multi-board machine.  ``None`` (the default)
    #: means the mesh is a single board and every link is on-board, which
    #: preserves the behaviour of every pre-cluster configuration.  When
    #: set, the mesh is tiled into ``board_width x board_height`` boards
    #: and links crossing a tile boundary become *inter-board* links with
    #: the distinct latency/bandwidth figures below.
    board_width: Optional[int] = None
    board_height: Optional[int] = None
    inter_board_latency_us: float = DEFAULT_INTER_BOARD_LATENCY_US
    inter_board_packets_per_us: float = DEFAULT_INTER_BOARD_PACKETS_PER_US

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("machine dimensions must be positive")
        if self.cores_per_chip < 1:
            raise ValueError("cores_per_chip must be positive")
        if (self.board_width is None) != (self.board_height is None):
            raise ValueError("board_width and board_height must be set "
                             "together (or both left None)")
        if self.board_width is not None:
            if self.board_width < 1 or self.board_height < 1:
                raise ValueError("board dimensions must be positive")
            if self.width % self.board_width or self.height % self.board_height:
                raise ValueError(
                    "a %dx%d mesh cannot be tiled into %dx%d boards"
                    % (self.width, self.height, self.board_width,
                       self.board_height))

    @classmethod
    def full_machine(cls) -> "MachineConfig":
        """The full configuration of the paper: 256 x 256 chips, 20 cores each.

        65 536 chips x 20 cores = 1 310 720 ARM cores — "more than a million
        embedded processors".
        """
        return cls(width=256, height=256, cores_per_chip=20)

    @classmethod
    def multi_board(cls, boards_x: int, boards_y: int,
                    board_width: int = DEFAULT_BOARD_WIDTH,
                    board_height: int = DEFAULT_BOARD_HEIGHT,
                    **kwargs: Any) -> "MachineConfig":
        """A machine assembled from a ``boards_x x boards_y`` grid of boards.

        The default tile is the production 48-chip (8 x 6) board the paper
        scales from; remaining keyword arguments are forwarded to the
        config (``cores_per_chip``, link figures, ...).
        """
        if boards_x < 1 or boards_y < 1:
            raise ValueError("board grid dimensions must be positive")
        return cls(width=boards_x * board_width,
                   height=boards_y * board_height,
                   board_width=board_width, board_height=board_height,
                   **kwargs)

    # ------------------------------------------------------------------
    # Board-aware geometry
    # ------------------------------------------------------------------
    @property
    def boards_x(self) -> int:
        """Number of board columns (1 for a single-board machine)."""
        return self.width // self.board_width if self.board_width else 1

    @property
    def boards_y(self) -> int:
        """Number of board rows (1 for a single-board machine)."""
        return self.height // self.board_height if self.board_height else 1

    @property
    def n_boards(self) -> int:
        """Total number of boards in the machine."""
        return self.boards_x * self.boards_y

    def board_of(self, coordinate: ChipCoordinate) -> int:
        """The board id (row-major over the board grid) holding a chip."""
        if self.board_width is None:
            return 0
        return ((coordinate.y // self.board_height) * self.boards_x
                + coordinate.x // self.board_width)

    def board_origin(self, board: int) -> ChipCoordinate:
        """The lowest-coordinate chip of one board."""
        if not 0 <= board < self.n_boards:
            raise ValueError("board %d outside the %dx%d board grid"
                             % (board, self.boards_x, self.boards_y))
        if self.board_width is None:
            return ChipCoordinate(0, 0)
        return ChipCoordinate((board % self.boards_x) * self.board_width,
                              (board // self.boards_x) * self.board_height)

    def board_chips(self, board: int) -> Iterator[ChipCoordinate]:
        """Iterate over one board's chip coordinates in raster order."""
        origin = self.board_origin(board)
        width = self.board_width or self.width
        height = self.board_height or self.height
        for y in range(origin.y, origin.y + height):
            for x in range(origin.x, origin.x + width):
                yield ChipCoordinate(x, y)

    @property
    def n_chips(self) -> int:
        """Total number of chips."""
        return self.width * self.height

    @property
    def n_cores(self) -> int:
        """Total number of processor cores."""
        return self.n_chips * self.cores_per_chip

    @property
    def n_links(self) -> int:
        """Total number of unidirectional inter-chip links."""
        return self.n_chips * len(Direction)


class SpiNNakerMachine:
    """An instantiated machine: chips, links and the transport layer."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 kernel: Optional[EventKernel] = None) -> None:
        self.config = config or MachineConfig()
        self.kernel = kernel or EventKernel()
        self.geometry = TorusGeometry(self.config.width, self.config.height)

        self.chips: Dict[ChipCoordinate, Chip] = {}
        for coordinate in self.geometry.all_chips():
            self.chips[coordinate] = Chip(
                self.kernel, coordinate,
                n_cores=self.config.cores_per_chip,
                router_config=self.config.router_config,
                transmit=self._transmit)

        self.links: Dict[Tuple[ChipCoordinate, Direction], Link] = {}
        for coordinate in self.geometry.all_chips():
            for direction in Direction:
                target = coordinate.neighbour(direction, self.config.width,
                                              self.config.height)
                inter_board = (self.config.board_of(coordinate)
                               != self.config.board_of(target))
                self.links[(coordinate, direction)] = Link(
                    source=coordinate, direction=direction, target=target,
                    latency_us=(self.config.inter_board_latency_us
                                if inter_board
                                else self.config.link_latency_us),
                    packets_per_us=(self.config.inter_board_packets_per_us
                                    if inter_board
                                    else self.config.link_packets_per_us),
                    block_threshold_us=self.config.block_threshold_us,
                    inter_board=inter_board)
        # Tell each router which of its outgoing directions leave the
        # board, so per-router forwarding statistics can split on-board
        # from board-to-board traffic.
        for coordinate, chip in self.chips.items():
            chip.router.inter_board_directions = frozenset(
                direction for direction in Direction
                if self.links[(coordinate, direction)].inter_board)

        self.ethernet_chips: List[ChipCoordinate] = [
            ChipCoordinate(x, y) for (x, y) in self.config.ethernet_chips]
        for coordinate in self.ethernet_chips:
            if coordinate not in self.chips:
                raise ValueError("Ethernet chip %s is outside the %dx%d mesh"
                                 % (coordinate, self.config.width,
                                    self.config.height))

        self.packets_injected = 0
        #: Record of (packet, source, destination core, arrival time) for
        #: packets delivered to cores, populated by analysis hooks.
        self.delivery_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def chip(self, x: int, y: int) -> Chip:
        """The chip at mesh coordinate ``(x, y)``."""
        return self.chips[ChipCoordinate(x, y)]

    def __getitem__(self, coordinate: ChipCoordinate) -> Chip:
        return self.chips[coordinate]

    def __iter__(self) -> Iterator[Chip]:
        return iter(self.chips.values())

    @property
    def n_chips(self) -> int:
        """Number of chips in the machine."""
        return len(self.chips)

    @property
    def n_cores(self) -> int:
        """Total number of cores in the machine."""
        return sum(chip.n_cores for chip in self.chips.values())

    def link(self, coordinate: ChipCoordinate, direction: Direction) -> Link:
        """The outgoing link of ``coordinate`` in ``direction``."""
        return self.links[(coordinate, direction)]

    @property
    def n_boards(self) -> int:
        """Number of boards the machine is assembled from."""
        return self.config.n_boards

    def board_of(self, coordinate: ChipCoordinate) -> int:
        """The board id holding ``coordinate``."""
        return self.config.board_of(coordinate)

    def inter_board_links(self) -> List[Link]:
        """Every link crossing a board boundary."""
        return [link for link in self.links.values() if link.inter_board]

    @property
    def origin(self) -> Chip:
        """The boot origin: the first Ethernet-attached chip (Section 5.2)."""
        return self.chips[self.ethernet_chips[0]]

    # ------------------------------------------------------------------
    # Transport layer
    # ------------------------------------------------------------------
    def _transmit(self, source: ChipCoordinate, direction: Direction,
                  packet: Any) -> bool:
        link = self.links[(source, direction)]
        bit_length = getattr(packet, "bit_length", 40)
        arrival_time = link.try_accept(self.kernel.now, bit_length)
        if arrival_time is None:
            return False
        self.kernel.schedule(arrival_time, self._deliver, priority=4,
                             label="link-arrival", target=link.target,
                             packet=packet, arrival=direction.opposite)
        return True

    def _deliver(self, _kernel: EventKernel, target: ChipCoordinate,
                 packet: Any, arrival: Direction) -> None:
        self.chips[target].receive_from_link(packet, arrival)

    # ------------------------------------------------------------------
    # Injection API used by applications, the host and the benchmarks
    # ------------------------------------------------------------------
    def inject_multicast(self, coordinate: ChipCoordinate,
                         packet: MulticastPacket) -> None:
        """Inject a multicast packet at a chip's router (host/test hook)."""
        self.packets_injected += 1
        chip = self.chips[coordinate]
        self.kernel.schedule_after(0.0, chip._router_receive, priority=4,
                                   label="inject-mc", packet=packet,
                                   arrival=None)

    def send_nearest_neighbour(self, source: ChipCoordinate,
                               direction: Direction,
                               packet: NearestNeighbourPacket) -> bool:
        """Send an nn packet from ``source`` to its neighbour."""
        return self.chips[source].send_nearest_neighbour(direction, packet)

    def send_p2p(self, source: ChipCoordinate,
                 packet: PointToPointPacket) -> bool:
        """Send a p2p packet from ``source`` towards its destination."""
        return self.chips[source].send_p2p(packet)

    # ------------------------------------------------------------------
    # Fault injection hooks (used by repro.fault)
    # ------------------------------------------------------------------
    def fail_link(self, coordinate: ChipCoordinate, direction: Direction,
                  bidirectional: bool = True) -> None:
        """Mark an inter-chip link (and by default its return path) failed."""
        self.links[(coordinate, direction)].failed = True
        if bidirectional:
            target = coordinate.neighbour(direction, self.config.width,
                                          self.config.height)
            self.links[(target, direction.opposite)].failed = True

    def repair_link(self, coordinate: ChipCoordinate, direction: Direction,
                    bidirectional: bool = True) -> None:
        """Restore a previously-failed link."""
        self.links[(coordinate, direction)].failed = False
        if bidirectional:
            target = coordinate.neighbour(direction, self.config.width,
                                          self.config.height)
            self.links[(target, direction.opposite)].failed = False

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_dropped_packets(self) -> int:
        """Total packets dropped by all routers."""
        return sum(chip.router.stats.dropped for chip in self)

    def total_emergency_invocations(self) -> int:
        """Total emergency-routing invocations across the machine."""
        return sum(chip.router.stats.emergency_invocations for chip in self)

    def total_link_traffic(self) -> int:
        """Total packets carried by all inter-chip links."""
        return sum(link.packets_carried for link in self.links.values())

    def total_inter_board_traffic(self) -> int:
        """Total packets carried over board-to-board links."""
        return sum(link.packets_carried for link in self.links.values()
                   if link.inter_board)

    def run(self, duration_us: Optional[float] = None) -> None:
        """Advance the simulation (until quiescent, or for ``duration_us``)."""
        if duration_us is None:
            self.kernel.run()
        else:
            self.kernel.run_until(self.kernel.now + duration_us)
