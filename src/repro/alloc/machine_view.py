"""A scoped view of one machine restricted to a lease.

A job that has been handed a lease needs something that looks like a
:class:`~repro.core.machine.SpiNNakerMachine` but only contains its own
chips, so that the existing boot, flood-fill, mapping and application
layers work unchanged on the sub-machine.  :class:`LeasedMachineView`
provides exactly that:

* ``chips`` is the lease's slice of the parent machine's chip dictionary,
  in parent-frame coordinates — the underlying routers and links are the
  real, shared hardware;
* ``geometry`` is a :class:`LeaseGeometry` whose routes are confined to
  the lease rectangle, so the multicast routing tables generated for a
  job only ever involve the job's own chips and links (this is what makes
  concurrent jobs non-interfering);
* ``send_nearest_neighbour`` refuses to cross the lease boundary, so one
  job's boot-time coordinate flood cannot leak into a neighbouring job;
* ``ethernet_chips`` nominates the lease's origin chip as the job's boot
  gateway, mirroring how every allocated spalloc board set gets its own
  Ethernet-relative root chip.

The view is deliberately thin: simulated time, packet transport and chip
state all live in the parent machine, which is what makes several jobs on
one machine advance together under a single event kernel.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.alloc.partition import Lease
from repro.core.chip import Chip
from repro.core.geometry import ChipCoordinate, Direction, TorusGeometry
from repro.core.machine import Link, SpiNNakerMachine

__all__ = ["LeaseGeometry", "LeasedMachineView"]


class LeaseGeometry(TorusGeometry):
    """Torus geometry restricted to a lease rectangle.

    Coordinates stay in the parent machine's frame.  Displacements (and
    therefore routes) are confined to the rectangle: an axis only wraps
    when the lease spans the full machine along that axis, in which case
    the sub-machine genuinely is a (smaller) torus in that dimension.
    Because dimension-ordered decomposition never leaves the bounding box
    of its endpoints, every route between two lease chips stays inside
    the lease.  The displacement table spans the rectangle, so both ends
    of a query must lie in it.
    """

    def __init__(self, lease: Lease, machine_width: int,
                 machine_height: int) -> None:
        super().__init__(machine_width, machine_height)
        self.lease = lease
        self.rect = lease.rect
        self.wraps_x = lease.rect.width == machine_width
        self.wraps_y = lease.rect.height == machine_height

    def _axes(self) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
        # A wrapping axis spans the machine, so the rect's size is its size.
        return (self._axis_rows(self.rect.width, self.wraps_x),
                self._axis_rows(self.rect.height, self.wraps_y))

    def _cell(self, source: ChipCoordinate, target: ChipCoordinate) -> tuple:
        if not (self.rect.contains(source) and self.rect.contains(target)):
            raise ValueError("%s -> %s leaves the lease rectangle %s"
                             % (source, target, self.rect))
        return super()._cell(source, target)

    def all_chips(self) -> Iterator[ChipCoordinate]:
        """Iterate over the lease's usable chips in raster order."""
        for coordinate in self.rect.chips():
            if coordinate not in self.lease.excluded:
                yield coordinate

    def contains(self, coordinate: ChipCoordinate) -> bool:
        """True if ``coordinate`` is a usable chip of the lease."""
        return self.lease.contains(coordinate)

    @property
    def n_chips(self) -> int:
        """Number of usable chips in the lease."""
        return self.lease.n_chips

    def neighbours(self, coord: ChipCoordinate) -> List[Tuple[Direction, ChipCoordinate]]:
        """The ``(direction, neighbour)`` pairs that stay inside the lease."""
        return [(direction, neighbour)
                for direction, neighbour in super().neighbours(coord)
                if self.lease.contains(neighbour)]


class LeasedMachineView:
    """A job's private window onto a shared :class:`SpiNNakerMachine`.

    Exposes the subset of the machine API used by the boot controller, the
    flood-fill loader, the mapping tool-chain and the application runtime,
    limited to the lease's chips.  ``config`` and ``kernel`` are the
    parent's: coordinates remain parent-frame and simulated time is shared
    by every job on the machine.
    """

    def __init__(self, machine: SpiNNakerMachine, lease: Lease) -> None:
        self.machine = machine
        self.lease = lease
        self.config = machine.config
        self.kernel = machine.kernel
        self.geometry = LeaseGeometry(lease, machine.config.width,
                                      machine.config.height)
        self.chips: Dict[ChipCoordinate, Chip] = {}
        self.ethernet_chips: List[ChipCoordinate] = []
        self.refresh()

    def refresh(self) -> None:
        """Re-derive the chip set after the lease shrank (chips condemned)."""
        self.chips = {coordinate: self.machine.chips[coordinate]
                      for coordinate in self.lease.chips()}
        # Internal and boundary links only change when the chip set does,
        # so they are indexed here rather than scanned per access (the
        # parent machine may be orders of magnitude larger than the lease).
        self._internal_links: Dict[Tuple[ChipCoordinate, Direction], Link] = {}
        self._boundary_links: List[Link] = []
        for coordinate in self.chips:
            for direction in Direction:
                link = self.machine.links[(coordinate, direction)]
                if link.target in self.chips:
                    self._internal_links[(coordinate, direction)] = link
                else:
                    self._boundary_links.append(link)  # outbound
                    self._boundary_links.append(       # matching inbound
                        self.machine.links[(link.target, direction.opposite)])
        if not self.chips:
            self.ethernet_chips = []
            return
        gateway = min(self.chips, key=lambda c: (c.y, c.x))
        self.ethernet_chips = [gateway]

    # ------------------------------------------------------------------
    # Access helpers (mirror SpiNNakerMachine)
    # ------------------------------------------------------------------
    def chip(self, x: int, y: int) -> Chip:
        """The chip at parent-frame coordinate ``(x, y)``; must be leased."""
        return self.chips[ChipCoordinate(x, y)]

    def __getitem__(self, coordinate: ChipCoordinate) -> Chip:
        return self.chips[coordinate]

    def __iter__(self) -> Iterator[Chip]:
        return iter(self.chips.values())

    def __contains__(self, coordinate: ChipCoordinate) -> bool:
        return coordinate in self.chips

    @property
    def n_chips(self) -> int:
        """Number of chips in the leased sub-machine."""
        return len(self.chips)

    @property
    def n_cores(self) -> int:
        """Total number of cores in the leased sub-machine."""
        return sum(chip.n_cores for chip in self.chips.values())

    @property
    def origin(self) -> Chip:
        """The lease's boot gateway chip."""
        return self.chips[self.ethernet_chips[0]]

    @property
    def links(self) -> Dict[Tuple[ChipCoordinate, Direction], Link]:
        """The parent links whose both endpoints are inside the lease."""
        return self._internal_links

    def link(self, coordinate: ChipCoordinate, direction: Direction) -> Link:
        """The outgoing link of a leased chip (may leave the lease)."""
        return self.machine.links[(coordinate, direction)]

    def boundary_links(self) -> List[Link]:
        """Parent links with exactly one endpoint inside the lease.

        Traffic on these links is, by construction, not this job's — the
        integration tests use them to prove isolation.
        """
        return list(self._boundary_links)

    # ------------------------------------------------------------------
    # Transport (scoped)
    # ------------------------------------------------------------------
    def send_nearest_neighbour(self, source: ChipCoordinate,
                               direction: Direction, packet: Any) -> bool:
        """Send an nn packet, refusing to cross the lease boundary."""
        target = source.neighbour(direction, self.config.width,
                                  self.config.height)
        if source not in self.chips or target not in self.chips:
            return False
        return self.machine.send_nearest_neighbour(source, direction, packet)

    def send_p2p(self, source: ChipCoordinate, packet: Any) -> bool:
        """Send a p2p packet from a leased chip."""
        return self.machine.send_p2p(source, packet)

    def inject_multicast(self, coordinate: ChipCoordinate,
                         packet: Any) -> None:
        """Inject a multicast packet at a leased chip's router."""
        self.machine.inject_multicast(coordinate, packet)

    # ------------------------------------------------------------------
    # Fault hooks (delegated)
    # ------------------------------------------------------------------
    def fail_link(self, coordinate: ChipCoordinate, direction: Direction,
                  bidirectional: bool = True) -> None:
        """Mark an inter-chip link failed (delegates to the parent)."""
        self.machine.fail_link(coordinate, direction, bidirectional)

    def repair_link(self, coordinate: ChipCoordinate, direction: Direction,
                    bidirectional: bool = True) -> None:
        """Restore a previously-failed link (delegates to the parent)."""
        self.machine.repair_link(coordinate, direction, bidirectional)

    # ------------------------------------------------------------------
    # Power management
    # ------------------------------------------------------------------
    def power_cycle(self) -> None:
        """Reset job-visible chip state, as a spalloc power cycle would.

        Clears the multicast routing tables and monitor mailboxes of every
        leased chip so a new job never sees a predecessor's routes (stale
        entries with recycled keys would otherwise leak packets across the
        lease boundary).
        """
        for chip in self.chips.values():
            chip.router.table.clear()
            chip.monitor_mailbox.clear()

    # ------------------------------------------------------------------
    # Aggregate statistics (lease-scoped)
    # ------------------------------------------------------------------
    def total_dropped_packets(self) -> int:
        """Packets dropped by the lease's routers."""
        return sum(chip.router.stats.dropped for chip in self)

    def total_emergency_invocations(self) -> int:
        """Emergency-routing invocations across the lease."""
        return sum(chip.router.stats.emergency_invocations for chip in self)

    def total_link_traffic(self) -> int:
        """Packets carried by the lease's internal links."""
        return sum(link.packets_carried for link in self.links.values())

    def run(self, duration_us: Optional[float] = None) -> None:
        """Advance the shared simulation (affects every job on the machine)."""
        self.machine.run(duration_us)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return ("LeasedMachineView(lease=%d, rect=%s, chips=%d)"
                % (self.lease.lease_id, self.lease.rect, self.n_chips))
