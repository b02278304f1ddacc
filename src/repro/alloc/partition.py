"""Carving the torus into rectangular sub-machine leases.

A spalloc-style allocation server divides one large SpiNNaker machine
between many concurrent tenants.  The unit of allocation here is a
rectangle of chips: rectangles tile the torus cleanly, keep every job's
multicast traffic inside its own region (dimension-ordered routes between
two chips of a rectangle never leave it) and admit a classical free-list
allocator.

The partitioner maintains a *free list* of disjoint rectangles covering
every unleased, non-faulty chip:

* **allocation** carves a requested ``width x height`` region out of one
  free rectangle (a guillotine split leaves at most four smaller free
  rectangles behind);
* **release** returns a lease's rectangle to the free list and then
  *coalesces* — neighbouring free rectangles that share a full edge are
  merged — which is what keeps long-running facilities from fragmenting
  into confetti after out-of-order releases;
* **faults** are first-class: chips marked failed through the existing
  hooks in :mod:`repro.core.machine` (dead links, failed cores, boot
  failures) are carved out of the free space at construction and are never
  part of any candidate placement, and chips condemned at run time shrink
  the owning lease in place.

Placement policy (first-fit / best-fit / locality-fit) is chosen by the
scheduler; the partitioner exposes the mechanics plus fragmentation
statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import SpiNNakerMachine

__all__ = ["Rect", "Lease", "MachinePartitioner", "PLACEMENT_POLICIES"]

#: Placement policies understood by :meth:`MachinePartitioner.allocate`.
PLACEMENT_POLICIES = ("first-fit", "best-fit", "locality-fit")


@dataclass(frozen=True, order=True)
class Rect:
    """An axis-aligned rectangle of chips, ``[x, x+width) x [y, y+height)``."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("rectangle dimensions must be positive")

    @property
    def area(self) -> int:
        """Number of chips covered."""
        return self.width * self.height

    @property
    def x2(self) -> int:
        """Exclusive right edge."""
        return self.x + self.width

    @property
    def y2(self) -> int:
        """Exclusive top edge."""
        return self.y + self.height

    def chips(self) -> Iterator[ChipCoordinate]:
        """Iterate over the covered chip coordinates in raster order."""
        for y in range(self.y, self.y2):
            for x in range(self.x, self.x2):
                yield ChipCoordinate(x, y)

    def contains(self, coordinate: ChipCoordinate) -> bool:
        """True if ``coordinate`` lies inside this rectangle."""
        return (self.x <= coordinate.x < self.x2
                and self.y <= coordinate.y < self.y2)

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles share at least one chip."""
        return (self.x < other.x2 and other.x < self.x2
                and self.y < other.y2 and other.y < self.y2)

    def centre(self) -> ChipCoordinate:
        """The (rounded-down) central chip of the rectangle."""
        return ChipCoordinate(self.x + (self.width - 1) // 2,
                              self.y + (self.height - 1) // 2)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%dx%d@(%d,%d)" % (self.width, self.height, self.x, self.y)


def subtract(rect: Rect, hole: Rect) -> List[Rect]:
    """Cover ``rect`` minus ``hole`` with at most four disjoint rectangles.

    The split is the standard guillotine decomposition: full-width strips
    below and above the hole, then side strips at the hole's own height.
    """
    if not rect.intersects(hole):
        return [rect]
    pieces: List[Rect] = []
    hx, hx2 = max(rect.x, hole.x), min(rect.x2, hole.x2)
    hy, hy2 = max(rect.y, hole.y), min(rect.y2, hole.y2)
    if hy > rect.y:                                    # strip below
        pieces.append(Rect(rect.x, rect.y, rect.width, hy - rect.y))
    if hy2 < rect.y2:                                  # strip above
        pieces.append(Rect(rect.x, hy2, rect.width, rect.y2 - hy2))
    if hx > rect.x:                                    # left side
        pieces.append(Rect(rect.x, hy, hx - rect.x, hy2 - hy))
    if hx2 < rect.x2:                                  # right side
        pieces.append(Rect(hx2, hy, rect.x2 - hx2, hy2 - hy))
    return pieces


@dataclass
class Lease:
    """A tenant's exclusive hold on a rectangle of chips.

    ``excluded`` grows when chips inside the rectangle die while the lease
    is live (the monitor condemns them); those chips are no longer part of
    the leased sub-machine and are not returned to the free pool when the
    lease ends.
    """

    lease_id: int
    rect: Rect
    tenant: str = ""
    excluded: Set[ChipCoordinate] = field(default_factory=set)

    def chips(self) -> List[ChipCoordinate]:
        """The currently-usable chips of the lease, in raster order."""
        return [c for c in self.rect.chips() if c not in self.excluded]

    @property
    def n_chips(self) -> int:
        """Number of usable chips remaining in the lease."""
        return self.rect.area - len(self.excluded)

    def contains(self, coordinate: ChipCoordinate) -> bool:
        """True if ``coordinate`` is a usable chip of this lease."""
        return self.rect.contains(coordinate) and coordinate not in self.excluded


class MachinePartitioner:
    """Free-list allocator of rectangular chip regions on one machine.

    Parameters
    ----------
    machine:
        The machine (or a compatible view) being partitioned.
    chip_usable:
        Optional predicate overriding the default fault scan.  The default
        considers a chip unusable when its boot failed, when every core has
        failed or been mapped out, or when all six of its outgoing links
        are marked failed (the chip is unreachable).
    """

    def __init__(self, machine: SpiNNakerMachine,
                 chip_usable=None) -> None:
        self.machine = machine
        self.width = machine.config.width
        self.height = machine.config.height
        self._chip_usable = chip_usable or self._default_usable
        self.faulty: Set[ChipCoordinate] = set()
        self._free: List[Rect] = [Rect(0, 0, self.width, self.height)]
        self._leases: Dict[int, Lease] = {}
        self._lease_ids = itertools.count(1)
        self.refresh_faults()

    # ------------------------------------------------------------------
    # Fault awareness
    # ------------------------------------------------------------------
    def _default_usable(self, coordinate: ChipCoordinate) -> bool:
        chip = self.machine.chips[coordinate]
        if chip.state.boot_failed:
            return False
        if all(core.state.value in ("failed", "disabled")
               for core in chip.cores):
            return False
        if all(self.machine.links[(coordinate, d)].failed for d in Direction):
            return False
        return True

    def refresh_faults(self) -> List[ChipCoordinate]:
        """Re-scan the free space for newly-failed chips and carve them out.

        Returns the chips newly marked faulty.  Chips inside live leases
        are *not* scanned here; run-time failures reach the partitioner
        through :meth:`mark_faulty` (driven by the monitor service).
        """
        newly_faulty = [c for rect in list(self._free) for c in rect.chips()
                        if c not in self.faulty and not self._chip_usable(c)]
        for coordinate in newly_faulty:
            self.mark_faulty(coordinate)
        return newly_faulty

    def mark_faulty(self, coordinate: ChipCoordinate) -> Optional[Lease]:
        """Record a dead chip; returns the lease that held it, if any.

        A free chip is carved out of its free rectangle.  A leased chip is
        excluded from the lease in place (the lease shrinks); the chip is
        never returned to the free pool.
        """
        if coordinate in self.faulty:
            return self.owner_of(coordinate)
        self.faulty.add(coordinate)
        cell = Rect(coordinate.x, coordinate.y, 1, 1)
        for rect in self._free:
            if rect.contains(coordinate):
                self._free.remove(rect)
                self._free.extend(subtract(rect, cell))
                return None
        lease = self.owner_of(coordinate)
        if lease is not None:
            lease.excluded.add(coordinate)
        return lease

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, width: int, height: int, policy: str = "first-fit",
                 tenant: str = "") -> Optional[Lease]:
        """Lease a ``width x height`` rectangle, or return ``None``.

        Candidate placements are corners of free rectangles large enough to
        hold the request; free rectangles never contain faulty chips, so
        every candidate is fault-free by construction.
        """
        if width < 1 or height < 1:
            raise ValueError("lease dimensions must be positive")
        if policy not in PLACEMENT_POLICIES:
            raise ValueError("unknown placement policy %r (expected one of %s)"
                             % (policy, ", ".join(PLACEMENT_POLICIES)))
        if width > self.width or height > self.height:
            return None

        choice = self._choose_placement(width, height, policy)
        if choice is None:
            return None
        return self._commit(choice, tenant)

    def allocate_boards(self, boards_wide: int, boards_high: int,
                        policy: str = "first-fit",
                        tenant: str = "") -> Optional[Lease]:
        """Lease a whole-board rectangle spanning board boundaries.

        On a multi-board machine (see
        :attr:`~repro.core.machine.MachineConfig.board_width`) jobs large
        enough to cross board cables are leased in whole boards, aligned
        to the board grid — a ``2 x 1``-board request returns a
        board-aligned ``2*board_width x board_height`` chip rectangle, so
        the tenant's inter-board links are its own and the machine's
        remaining boards stay whole for later multi-board jobs.
        """
        config = self.machine.config
        if config.board_width is None:
            raise ValueError("machine has no board grid; use allocate()")
        if boards_wide < 1 or boards_high < 1:
            raise ValueError("board-lease dimensions must be positive")
        if policy not in PLACEMENT_POLICIES:
            raise ValueError("unknown placement policy %r (expected one of %s)"
                             % (policy, ", ".join(PLACEMENT_POLICIES)))
        width = boards_wide * config.board_width
        height = boards_high * config.board_height
        if width > self.width or height > self.height:
            return None
        choice = self._choose_placement(width, height, policy,
                                        align=(config.board_width,
                                               config.board_height))
        if choice is None:
            return None
        return self._commit(choice, tenant)

    def _commit(self, choice: Tuple[Rect, Rect], tenant: str) -> Lease:
        free_rect, placed = choice
        self._free.remove(free_rect)
        self._free.extend(subtract(free_rect, placed))
        lease = Lease(lease_id=next(self._lease_ids), rect=placed,
                      tenant=tenant)
        self._leases[lease.lease_id] = lease
        return lease

    def boards_of(self, lease: Lease) -> List[int]:
        """The board ids a lease's rectangle spans (sorted)."""
        config = self.machine.config
        return sorted({config.board_of(coordinate)
                       for coordinate in lease.rect.chips()})

    def _choose_placement(self, width: int, height: int, policy: str,
                          align: Optional[Tuple[int, int]] = None
                          ) -> Optional[Tuple[Rect, Rect]]:
        fitting = [rect for rect in self._free
                   if rect.width >= width and rect.height >= height]
        if not fitting:
            return None
        if align is None and policy == "first-fit":
            rect = min(fitting, key=lambda r: (r.y, r.x))
            return rect, Rect(rect.x, rect.y, width, height)
        if align is None and policy == "best-fit":
            rect = min(fitting,
                       key=lambda r: (r.area - width * height, r.y, r.x))
            return rect, Rect(rect.x, rect.y, width, height)
        if align is not None and policy in ("first-fit", "best-fit"):
            best_aligned: Optional[Tuple[Tuple, Rect, Rect]] = None
            for rect in fitting:
                for placed in self._aligned_placements(rect, width, height,
                                                       align):
                    if policy == "first-fit":
                        score: Tuple = (placed.y, placed.x)
                    else:
                        score = (rect.area - width * height,
                                 placed.y, placed.x)
                    if best_aligned is None or score < best_aligned[0]:
                        best_aligned = (score, rect, placed)
            if best_aligned is None:
                return None
            return best_aligned[1], best_aligned[2]
        # locality-fit: of every candidate placement in every fitting free
        # rectangle, pick the one closest to the host gateway that keeps
        # clear of known-bad silicon around its perimeter.
        gateway = self.machine.ethernet_chips[0]
        best: Optional[Tuple[Tuple[float, int, int], Rect, Rect]] = None
        for rect in fitting:
            candidates = (self._aligned_placements(rect, width, height, align)
                          if align is not None
                          else self._corner_placements(rect, width, height))
            for placed in candidates:
                score = (self.machine.geometry.distance(placed.centre(), gateway)
                         + 4.0 * self._faulty_perimeter(placed),
                         placed.y, placed.x)
                if best is None or score < best[0]:
                    best = (score, rect, placed)
        if best is None:
            return None
        return best[1], best[2]

    @staticmethod
    def _aligned_placements(rect: Rect, width: int, height: int,
                            align: Tuple[int, int]) -> List[Rect]:
        """Placements inside ``rect`` whose origin sits on the grid."""
        align_x, align_y = align
        first_x = -(-rect.x // align_x) * align_x
        first_y = -(-rect.y // align_y) * align_y
        return [Rect(x, y, width, height)
                for y in range(first_y, rect.y2 - height + 1, align_y)
                for x in range(first_x, rect.x2 - width + 1, align_x)]

    @staticmethod
    def _corner_placements(rect: Rect, width: int,
                           height: int) -> List[Rect]:
        origins = {(rect.x, rect.y), (rect.x2 - width, rect.y),
                   (rect.x, rect.y2 - height), (rect.x2 - width, rect.y2 - height)}
        return [Rect(x, y, width, height) for x, y in sorted(origins)]

    def _faulty_perimeter(self, placed: Rect) -> int:
        """Number of faulty chips adjacent to the rectangle's perimeter."""
        count = 0
        for coordinate in self.faulty:
            if (placed.x - 1 <= coordinate.x <= placed.x2
                    and placed.y - 1 <= coordinate.y <= placed.y2
                    and not placed.contains(coordinate)):
                count += 1
        return count

    # ------------------------------------------------------------------
    # Release and coalescing
    # ------------------------------------------------------------------
    def release(self, lease: Lease) -> None:
        """Return a lease's usable chips to the free list and coalesce."""
        if lease.lease_id not in self._leases:
            raise KeyError("lease %d is not live" % lease.lease_id)
        del self._leases[lease.lease_id]
        returned = [lease.rect]
        for coordinate in lease.rect.chips():
            if coordinate in self.faulty:
                cell = Rect(coordinate.x, coordinate.y, 1, 1)
                returned = [piece for rect in returned
                            for piece in subtract(rect, cell)]
        self._free.extend(returned)
        self.coalesce()

    def coalesce(self) -> int:
        """Re-derive a canonical decomposition of the free space.

        Pairwise edge-merging alone can wedge (four rectangles arranged in
        a pinwheel cover a square but share no full edge), so coalescing
        rebuilds the free list from the covered cells: maximal x-intervals
        per row, stacked into rectangles across runs of identical
        intervals.  Two 4x4 regions released out of order become one 8x4
        region a later large request can use, and a fully-free pool always
        collapses back to a single rectangle.

        Returns the reduction in free-list length.
        """
        before = len(self._free)
        columns_by_row: Dict[int, Set[int]] = {}
        for rect in self._free:
            for y in range(rect.y, rect.y2):
                columns_by_row.setdefault(y, set()).update(
                    range(rect.x, rect.x2))

        intervals_by_row: Dict[int, List[Tuple[int, int]]] = {}
        for y, columns in columns_by_row.items():
            intervals: List[Tuple[int, int]] = []
            for x in sorted(columns):
                if intervals and x == intervals[-1][0] + intervals[-1][1]:
                    intervals[-1] = (intervals[-1][0], intervals[-1][1] + 1)
                else:
                    intervals.append((x, 1))
            intervals_by_row[y] = intervals

        rebuilt: List[Rect] = []
        open_runs: Dict[Tuple[int, int], int] = {}  # (x, width) -> start row
        previous_y: Optional[int] = None
        for y in sorted(intervals_by_row):
            if previous_y is not None and y != previous_y + 1:
                for (x, width), start in open_runs.items():
                    rebuilt.append(Rect(x, start, width, previous_y + 1 - start))
                open_runs = {}
            row = set(intervals_by_row[y])
            for key in [key for key in open_runs if key not in row]:
                x, width = key
                start = open_runs.pop(key)
                rebuilt.append(Rect(x, start, width, y - start))
            for key in row:
                open_runs.setdefault(key, y)
            previous_y = y
        for (x, width), start in open_runs.items():
            rebuilt.append(Rect(x, start, width, previous_y + 1 - start))

        self._free = rebuilt
        return before - len(rebuilt)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def owner_of(self, coordinate: ChipCoordinate) -> Optional[Lease]:
        """The live lease holding ``coordinate``, or ``None``."""
        for lease in self._leases.values():
            if lease.rect.contains(coordinate):
                return lease
        return None

    @property
    def leases(self) -> List[Lease]:
        """All live leases."""
        return list(self._leases.values())

    @property
    def free_rectangles(self) -> List[Rect]:
        """The current free list (disjoint, fault-free rectangles)."""
        return list(self._free)

    @property
    def free_area(self) -> int:
        """Number of allocatable chips."""
        return sum(rect.area for rect in self._free)

    @property
    def leased_area(self) -> int:
        """Number of chips currently under lease (excluding dead ones)."""
        return sum(lease.n_chips for lease in self._leases.values())

    def largest_free_rectangle(self) -> int:
        """Area of the largest single free rectangle."""
        return max((rect.area for rect in self._free), default=0)

    def fragmentation(self) -> float:
        """``1 - largest_free_rect / free_area`` — 0 when free space is one
        solid block, approaching 1 as it shatters into small pieces."""
        free = self.free_area
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_rectangle() / free
