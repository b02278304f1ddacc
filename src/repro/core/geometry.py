"""Geometry of the 2-D toroidal triangular mesh (Figures 1 and 2).

SpiNNaker chips are arranged on a two-dimensional torus.  Each chip has six
links — east, north-east, north, west, south-west and south — so the mesh
has triangular facets.  The triangles are what make *emergency routing*
possible: a packet blocked on one side of a triangle can be sent around the
other two sides (Figure 8).

This module provides coordinate arithmetic, link directions, shortest-path
("Manhattan-on-a-torus-with-diagonals") distance and route computation used
by the router, the placer and the latency benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, List, Optional, Tuple


class Direction(IntEnum):
    """The six inter-chip link directions of a SpiNNaker chip.

    The numbering follows the SpiNNaker convention: link 0 is east and the
    links proceed anticlockwise.  ``opposite`` gives the link on which a
    neighbouring chip receives a packet sent on this link.
    """

    EAST = 0
    NORTH_EAST = 1
    NORTH = 2
    WEST = 3
    SOUTH_WEST = 4
    SOUTH = 5

    @property
    def opposite(self) -> "Direction":
        """The direction pointing back along this link."""
        return Direction((self.value + 3) % 6)

    @property
    def offset(self) -> Tuple[int, int]:
        """The ``(dx, dy)`` chip-coordinate offset of this link."""
        return _DIRECTION_OFFSETS[self]

    @classmethod
    def from_offset(cls, dx: int, dy: int) -> "Direction":
        """Return the direction for a unit offset ``(dx, dy)``.

        Raises
        ------
        ValueError
            If ``(dx, dy)`` is not one of the six unit mesh offsets.
        """
        for direction, offset in _DIRECTION_OFFSETS.items():
            if offset == (dx, dy):
                return direction
        raise ValueError("(%d, %d) is not a unit mesh offset" % (dx, dy))

    def emergency_pair(self) -> Tuple["Direction", "Direction"]:
        """The two link directions used for emergency routing.

        When the link in this direction is blocked, the packet is sent
        around the other two sides of the adjacent mesh triangle (Fig. 8).
        The pair returned is ``(first_leg, second_leg)`` such that
        ``first_leg.offset + second_leg.offset == self.offset``.  The
        convention matches the hardware: the first leg is the next link
        anticlockwise from the blocked one, the second leg the next link
        clockwise, so the receiving router can compute the second leg
        purely from the link the emergency packet arrived on.
        """
        return (Direction((self.value + 1) % 6), Direction((self.value - 1) % 6))

    @staticmethod
    def emergency_second_leg(arrival: "Direction") -> "Direction":
        """Second emergency leg for a first-leg packet arriving on ``arrival``.

        A first-leg emergency packet sent out of link ``L + 1`` arrives at
        the intermediate chip on link ``L + 4``; its second leg is link
        ``L - 1``, which is ``arrival + 1`` — a fixed relation the hardware
        exploits so the intermediate router needs no extra state.
        """
        return Direction((arrival.value + 1) % 6)


#: Chip-coordinate offsets of the six links.  The mesh axes are skewed: the
#: "north-east" link moves +1 in both x and y, which is what creates the
#: triangular facets of Figure 2.
_DIRECTION_OFFSETS = {
    Direction.EAST: (1, 0),
    Direction.NORTH_EAST: (1, 1),
    Direction.NORTH: (0, 1),
    Direction.WEST: (-1, 0),
    Direction.SOUTH_WEST: (-1, -1),
    Direction.SOUTH: (0, -1),
}



@dataclass(frozen=True, order=True)
class ChipCoordinate:
    """The ``(x, y)`` position of a chip in the mesh."""

    x: int
    y: int

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y

    def offset(self, dx: int, dy: int, width: int, height: int) -> "ChipCoordinate":
        """Return the coordinate ``(x + dx, y + dy)`` wrapped on the torus."""
        return ChipCoordinate((self.x + dx) % width, (self.y + dy) % height)

    def neighbour(self, direction: Direction, width: int,
                  height: int) -> "ChipCoordinate":
        """Return the neighbouring chip in ``direction`` on the torus."""
        dx, dy = direction.offset
        return self.offset(dx, dy, width, height)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(%d, %d)" % (self.x, self.y)


class TorusGeometry:
    """Distance and routing computations on a ``width x height`` torus.

    The hexagonal (triangular-facet) mesh admits movement along x, along y
    and along the x=y diagonal.  The shortest-path metric is therefore the
    standard SpiNNaker "hexagonal" distance: after reducing the displacement
    vector to its minimal form, the distance is ``max(|dx|, |dy|)`` when dx
    and dy have the same sign (the diagonal helps) and ``|dx| + |dy|`` when
    they differ in sign.

    The mesh is translation-invariant, so one table with a cell per
    coordinate difference reduced per axis (``width x height`` on the
    torus), built on first use, answers every query: no work per chip pair.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError("torus dimensions must be positive")
        self.width = width
        self.height = height
        self._cells: Optional[List[tuple]] = None
        self._rows_x = self._rows_y = 0

    # ------------------------------------------------------------------
    # The displacement table
    # ------------------------------------------------------------------
    @staticmethod
    def _axis_rows(size: int, wraps: bool = True) -> List[Tuple[int, ...]]:
        """Candidate displacements of each table row along one axis.

        A wrapping axis has a row per delta modulo ``size``: both ways
        round.  One that does not wrap has a row per signed delta, taken
        modulo ``2 * size - 1`` rows.
        """
        if wraps:
            return [(d,) if d == 0 else (d, d - size) for d in range(size)]
        rows = 2 * size - 1
        return [(d if d < size else d - rows,) for d in range(rows)]

    def _axes(self) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
        return self._axis_rows(self.width), self._axis_rows(self.height)

    @classmethod
    def _reduce(cls, dx_options: Tuple[int, ...],
                dy_options: Tuple[int, ...]) -> tuple:
        """Cell ``(dx, dy, hops, first link)`` of the candidate pair with the
        fewest hops; ties go to the smaller ``(dx, dy)``, keeping the metric
        symmetric at half the torus."""
        hops, dx, dy = min((cls.hex_distance(dx, dy), dx, dy)
                           for dx in dx_options for dy in dy_options)
        steps = cls.decompose(dx, dy)
        return dx, dy, hops, steps[0] if steps else None

    def _cell(self, source: ChipCoordinate, target: ChipCoordinate) -> tuple:
        cells = self._cells
        if cells is None:
            x_rows, y_rows = self._axes()
            self._rows_x, self._rows_y = len(x_rows), len(y_rows)
            cells = [self._reduce(xs, ys) for xs in x_rows for ys in y_rows]
            self._cells = cells
        return cells[(target.x - source.x) % self._rows_x * self._rows_y
                     + (target.y - source.y) % self._rows_y]

    # ------------------------------------------------------------------
    # Displacements and distances
    # ------------------------------------------------------------------
    def contains(self, coordinate: ChipCoordinate) -> bool:
        """True if ``coordinate`` is a chip of the torus."""
        return (0 <= coordinate.x < self.width
                and 0 <= coordinate.y < self.height)

    def displacement(self, source: ChipCoordinate,
                     target: ChipCoordinate) -> Tuple[int, int]:
        """Minimal ``(dx, dy)`` displacement from source to target."""
        return self._cell(source, target)[:2]

    @staticmethod
    def hex_distance(dx: int, dy: int) -> int:
        """Number of link hops needed to cover displacement ``(dx, dy)``.

        The diagonal (north-east / south-west) link covers (+1, +1) or
        (-1, -1) in a single hop, so same-sign components can share hops.
        """
        if (dx >= 0) == (dy >= 0):
            return max(abs(dx), abs(dy))
        return abs(dx) + abs(dy)

    def distance(self, source: ChipCoordinate, target: ChipCoordinate) -> int:
        """Shortest hop count between two chips on the torus."""
        return self._cell(source, target)[2]

    def first_hop(self, source: ChipCoordinate,
                  target: ChipCoordinate) -> Optional[Direction]:
        """First link of :meth:`route` (``None`` when source is target)."""
        return self._cell(source, target)[3]

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    @staticmethod
    def decompose(dx: int, dy: int) -> List[Direction]:
        """Decompose a displacement into an ordered list of link directions.

        Diagonal moves are emitted first, then the residual straight moves.
        The resulting route is a shortest path (it has ``hex_distance(dx,
        dy)`` entries) with at most one "point of inflection", matching the
        dimension-ordered routes the SpiNNaker router produces with default
        routing (Fig. 8: origin, inflection, target).
        """
        steps: List[Direction] = []
        if (dx >= 0) == (dy >= 0):
            diagonal = min(abs(dx), abs(dy))
            diag_dir = Direction.NORTH_EAST if dx >= 0 else Direction.SOUTH_WEST
            steps.extend([diag_dir] * diagonal)
            dx -= diagonal if dx >= 0 else -diagonal
            dy -= diagonal if dy >= 0 else -diagonal
        if dx > 0:
            steps.extend([Direction.EAST] * dx)
        elif dx < 0:
            steps.extend([Direction.WEST] * (-dx))
        if dy > 0:
            steps.extend([Direction.NORTH] * dy)
        elif dy < 0:
            steps.extend([Direction.SOUTH] * (-dy))
        return steps

    def route(self, source: ChipCoordinate,
              target: ChipCoordinate) -> List[Direction]:
        """Shortest dimension-ordered route from ``source`` to ``target``."""
        dx, dy = self.displacement(source, target)
        return self.decompose(dx, dy)

    def route_chips(self, source: ChipCoordinate,
                    target: ChipCoordinate) -> List[ChipCoordinate]:
        """The chips visited by :meth:`route`, including source and target."""
        chips = [source]
        current = source
        for direction in self.route(source, target):
            current = current.neighbour(direction, self.width, self.height)
            chips.append(current)
        return chips

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def all_chips(self) -> Iterator[ChipCoordinate]:
        """Iterate over every chip coordinate in raster order."""
        for y in range(self.height):
            for x in range(self.width):
                yield ChipCoordinate(x, y)

    @property
    def n_chips(self) -> int:
        """Total number of chips on the torus."""
        return self.width * self.height

    def neighbours(self, coord: ChipCoordinate) -> List[Tuple[Direction, ChipCoordinate]]:
        """All six ``(direction, neighbour)`` pairs of ``coord``."""
        return [(d, coord.neighbour(d, self.width, self.height))
                for d in Direction]
