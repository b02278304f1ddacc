"""Connection-pattern generators.

"Mapping the biological neural system onto the SpiNNaker machine is
non-trivial ... connectivity data constructed" (Section 5.3).  A connector
expands a (pre-population, post-population) pair into the projection's
:class:`~repro.neuron.engine.CSRMatrix` — the synaptic rows, in source
order, that the mapping layer packs into SDRAM.

The connectors provided match the ones every SpiNNaker/PyNN workload uses:
one-to-one, all-to-all, fixed-probability (the sparse random connectivity
of cortical models) and distance-dependent (the local receptive-field
connectivity of Section 5.4, where delay grows with Euclidean distance as
in three-dimensional biological tissue).

Fixed-probability connectivity is a *keyed* stream: the projection's
generator yields one root key, and each ``TILE x TILE`` (source block x
target block) tile draws its cells, weights and delays from streams
seeded by ``root_key + (src_tile, tgt_tile, quantity)``.  A tile's kept
cells are running sums of ``geometric(p)`` gaps over its row-major
cells, so expansion costs O(synapses), not O(pre x post), and any tile
expands alone, in any order, to the same synapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.neuron.engine import CSRMatrix
from repro.neuron.synapse import MAX_DELAY_TICKS

#: Side of a keyed expansion's square tiles.  Fixed, so a projection's
#: synapses do not depend on how the mapping layer partitions it.
TILE = 256

#: The per-tile streams: kept cells, then weights, then delays.
_CELLS, _WEIGHTS, _DELAYS = 0, 1, 2

#: One expanded tile: ``(src_tile, tgt_tile, sources, targets, weights,
#: delay_ticks)``, its synapses row-major in the projection's indices.
Tile = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _row_ptr(counts) -> np.ndarray:
    """CSR row offsets of per-source synapse counts."""
    row_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return row_ptr


class Connector:
    """Base class: expands a projection into its CSR connectivity."""

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        """Expand into a :class:`CSRMatrix` of ``n_pre`` source rows.

        The expansion is a pure function of the arguments and the
        generator's stream: every layer that expands a projection under
        one seed sees the same synapses in the same order.
        """
        raise NotImplementedError

    @staticmethod
    def _clip_delay(delay_ticks: int) -> int:
        return int(min(max(1, delay_ticks), MAX_DELAY_TICKS))


@dataclass
class OneToOneConnector(Connector):
    """Connect neuron i of the source to neuron i of the target."""

    weight: float = 1.0
    delay_ticks: int = 1

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        n = min(n_pre, n_post)
        return CSRMatrix(
            n_pre, n_post, np.minimum(np.arange(n_pre + 1), n),
            np.arange(n), np.full(n, self.weight, dtype=float),
            np.full(n, self._clip_delay(self.delay_ticks)))


@dataclass
class AllToAllConnector(Connector):
    """Connect every source neuron to every target neuron."""

    weight: float = 1.0
    delay_ticks: int = 1
    allow_self_connections: bool = True

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        targets = np.tile(np.arange(n_post), n_pre)
        counts = np.full(n_pre, n_post)
        if not self.allow_self_connections:
            targets = targets[targets != np.repeat(np.arange(n_pre), n_post)]
            counts[:n_post] -= 1
        return CSRMatrix(
            n_pre, n_post, _row_ptr(counts), targets,
            np.full(targets.size, self.weight, dtype=float),
            np.full(targets.size, self._clip_delay(self.delay_ticks)))


@dataclass
class FixedProbabilityConnector(Connector):
    """Connect each (pre, post) pair independently with probability ``p``.

    Weights and delays may be fixed values or ranges; ranges are sampled
    uniformly per synapse, which is how delays spread over several
    milliseconds are usually specified in SpiNNaker workloads.  Synapses
    come tile by tile from the keyed stream (module docstring).
    """

    p_connect: float = 0.1
    weight: float = 1.0
    weight_range: Optional[Tuple[float, float]] = None
    delay_ticks: int = 1
    delay_range: Optional[Tuple[int, int]] = None
    allow_self_connections: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_connect <= 1.0:
            raise ValueError("p_connect must lie in [0, 1]")

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        root_key = tuple(rng.integers(1 << 32, size=4).tolist())
        return assemble_tiles(n_pre, n_post, [
            self.expand_tile(root_key, src_tile, tgt_tile, n_pre, n_post)
            for src_tile in range(-(-n_pre // TILE))
            for tgt_tile in range(-(-n_post // TILE))])

    def expand_tile(self, root_key: Tuple[int, ...], src_tile: int,
                    tgt_tile: int, n_pre: int, n_post: int) -> Tile:
        """The synapses of one tile, a pure function of its key: kept
        cells first (self-connections dropped), then one block each of
        weights and delays from the tile's own streams."""
        from repro.neuron.population import tile_rng  # imports us
        row0, col0 = src_tile * TILE, tgt_tile * TILE
        width = min(TILE, n_post - col0)
        n_cells = min(TILE, n_pre - row0) * width
        if self.p_connect in (0.0, 1.0):
            cells = np.arange(n_cells if self.p_connect else 0)
        else:
            cells = _geometric_cells(
                tile_rng(root_key, src_tile, tgt_tile, _CELLS),
                self.p_connect, n_cells)
        sources, targets = np.divmod(cells, width)
        sources += row0
        targets += col0
        if not self.allow_self_connections and src_tile == tgt_tile:
            keep = sources != targets
            sources, targets = sources[keep], targets[keep]
        n = targets.size
        weights = np.full(n, self.weight, dtype=float)
        delays = np.full(n, self.delay_ticks)
        if self.weight_range is not None and n:
            weights = tile_rng(root_key, src_tile, tgt_tile,
                               _WEIGHTS).uniform(*self.weight_range, size=n)
        if self.delay_range is not None and n:
            low, high = self.delay_range
            delays = tile_rng(root_key, src_tile, tgt_tile,
                              _DELAYS).integers(low, high + 1, size=n)
        return src_tile, tgt_tile, sources, targets, weights, delays


def _geometric_cells(rng: np.random.Generator, p: float,
                     n_cells: int) -> np.ndarray:
    """The kept cells of ``n_cells``: cumulative ``geometric(p)`` gaps,
    drawn in chunks sized past the expected count (the cells do not
    depend on the chunk size).  A gap past the tile ends it, so gaps are
    capped there: numpy saturates them at the int64 maximum for tiny p."""
    mean = n_cells * p
    size = int(mean + 4.0 * math.sqrt(mean)) + 16
    cells = np.array([-1])
    while cells[-1] < n_cells:
        gaps = np.minimum(rng.geometric(p, size=size), n_cells + 1)
        cells = np.concatenate((cells, cells[-1] + np.cumsum(gaps)))
    return cells[1:np.searchsorted(cells, n_cells)]


def assemble_tiles(n_pre: int, n_post: int,
                   tiles: Sequence[Tile]) -> CSRMatrix:
    """Merge the expanded tiles of a projection, given in any order, into
    its CSR: source rows in order, ascending targets within each row."""
    ordered = sorted(tiles, key=lambda tile: tile[:2])
    sources, targets, weights, delays = (
        np.concatenate(column) for column in list(zip(*ordered))[2:])
    # In (source, target) tile order each tile is a row-major run, so a
    # stable sort on the source interleaves a band's runs row by row.
    order = np.argsort(sources, kind="stable")
    return CSRMatrix(n_pre, n_post,
                     _row_ptr(np.bincount(sources, minlength=n_pre)),
                     targets[order], weights[order],
                     np.clip(delays[order], 1, MAX_DELAY_TICKS))


@dataclass
class DistanceDependentConnector(Connector):
    """Connect neurons laid out on 2-D grids with distance-dependent rules.

    Connection probability falls off as a Gaussian of the Euclidean
    distance between the source and target grid positions, and the delay
    grows linearly with distance — the property of three-dimensional
    biological tissue that Section 3.2 says the soft-delay mechanism must
    reproduce.

    Both populations are interpreted as ``rows x cols`` grids; the target
    grid is scaled onto the source grid when their shapes differ.
    """

    pre_shape: Tuple[int, int] = (1, 1)
    post_shape: Tuple[int, int] = (1, 1)
    sigma: float = 2.0
    max_distance: float = 6.0
    weight: float = 1.0
    p_peak: float = 1.0
    delay_per_unit_distance_ticks: float = 1.0
    min_delay_ticks: int = 1

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        pre_rows, pre_cols = self.pre_shape
        post_rows, post_cols = self.post_shape
        if pre_rows * pre_cols < n_pre or post_rows * post_cols < n_post:
            raise ValueError("grid shapes are too small for the populations")
        row_scale = pre_rows / post_rows
        col_scale = pre_cols / post_cols

        counts = [0] * n_pre
        targets: List[int] = []
        delays: List[int] = []
        for pre in range(n_pre):
            pre_r, pre_c = divmod(pre, pre_cols)
            for post in range(n_post):
                post_r, post_c = divmod(post, post_cols)
                # Map the target position into source-grid coordinates.
                distance = math.hypot(pre_r - post_r * row_scale,
                                      pre_c - post_c * col_scale)
                if distance > self.max_distance:
                    continue
                probability = self.p_peak * math.exp(
                    -(distance ** 2) / (2.0 * self.sigma ** 2))
                if rng.random() >= probability:
                    continue
                counts[pre] += 1
                targets.append(post)
                delays.append(self._clip_delay(self.min_delay_ticks + int(
                    round(distance * self.delay_per_unit_distance_ticks))))
        return CSRMatrix(n_pre, n_post, _row_ptr(counts), targets,
                         np.full(len(targets), self.weight, dtype=float),
                         delays)


@dataclass
class FromListConnector(Connector):
    """Connect from an explicit list of ``(pre, post, weight, delay)`` tuples."""

    connections: List[Tuple[int, int, float, int]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.connections is None:
            self.connections = []

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        for pre, post, _weight, _delay in self.connections:
            if not 0 <= pre < n_pre:
                raise IndexError("pre index %d outside population of %d"
                                 % (pre, n_pre))
            if not 0 <= post < n_post:
                raise IndexError("post index %d outside population of %d"
                                 % (post, n_post))
        sources = np.array([c[0] for c in self.connections], dtype=np.int64)
        # Rows in source order; a source's synapses keep their list order.
        order = np.argsort(sources, kind="stable")
        targets, weights, delays = (
            np.array([c[column] for c in self.connections], dtype=dtype)[order]
            for column, dtype in ((1, np.int64), (2, float), (3, np.int64)))
        return CSRMatrix(n_pre, n_post,
                         _row_ptr(np.bincount(sources, minlength=n_pre)),
                         targets, weights,
                         np.clip(delays, 1, MAX_DELAY_TICKS))
