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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.neuron.engine import CSRMatrix
from repro.neuron.synapse import MAX_DELAY_TICKS


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
    milliseconds are usually specified in SpiNNaker workloads.
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
        # The generator is consumed row by row — one mask draw, then that
        # row's per-synapse weight/delay draws — so the stream position
        # of every synapse is fixed by the seed alone.
        weight_range, delay_range = self.weight_range, self.delay_range
        target_rows: List[np.ndarray] = []
        weight_rows: List[np.ndarray] = []
        delay_rows: List[np.ndarray] = []
        # One uniform buffer and one mask serve every row (same doubles).
        uniforms = np.empty(n_post)
        mask = np.empty(n_post, dtype=bool)
        for pre in range(n_pre):
            np.less(rng.random(out=uniforms), self.p_connect, out=mask)
            if not self.allow_self_connections and pre < n_post:
                mask[pre] = False
            targets = mask.nonzero()[0]
            target_rows.append(targets)
            if weight_range is not None and delay_range is not None:
                # Two distributions interleave per synapse; drawing
                # either as a block would reorder the stream.
                weights = np.empty(targets.size)
                delays = np.empty(targets.size, dtype=np.int64)
                for slot in range(targets.size):
                    weights[slot] = rng.uniform(*weight_range)
                    delays[slot] = rng.integers(delay_range[0],
                                                delay_range[1] + 1)
                weight_rows.append(weights)
                delay_rows.append(delays)
            elif weight_range is not None:
                weight_rows.append(rng.uniform(*weight_range,
                                               size=targets.size))
            elif delay_range is not None:
                delay_rows.append(rng.integers(
                    delay_range[0], delay_range[1] + 1, size=targets.size))
        targets = np.concatenate(target_rows)
        weights = (np.full(targets.size, self.weight, dtype=float)
                   if weight_range is None else np.concatenate(weight_rows))
        delays = (np.full(targets.size, self.delay_ticks)
                  if delay_range is None else np.concatenate(delay_rows))
        return CSRMatrix(n_pre, n_post,
                         _row_ptr([row.size for row in target_rows]),
                         targets, weights,
                         np.clip(delays, 1, MAX_DELAY_TICKS))


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

    def _position(self, index: int, shape: Tuple[int, int]) -> Tuple[float, float]:
        rows, cols = shape
        return float(index // cols), float(index % cols)

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
            pre_r, pre_c = self._position(pre, self.pre_shape)
            for post in range(n_post):
                post_r, post_c = self._position(post, self.post_shape)
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
