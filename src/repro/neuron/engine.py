"""The CSR connectivity format and its vectorized spike propagation.

The deferred-event ("soft delay") model is "one of the most expensive
functions of the neuron models" (Sections 3.2 and 5.3 of the paper).  An
expanded projection exists in exactly one form — a compressed-sparse-row
(CSR) matrix of four flat NumPy arrays, built directly by the connectors
(:mod:`repro.neuron.connectors`):

* ``row_ptr``  — ``n_pre + 1`` offsets; row ``i`` occupies synapse slots
  ``row_ptr[i]:row_ptr[i + 1]``;
* ``targets``  — post-synaptic neuron index per synapse;
* ``weights``  — synaptic efficacy (nA) per synapse;
* ``delay_ticks`` — programmable soft delay per synapse.

Propagation has one table, :class:`RowTable`: the host loop stacks every
projection's matrix into one, the board engine its boards' delivery
indexes, and a tick's fired cells become rows, the rows ring offsets
(``delay * width + column``) and weights, gathered for one
:class:`~repro.neuron.synapse.DeferredEventBuffer` update — the host's
element-order ``add_events``; the same arrays drive the STDP update
(:meth:`repro.neuron.stdp.STDPMechanism.update_csr`, which mutates
``weights`` in place — the learned state) and the packed-word SDRAM
blocks written by the mapping layer.  The literal per-synapse semantics
these operations are pinned to live in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.neuron.synapse import (
    DELAY_BITS,
    INDEX_BITS,
    MAX_DELAY_TICKS,
    WEIGHT_BITS,
    WEIGHT_FIXED_POINT,
)

_SIGN_BIT = 1 << (WEIGHT_BITS - 1)
_WEIGHT_MAGNITUDE_MASK = _SIGN_BIT - 1
_INDEX_MASK = (1 << INDEX_BITS) - 1
_DELAY_MASK = (1 << DELAY_BITS) - 1


# ----------------------------------------------------------------------
# The packed 32-bit synaptic word (Section 5.3's "connectivity data")
# ----------------------------------------------------------------------
def pack_synapse_words(targets: np.ndarray, weights: np.ndarray,
                       delay_ticks: np.ndarray) -> np.ndarray:
    """Pack aligned synapse arrays into 32-bit SDRAM synaptic words.

    From the top: a 16-bit sign-magnitude fixed-point weight (quantised
    round-half-to-even, magnitude saturating), the 4-bit ``delay - 1``
    and the 12-bit target index.
    """
    targets = np.asarray(targets, dtype=np.int64)
    delay_ticks = np.asarray(delay_ticks, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if targets.size and (targets.min() < 0
                         or targets.max() >= (1 << INDEX_BITS)):
        raise ValueError("target indices must fit in %d bits and be "
                         "non-negative" % (INDEX_BITS,))
    if delay_ticks.size and (delay_ticks.min() < 1
                             or delay_ticks.max() > (1 << DELAY_BITS)):
        raise ValueError("delays must lie in 1..%d ticks to fit the %d-bit "
                         "field" % (1 << DELAY_BITS, DELAY_BITS))
    magnitude = np.rint(np.abs(weights) * WEIGHT_FIXED_POINT).astype(np.int64)
    magnitude = np.minimum(magnitude, _WEIGHT_MAGNITUDE_MASK)
    weight_field = np.where(weights < 0, magnitude | _SIGN_BIT, magnitude)
    words = ((weight_field << (DELAY_BITS + INDEX_BITS)) |
             ((delay_ticks - 1) << INDEX_BITS) | targets)
    return words.astype(np.uint32)


def unpack_synapse_words(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Unpack 32-bit synaptic words into ``(targets, weights, delay_ticks)``.

    The inverse of :func:`pack_synapse_words` up to weight quantisation.
    """
    words = np.asarray(words, dtype=np.uint32).astype(np.int64)
    targets = (words & _INDEX_MASK).astype(np.int64)
    delay_ticks = (((words >> INDEX_BITS) & _DELAY_MASK) + 1).astype(np.int64)
    weight_field = words >> (DELAY_BITS + INDEX_BITS)
    magnitude = (weight_field & _WEIGHT_MAGNITUDE_MASK) / WEIGHT_FIXED_POINT
    weights = np.where(weight_field & _SIGN_BIT, -magnitude, magnitude)
    return targets, weights, delay_ticks


def expand_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat slot indices of rows given as ``(first slot, length)`` spans.

    The one CSR row expansion: spans are expanded in the order given,
    each row's slots kept in storage order.  :meth:`CSRMatrix.synapse_slots`
    feeds it one matrix's spiking rows; :class:`RowTable` a tick's fired
    cells, and then their rows.
    """
    slots = np.arange(int(counts.sum()), dtype=np.intp)
    slots += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return slots


class CSRMatrix:
    """A projection's synapses compiled into flat CSR arrays."""

    __slots__ = ("n_pre", "n_post", "row_ptr", "targets", "weights",
                 "delay_ticks", "pre_index")

    def __init__(self, n_pre: int, n_post: int, row_ptr: np.ndarray,
                 targets: np.ndarray, weights: np.ndarray,
                 delay_ticks: np.ndarray) -> None:
        if n_pre <= 0 or n_post <= 0:
            raise ValueError("population sizes must be positive")
        self.n_pre = n_pre
        self.n_post = n_post
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.delay_ticks = np.asarray(delay_ticks, dtype=np.int64)
        if self.row_ptr.shape != (n_pre + 1,):
            raise ValueError("row_ptr must have n_pre + 1 entries")
        if not (self.targets.shape == self.weights.shape
                == self.delay_ticks.shape):
            raise ValueError("targets, weights and delay_ticks must align")
        if self.targets.size:
            if self.targets.min() < 0 or self.targets.max() >= n_post:
                raise ValueError("synapse target outside the post population")
            if (self.delay_ticks.min() < 1
                    or self.delay_ticks.max() > MAX_DELAY_TICKS):
                raise ValueError("synapse delays must lie in 1..%d ticks"
                                 % (MAX_DELAY_TICKS,))
        #: Source neuron of every synapse slot (the row each slot belongs to).
        self.pre_index = np.repeat(np.arange(n_pre, dtype=np.int64),
                                   np.diff(self.row_ptr))

    @classmethod
    def checked_views(cls, n_pre: int, n_post: int,
                      *arrays: np.ndarray) -> "CSRMatrix":
        """A matrix over ``row_ptr, targets, weights, delay_ticks,
        pre_index`` of this class's dtypes, which the caller has already
        range-checked, kept as given (slices stay views)."""
        matrix = cls.__new__(cls)
        matrix.n_pre, matrix.n_post = n_pre, n_post
        (matrix.row_ptr, matrix.targets, matrix.weights, matrix.delay_ticks,
         matrix.pre_index) = arrays
        return matrix

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_synapses(self) -> int:
        """Total synapses in the matrix."""
        return int(self.targets.size)

    def max_delay(self) -> int:
        """Largest programmable delay used (0 for an empty matrix)."""
        if self.delay_ticks.size == 0:
            return 0
        return int(self.delay_ticks.max())

    def row_lengths(self) -> np.ndarray:
        """Synapse count of every source row."""
        return np.diff(self.row_ptr)

    def synapse_slots(self, pre_indices: np.ndarray) -> np.ndarray:
        """Flat synapse-array indices of all synapses of the given rows.

        Rows are expanded in the order given (ascending when the caller
        passes ``np.flatnonzero`` of a spike mask), with each row's
        synapses kept in storage order.
        """
        pre_indices = np.asarray(pre_indices, dtype=np.intp)
        starts = self.row_ptr[pre_indices]
        return expand_rows(starts, self.row_ptr[pre_indices + 1] - starts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CSRMatrix(%d pre, %d post, %d synapses)" % (
            self.n_pre, self.n_post, self.n_synapses)


class RowTable:
    """The propagate step's one table: fired cells -> rows -> ring slots.

    Stacked from *parts* ``(rows, row_cells, columns)``: ``rows`` is a
    CSR-shaped set of rows (``row_ptr``, ``targets``, ``delay_ticks``,
    ``weights`` — a :class:`CSRMatrix` or a board's delivery index),
    ``row_cells`` the cell each row fires with and ``columns`` the ring
    column of each target.  Rows and slots keep part order; a slot is a
    ring offset ``delay * ring.width + column`` (``int32``) and a weight.
    A table of one part reads that part's weights in place.
    """

    __slots__ = ("cell_ptr", "cell_rows", "row_ptr", "offsets", "weights",
                 "spans")

    def __init__(self, parts, n_cells: int, ring) -> None:
        # Offsets, and their rotation by up to one ring, fit in int32.
        assert 2 * ring.n_slots * ring.width <= np.iinfo(np.int32).max
        bounds = np.cumsum([0] + [rows.targets.size for rows, _, _ in parts])
        #: The slots of each part.
        self.spans = [slice(first, stop)
                      for first, stop in zip(bounds[:-1], bounds[1:])]
        self.row_ptr = np.concatenate([np.zeros(1, dtype=np.int64)] + [
            rows.row_ptr[1:] + first
            for (rows, _, _), first in zip(parts, bounds)])
        self.offsets = np.empty(bounds[-1], dtype=np.int32)
        for (rows, _, columns), span in zip(parts, self.spans):
            offsets = self.offsets[span]
            offsets[:] = np.asarray(columns, dtype=np.int32)[rows.targets]
            offsets += rows.delay_ticks.astype(np.int32) * ring.width
        weights = [rows.weights for rows, _, _ in parts]
        self.weights = (weights[0] if len(weights) == 1
                        else np.concatenate([np.zeros(0), *weights]))
        # A cell's rows are a run of ``cell_rows``, in part order.
        row_cells = np.concatenate([np.zeros(0, dtype=np.intp)]
                                   + [cells for _, cells, _ in parts])
        self.cell_rows = np.argsort(row_cells, kind="stable")
        self.cell_ptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_cells, minlength=n_cells),
                  out=self.cell_ptr[1:])

    def rows(self, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of ``cells``, cell by cell, and each cell's count."""
        starts = self.cell_ptr[cells]
        counts = self.cell_ptr[cells + 1] - starts
        return self.cell_rows[expand_rows(starts, counts)], counts

    def slots(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The slots of ``rows``, row by row in storage order, and each
        row's length."""
        starts = self.row_ptr[rows]
        lengths = self.row_ptr[rows + 1] - starts
        return expand_rows(starts, lengths), lengths
