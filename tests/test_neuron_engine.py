"""Tests for the CSR connectivity format and its vectorized propagation.

Covers the connector expansion, the vectorized ring-buffer scatter, the
packed SDRAM word codec, the vectorized STDP rule and — most importantly
— the equivalence suite: everything the shipped CSR path computes must
equal the literal object-per-synapse semantics of ``tests/oracles.py``,
on both the host simulator and the on-machine runtime.
"""

from __future__ import annotations

import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import ScalarRing, Synapse, decode_block, decode_packed_row
from repro.cluster import ClusterApplication
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.core.sdram import SDRAM
from repro.mapping.keys import KeySpace
from repro.mapping.placement import Vertex
from repro.mapping.synaptic_matrix import (
    CoreSynapticData,
    pack_blocks,
    write_blocks,
)
from repro.neuron import kernel as kernel_module
from repro.neuron import population as population_module
from repro.neuron.connectors import (
    AllToAllConnector,
    DistanceDependentConnector,
    FixedProbabilityConnector,
    FromListConnector,
    OneToOneConnector,
    assemble_tiles,
)
from repro.neuron.engine import (
    CSRMatrix,
    RowTable,
    pack_synapse_words,
    unpack_synapse_words,
)
from repro.neuron.network import Network, expand_projections
from repro.neuron.population import Population, Projection, SpikeSourcePoisson
from repro.neuron.stdp import STDPMechanism
from repro.neuron.synapse import DeferredEventBuffer
from repro.runtime.application import CoreRuntime, NeuralApplication
from repro.runtime.boot import BootController


def random_pair(rng, n_pre=20, n_post=30, p=0.4):
    """One random expansion twice: oracle object rows and the CSR."""
    connector = FixedProbabilityConnector(
        p_connect=p, weight_range=(-2.0, 3.0), delay_range=(1, 16))
    seed = int(rng.integers(0, 2 ** 31))
    rows = oracles.build_rows(connector, n_pre, n_post,
                              np.random.default_rng(seed))
    csr = connector.build_csr(n_pre, n_post, np.random.default_rng(seed))
    return rows, csr


@st.composite
def csr_blocks(draw):
    """Small random CSR blocks: empty rows, negative weights and weights
    past the 16-bit saturation point included."""
    n_pre = draw(st.integers(min_value=1, max_value=10))
    n_post = draw(st.integers(min_value=1, max_value=40))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=6),
                            min_size=n_pre, max_size=n_pre))
    n = sum(lengths)

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    return CSRMatrix(n_pre, n_post, np.concatenate(([0], np.cumsum(lengths))),
                     column(st.integers(min_value=0, max_value=n_post - 1)),
                     column(st.floats(min_value=-3000.0, max_value=3000.0)),
                     column(st.integers(min_value=1, max_value=16)))


def packed(csr):
    """``csr`` packed as one block and its leg, every row in storage
    order."""
    (block,), (leg,) = pack_blocks([csr.n_pre], [csr.n_post],
                                   [csr.n_synapses], csr.pre_index,
                                   csr.targets, csr.weights, csr.delay_ticks)
    return block, leg


def install_block(csr):
    """Pack ``csr`` into a fresh SDRAM as the synaptic-matrix pass does.

    Returns ``(chip, core data, population-table entry)``; the chip is a
    bare SDRAM holder, all the codec touches."""
    chip = SimpleNamespace(sdram=SDRAM())
    data = CoreSynapticData(vertex=Vertex("post", 0, csr.n_post, 0))
    write_blocks(chip, [(data, KeySpace(base_key=0x800),
                         Vertex("pre", 0, csr.n_pre, 0), *packed(csr))])
    (entry,) = data.population_table.entries
    return chip, data, entry


def assert_csr_equals_rows(csr, rows):
    row_ptr, targets, weights, delays = oracles.flatten_rows(rows, csr.n_pre)
    assert np.array_equal(csr.row_ptr, row_ptr)
    assert np.array_equal(csr.targets, targets)
    assert np.array_equal(csr.weights, weights)
    assert np.array_equal(csr.delay_ticks, delays)


#: Every connector, fixed and ranged weights/delays, self-connections
#: allowed and not.
CONNECTORS = {
    "one-to-one": OneToOneConnector(weight=2.0, delay_ticks=3),
    "one-to-one-clipped": OneToOneConnector(weight=-0.5, delay_ticks=40),
    "all-to-all": AllToAllConnector(weight=0.25, delay_ticks=2),
    "all-to-all-no-self": AllToAllConnector(weight=0.25,
                                            allow_self_connections=False),
    "fixed-p": FixedProbabilityConnector(0.3, weight=0.7, delay_ticks=5),
    "fixed-p-no-self": FixedProbabilityConnector(
        0.3, weight=0.7, allow_self_connections=False),
    "fixed-p-weights": FixedProbabilityConnector(
        0.3, weight_range=(-1.0, 2.0)),
    "fixed-p-delays": FixedProbabilityConnector(
        0.3, weight=0.1, delay_range=(1, 16)),
    "fixed-p-delays-clipped": FixedProbabilityConnector(
        0.3, weight=0.1, delay_range=(0, 20)),
    "fixed-p-both": FixedProbabilityConnector(
        0.3, weight_range=(0.1, 0.5), delay_range=(2, 9)),
    "fixed-p-both-no-self": FixedProbabilityConnector(
        0.3, weight_range=(0.1, 0.5), delay_range=(2, 9),
        allow_self_connections=False),
    "fixed-p-empty": FixedProbabilityConnector(
        0.0, weight_range=(0.1, 0.5), delay_range=(2, 9)),
    "distance": DistanceDependentConnector(
        pre_shape=(6, 6), post_shape=(6, 7), sigma=1.5, max_distance=3.0,
        p_peak=0.8, delay_per_unit_distance_ticks=2.5),
    "from-list": FromListConnector(
        [(3, 1, 0.5, 2), (17, 0, -0.25, 9), (3, 4, 1.5, 30), (0, 2, 2.0, 1),
         (17, 5, 0.125, 0)]),
    "from-list-empty": FromListConnector([]),
}


class TestConnectorOracle:
    """``build_csr`` fills arrays; the oracle builds one object per
    synapse.  Same synapses, same order, same generator stream."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(30, 36), (36, 30)])
    @pytest.mark.parametrize("name", sorted(CONNECTORS))
    def test_build_csr_equals_object_expansion(self, name, shape, seed):
        connector = CONNECTORS[name]
        n_pre, n_post = shape
        oracle_rng = np.random.default_rng(seed)
        shipped_rng = np.random.default_rng(seed)
        rows = oracles.build_rows(connector, n_pre, n_post, oracle_rng)
        csr = connector.build_csr(n_pre, n_post, shipped_rng)
        assert (csr.n_pre, csr.n_post) == shape
        assert_csr_equals_rows(csr, rows)
        # The generator is left in the same state: next draw equal.
        assert oracle_rng.random() == shipped_rng.random()
        assert oracle_rng.integers(0, 1 << 30) == \
            shipped_rng.integers(0, 1 << 30)

    @settings(max_examples=60, deadline=None)
    @given(n_pre=st.integers(1, 40), n_post=st.integers(1, 40),
           p_connect=st.sampled_from([0.0, 1e-20, 0.05, 0.3, 0.7, 1.0]),
           weight_range=st.sampled_from([None, (-1.0, 2.0)]),
           delay_range=st.sampled_from([(1, 16), (0, 20), (3, 3)]),
           allow_self=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_fixed_probability_row_loop_equals_oracle(
            self, n_pre, n_post, p_connect, weight_range, delay_range,
            allow_self, seed):
        # The shipped tiles draw gaps in chunks (capped for tiny p) and
        # parameters in blocks; the synapses and the projection
        # generator's position must not notice.
        connector = FixedProbabilityConnector(
            p_connect, weight=0.4, weight_range=weight_range,
            delay_range=delay_range, allow_self_connections=allow_self)
        oracle_rng = np.random.default_rng(seed)
        shipped_rng = np.random.default_rng(seed)
        rows = oracles._fixed_probability(connector, n_pre, n_post,
                                          oracle_rng)
        assert_csr_equals_rows(
            connector.build_csr(n_pre, n_post, shipped_rng), rows)
        assert oracle_rng.random() == shipped_rng.random()

    @pytest.mark.parametrize("shape", [(257, 513), (600, 530), (1, 300),
                                       (300, 1)])
    @pytest.mark.parametrize("allow_self", [True, False])
    def test_fixed_probability_tiles_equal_oracle(self, shape, allow_self):
        # Several tiles, edge tiles narrower or shorter than TILE, and
        # off-square diagonal tiles (600 x 530 ends in an 88 x 18 tile).
        connector = FixedProbabilityConnector(
            0.02, weight_range=(-1.0, 2.0), delay_range=(1, 16),
            allow_self_connections=allow_self)
        oracle_rng = np.random.default_rng(7)
        shipped_rng = np.random.default_rng(7)
        rows = oracles.build_rows(connector, *shape, oracle_rng)
        assert_csr_equals_rows(connector.build_csr(*shape, shipped_rng),
                               rows)
        assert oracle_rng.random() == shipped_rng.random()

    def test_matrix_has_synapses_to_compare(self):
        for name, connector in CONNECTORS.items():
            csr = connector.build_csr(30, 36, np.random.default_rng(1))
            assert (csr.n_synapses > 0) == (not name.endswith("empty")), name


def chi_square_bound(dof: int) -> float:
    """The 0.999 quantile of chi-square with ``dof`` degrees of freedom
    (Wilson-Hilferty): a fit worse than this at a fixed seed is not
    chance."""
    scale = 2.0 / (9.0 * dof)
    return dof * (1.0 - scale + 3.09 * np.sqrt(scale)) ** 3


def chi_square(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson's statistic, adjacent bins pooled until each expects at
    least five; returns ``statistic / chi_square_bound(dof)``."""
    pooled_obs, pooled_exp, obs, exp = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            pooled_obs.append(obs)
            pooled_exp.append(exp)
            obs = exp = 0.0
    pooled_obs[-1] += obs
    pooled_exp[-1] += exp
    o, e = np.array(pooled_obs), np.array(pooled_exp)
    return float(((o - e) ** 2 / e).sum()) / chi_square_bound(o.size - 1)


def binomial_fit(counts: np.ndarray, n: int, p: float) -> float:
    """``chi_square`` of ``counts`` against Binomial(n, p)."""
    k = np.arange(n + 1)
    log_pmf = np.array([math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1) for i in k]) \
        + k * math.log(p) + (n - k) * math.log1p(-p)
    return chi_square(np.bincount(counts, minlength=n + 1),
                      counts.size * np.exp(log_pmf))


class TestKeyedStream:
    """The keyed tile stream is judged by its distributions: the same
    degree sequence can mean different dynamics, so a stream change is
    checked against the laws it must follow, not only its digest."""

    N_PRE, N_POST, P = 2000, 700, 0.05

    @pytest.fixture(scope="class")
    def csr(self):
        connector = FixedProbabilityConnector(
            self.P, weight_range=(-1.0, 2.0), delay_range=(1, 16))
        return connector.build_csr(self.N_PRE, self.N_POST,
                                   np.random.default_rng(2024))

    def test_row_counts_are_binomial(self, csr):
        assert binomial_fit(csr.row_lengths(), self.N_POST, self.P) < 1.0

    def test_column_counts_are_binomial(self, csr):
        in_degree = np.bincount(csr.targets, minlength=self.N_POST)
        assert binomial_fit(in_degree, self.N_PRE, self.P) < 1.0

    def test_rows_sorted_and_unique(self, csr):
        keys = csr.pre_index * self.N_POST + csr.targets
        assert np.all(np.diff(keys) > 0)

    def test_delay_histogram_is_flat(self, csr):
        observed = np.bincount(csr.delay_ticks, minlength=17)[1:]
        assert observed.sum() == csr.n_synapses
        assert chi_square(observed, np.full(16, csr.n_synapses / 16)) < 1.0

    def test_weights_are_uniform(self, csr):
        assert csr.weights.min() >= -1.0 and csr.weights.max() < 2.0
        observed, _ = np.histogram(csr.weights, bins=30, range=(-1.0, 2.0))
        assert chi_square(observed, np.full(30, csr.n_synapses / 30)) < 1.0

    @pytest.mark.parametrize("shape", [(600, 600), (600, 530), (530, 600)])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_no_self_connections(self, shape, p):
        csr = FixedProbabilityConnector(
            p, allow_self_connections=False).build_csr(
                *shape, np.random.default_rng(3))
        assert not np.any(csr.pre_index == csr.targets)
        if p == 1.0:
            assert csr.n_synapses == shape[0] * shape[1] - min(shape)

    def test_zero_probability_draws_nothing(self, monkeypatch):
        def no_tile_streams(*args):
            raise AssertionError("p = 0 must draw nothing")

        monkeypatch.setattr(population_module, "tile_rng", no_tile_streams)
        csr = FixedProbabilityConnector(
            0.0, weight_range=(0.1, 0.2), delay_range=(1, 4)).build_csr(
                300, 520, np.random.default_rng(1))
        assert csr.n_synapses == 0
        assert np.array_equal(csr.row_ptr, np.zeros(301))

    def test_full_probability_keeps_every_cell(self):
        csr = FixedProbabilityConnector(1.0, delay_range=(1, 4)).build_csr(
            300, 520, np.random.default_rng(1))
        assert np.array_equal(csr.row_lengths(), np.full(300, 520))
        assert np.array_equal(csr.targets, np.tile(np.arange(520), 300))

    @pytest.mark.parametrize("shape", [(1, 1), (255, 257), (513, 256),
                                       (1000, 3)])
    def test_sizes_off_the_tile_grid(self, shape):
        csr = FixedProbabilityConnector(0.3).build_csr(
            *shape, np.random.default_rng(5))
        assert (csr.n_pre, csr.n_post) == shape
        assert csr.row_ptr.shape == (shape[0] + 1,)
        assert csr.targets.max(initial=0) < shape[1]
        if shape[0] * shape[1] > 1000:
            expected = shape[0] * shape[1] * 0.3
            assert abs(csr.n_synapses - expected) < 5 * math.sqrt(expected)

    def test_tile_order_does_not_matter(self):
        connector = FixedProbabilityConnector(
            0.1, weight_range=(0.0, 1.0), delay_range=(1, 9),
            allow_self_connections=False)
        n_pre, n_post, root_key = 600, 530, (1, 2, 3, 4)
        tiles = [connector.expand_tile(root_key, src, tgt, n_pre, n_post)
                 for src in range(3) for tgt in range(3)]
        in_order = assemble_tiles(n_pre, n_post, tiles)
        np.random.default_rng(0).shuffle(tiles)
        shuffled = assemble_tiles(n_pre, n_post, tiles)
        for name in ("row_ptr", "targets", "weights", "delay_ticks"):
            assert np.array_equal(getattr(in_order, name),
                                  getattr(shuffled, name)), name
        # And a tile is a pure function of its key: built alone, late,
        # it equals the one built in sequence.
        again = connector.expand_tile(root_key, 2, 1, n_pre, n_post)
        (same,) = [tile for tile in tiles if tile[:2] == (2, 1)]
        for ours, theirs in zip(again[2:], same[2:]):
            assert np.array_equal(ours, theirs)


class TestCSRMatrix:
    def test_row_ptr_matches_row_lengths(self, rng):
        rows, csr = random_pair(rng)
        assert csr.n_synapses == sum(len(r) for r in rows.values())
        assert np.array_equal(csr.row_lengths(),
                              [len(rows.get(i, ())) for i in range(20)])

    def test_handles_sparse_row_keys(self, rng):
        csr = FromListConnector([(3, 1, 0.5, 2), (17, 0, -0.25, 9)]
                                ).build_csr(20, 4, rng)
        assert csr.n_synapses == 2
        assert csr.max_delay() == 9
        assert list(csr.pre_index) == [3, 17]

    def test_rejects_targets_outside_the_post_population(self):
        with pytest.raises(ValueError):
            CSRMatrix(20, 4, np.array([0] + [1] * 20), np.array([9]),
                      np.array([1.0]), np.array([1]))

    def test_synapse_slots_preserve_reference_order(self, rng):
        rows, csr = random_pair(rng)
        spiking = np.array([2, 7, 13])
        slots = csr.synapse_slots(spiking)
        expected_targets = [s.target for pre in spiking
                            for s in rows.get(int(pre), ())]
        assert list(csr.targets[slots]) == expected_targets

    def test_submatrix_matches_manual_filter(self, rng):
        rows, csr = random_pair(rng, n_pre=24, n_post=32)
        block = oracles.submatrix(csr, 8, 16, 10, 25)
        expected = {}
        for pre in range(8, 16):
            expected[pre - 8] = [Synapse(s.target - 10, s.weight, s.delay_ticks)
                                 for s in rows.get(pre, ())
                                 if 10 <= s.target < 25]
        assert oracles.csr_rows(block) == expected


class TestRowTable:
    """Propagation's one table, checked against each part expanded on
    its own: rows through ``CSRMatrix.synapse_slots``, ring offsets as
    ``columns[targets] + delay * width``."""

    N_CELLS = 6

    @staticmethod
    def parts(rng):
        """Two parts: cell 2 has rows in both, part 0's row 1 (cell 1)
        is empty, and cells 3 and 5 have none."""
        first = CSRMatrix(3, 4, np.array([0, 3, 3, 5]),
                          np.array([2, 0, 3, 1, 1]),
                          rng.normal(size=5), np.array([1, 4, 2, 16, 3]))
        second = CSRMatrix(2, 3, np.array([0, 2, 5]),
                           np.array([1, 0, 2, 2, 0]),
                           rng.normal(size=5), np.array([5, 1, 7, 1, 2]))
        return [(first, np.array([0, 1, 2]), np.array([10, 11, 12, 13])),
                (second, np.array([4, 2]), np.array([20, 21, 22]))]

    @staticmethod
    def literal(parts, picked, width):
        """Offsets and weights of ``(part, row)`` pairs, in that order."""
        offsets, weights = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for part, row in picked:
            csr, _cells, columns = parts[part]
            slots = csr.synapse_slots(np.array([row]))
            offsets.append(columns[csr.targets[slots]]
                           + csr.delay_ticks[slots] * width)
            weights.append(csr.weights[slots])
        return np.concatenate(offsets), np.concatenate(weights)

    def test_rows_and_slots_equal_the_per_part_expansion(self, rng):
        parts = self.parts(rng)
        ring = DeferredEventBuffer(30, 16)
        table = RowTable(parts, self.N_CELLS, ring)
        assert table.offsets.dtype == np.int32
        first_row = [0, parts[0][0].n_pre]
        for cells in ([2], [3, 5], [4, 2, 0, 3, 1, 5], [1, 2, 2]):
            cells = np.array(cells)
            # Cell by cell; a cell's rows in part order, then row order.
            picked = [(part, int(row))
                      for cell in cells for part, (_csr, row_cells, _columns)
                      in enumerate(parts)
                      for row in np.flatnonzero(row_cells == cell)]
            rows, counts = table.rows(cells)
            assert rows.tolist() == [first_row[part] + row
                                     for part, row in picked]
            assert counts.tolist() == [
                sum(int((row_cells == cell).sum())
                    for _csr, row_cells, _columns in parts)
                for cell in cells]
            slots, lengths = table.slots(rows)
            assert lengths.tolist() == [
                int(np.diff(parts[part][0].row_ptr)[row])
                for part, row in picked]
            offsets, weights = self.literal(parts, picked, ring.width)
            assert table.offsets[slots].tolist() == offsets.tolist()
            assert table.weights[slots].tolist() == weights.tolist()

    def test_sorted_rows_give_per_part_storage_order(self, rng):
        """The host's element order: part by part, rows ascending within
        a part, each row's slots in storage order."""
        parts = self.parts(rng)
        ring = DeferredEventBuffer(30, 16)
        table = RowTable(parts, self.N_CELLS, ring)
        fired = np.array([4, 2, 1, 0])
        rows, _counts = table.rows(fired)
        slots, _lengths = table.slots(np.sort(rows))
        picked = [(part, int(row)) for part, (_csr, row_cells, _columns)
                  in enumerate(parts)
                  for row in np.flatnonzero(np.isin(row_cells, fired))]
        offsets, weights = self.literal(parts, picked, ring.width)
        assert table.offsets[slots].tolist() == offsets.tolist()
        assert table.weights[slots].tolist() == weights.tolist()
        assert [table.spans[part] for part in range(2)] == [slice(0, 5),
                                                            slice(5, 10)]

    def test_one_part_reads_its_weights_in_place(self, rng):
        parts = self.parts(rng)[:1]
        table = RowTable(parts, self.N_CELLS, DeferredEventBuffer(30, 16))
        assert table.weights is parts[0][0].weights

    def test_over_wide_ring_trips_the_int32_bound(self, rng):
        # Only the ring's shape is read: no ring that wide is allocated.
        width = np.iinfo(np.int32).max // (2 * 17) + 1
        with pytest.raises(AssertionError):
            RowTable(self.parts(rng), self.N_CELLS,
                     SimpleNamespace(width=width, n_slots=17))
        RowTable(self.parts(rng), self.N_CELLS,
                 SimpleNamespace(width=width - 1, n_slots=17))


class TestPackedWordCodec:
    def test_pack_words_match_synapse_pack(self, rng):
        rows, csr = random_pair(rng, n_pre=10, n_post=50)
        words = pack_synapse_words(csr.targets, csr.weights, csr.delay_ticks)
        expected = [s.pack() for pre in range(10)
                    for s in rows.get(pre, ())]
        assert [int(w) for w in words] == expected

    def test_unpack_words_match_synapse_unpack(self, rng):
        synapses = [Synapse(i * 7 % 100, w, d)
                    for i, (w, d) in enumerate(zip(
                        np.linspace(-120.0, 120.0, 40), range(1, 17)))]
        words = [s.pack() for s in synapses]
        targets, weights, delays = unpack_synapse_words(words)
        for i, word in enumerate(words):
            reference = Synapse.unpack(word)
            assert targets[i] == reference.target
            assert weights[i] == reference.weight
            assert delays[i] == reference.delay_ticks

    def test_pack_rejects_oversized_target(self):
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([5000]), np.array([1.0]),
                               np.array([1]))

    def test_pack_rejects_negative_target(self):
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([-1]), np.array([1.0]), np.array([1]))

    def test_add_events_invalid_batch_leaves_buffer_untouched(self):
        buffer = DeferredEventBuffer(8)
        with pytest.raises(ValueError):
            buffer.add_events(np.array([8, 9, buffer.n_slots * 8]),
                              np.ones(3))
        assert buffer.pending_charge() == 0.0
        assert buffer.events_deferred == 0

    def test_pack_rejects_out_of_range_delays(self):
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([0]), np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([0]), np.array([1.0]), np.array([17]))

    def test_csr_matrix_rejects_out_of_range_delays(self):
        with pytest.raises(ValueError):
            CSRMatrix(1, 4, np.array([0, 1]), np.array([0]),
                      np.array([1.0]), np.array([0]))

    def test_pack_block_rows_match_synaptic_row_pack(self, rng):
        rows, csr = random_pair(rng, n_pre=8, n_post=12)
        packed_rows, _leg = packed(csr)
        literal = [oracles.pack_row(rows.get(pre, ())) for pre in range(8)]
        stride = max(len(words) for words in literal)
        assert (packed_rows.shape == (8, stride)
                and packed_rows.dtype == np.uint32)
        assert np.array_equal(packed_rows, oracles.pack_csr_block(csr))
        for pre, words in enumerate(literal):
            assert packed_rows[pre].tolist() == (
                words + [0] * (stride - len(words)))

    def test_decode_packed_row_matches_row_unpack(self, rng):
        rows, csr = random_pair(rng, n_pre=8, n_post=12)
        for row in packed(csr)[0]:
            padded = row.tolist() + [0, 0, 0]    # more SDRAM stride padding
            count, targets, weights, delays = decode_packed_row(padded)
            literal = oracles.unpack_row(padded)
            assert count == len(literal)
            assert [Synapse(int(t), float(w), int(d)) for t, w, d
                    in zip(targets, weights, delays)] == literal

    def test_block_round_trip_through_sdram(self, rng):
        _rows, csr = random_pair(rng, n_pre=8, n_post=12)
        chip, _data, entry = install_block(csr)
        recovered = decode_block(chip, entry, 12)
        assert np.array_equal(recovered.row_ptr, csr.row_ptr)
        assert np.array_equal(recovered.targets, csr.targets)
        assert np.array_equal(recovered.delay_ticks, csr.delay_ticks)
        # Weights go through fixed-point quantisation.
        assert np.all(np.abs(recovered.weights - csr.weights) <= 1.0 / 16 + 1e-9)

    @given(csr_blocks())
    @settings(max_examples=100, deadline=None)
    def test_block_codec_equals_the_word_codec(self, csr):
        # decode(write(pack(csr))) is the quantised word round trip,
        # array for array; decoding peeks, so it charges no traffic.  The
        # leg the write decoded from the array is that same matrix.
        chip, data, entry = install_block(csr)
        decoded = decode_block(chip, entry, csr.n_post)
        targets, weights, delays = unpack_synapse_words(pack_synapse_words(
            csr.targets, csr.weights, csr.delay_ticks))
        for matrix in (decoded, data.legs[entry.key]):
            assert np.array_equal(matrix.row_ptr, csr.row_ptr)
            assert np.array_equal(matrix.targets, targets)
            assert np.array_equal(matrix.weights, weights)
            assert np.array_equal(matrix.delay_ticks, delays)
        stride = 1 + int(csr.row_lengths().max())
        assert (entry.n_rows, entry.row_stride_words) == (csr.n_pre, stride)
        assert data.total_synapses == csr.n_synapses
        assert data.total_sdram_words == csr.n_pre * stride
        assert chip.sdram.total_bytes_written == 4 * csr.n_pre * stride
        assert chip.sdram.total_bytes_read == 0

    def test_all_empty_block_has_stride_one(self):
        csr = CSRMatrix(3, 4, np.zeros(4), np.empty(0), np.empty(0),
                        np.empty(0))
        chip, data, entry = install_block(csr)
        assert entry.row_stride_words == 1
        assert data.total_sdram_words == 3
        assert decode_block(chip, entry, 4).n_synapses == 0

    def test_decode_block_rejects_an_overlong_header_like_the_row_decoder(self):
        csr = CSRMatrix(2, 4, np.array([0, 1, 2]), np.array([0, 3]),
                        np.array([1.0, -1.0]), np.array([1, 2]))
        chip, _data, entry = install_block(csr)
        row_address, stride = entry.address_of(entry.key | 1)
        chip.sdram.write_word(row_address, stride)    # claims one too many
        with pytest.raises(ValueError) as block_error:
            decode_block(chip, entry, 4)
        with pytest.raises(ValueError) as row_error:
            decode_packed_row(chip.sdram.read_block(row_address, stride))
        assert str(block_error.value) == str(row_error.value)

    def test_decode_packed_row_validation(self):
        for decode in (decode_packed_row, oracles.unpack_row):
            with pytest.raises(ValueError):
                decode([])
            with pytest.raises(ValueError):
                decode([5, 0])


class TestVectorizedBufferScatter:
    def test_add_events_equals_scalar_adds(self, rng):
        """A float batch wider than the ring, landing where its rows wrap
        past the ring's end, matches the scalar ring bit for bit through
        ``add_events`` (element order); the same offsets with fixed-point
        weights match through ``add_fixed_point`` (pre-summed); an
        out-of-ring offset raises and leaves the ring untouched."""
        width = 10
        targets = rng.integers(0, width, size=200)
        delays = rng.integers(1, 17, size=200)
        offsets = delays * width + targets
        floats = rng.uniform(-2.0, 2.0, size=200)
        fixed = rng.integers(-32, 33, size=200) / 16.0
        for weights, add in ((floats, DeferredEventBuffer.add_events),
                             (fixed, DeferredEventBuffer.add_fixed_point)):
            vector = DeferredEventBuffer(width)
            scalar = ScalarRing(width)
            for _ in range(9):
                vector.drain()
                scalar.drain()
            add(vector, offsets, weights)
            for t, w, d in zip(targets, weights, delays):
                scalar.add_input(int(t), float(w), int(d))
            assert np.array_equal(vector._buffer, scalar.buffer)
            for _ in range(17):
                assert np.array_equal(vector.drain(), scalar.drain())
            assert vector.events_deferred == scalar.events_deferred == 200
            for bad in (-1, vector.n_slots * width):
                with pytest.raises(ValueError):
                    add(vector, np.append(offsets, bad), np.append(fixed, 1))
            assert vector.pending_charge() == 0.0
            assert vector.events_deferred == 200

    def test_add_events_validation(self):
        """The validator admits exactly the ring's offsets, 0 (delay 0,
        the row that drains next) through ``n_slots * width - 1`` (the
        longest delay, last column), under either add rule; one offset
        outside rejects its whole batch."""
        for add in (DeferredEventBuffer.add_events,
                    DeferredEventBuffer.add_fixed_point):
            buffer = DeferredEventBuffer(4)
            last = buffer.n_slots * 4 - 1
            for bad in (-1, last + 1):
                with pytest.raises(ValueError, match="delays outside"):
                    add(buffer, np.array([0, 5, last, bad]), np.ones(4))
            assert buffer.events_deferred == 0
            assert buffer.pending_charge() == 0.0
            add(buffer, np.array([0, last]), np.array([1.0, 2.0]))
            assert buffer.events_deferred == 2
            assert buffer.drain().tolist() == [1.0, 0.0, 0.0, 0.0]
            for _ in range(buffer.max_delay_ticks - 1):
                assert not buffer.drain().any()
            assert buffer.drain().tolist() == [0.0, 0.0, 0.0, 2.0]

    def test_add_events_result_independent_of_batch_size(self):
        """Consecutive parts of a batch keep its element order, so float
        charge lands bit for bit the same whatever the batch size, and
        fixed-point charge lands the same on both sides of
        ``add_fixed_point``'s switch from scattering to pre-summing (a
        batch with at least half as many events as cells in the rows it
        spans).  A cell whose sum passes the weight range mid-batch is
        clamped once, on the sum, either way."""
        from repro.neuron.synapse import WEIGHT_SATURATION_NA

        width, n_events = 8, 24
        rng = np.random.default_rng(12)
        offsets = (rng.integers(1, 4, size=n_events) * width
                   + rng.integers(0, width, size=n_events))
        floats = rng.uniform(-2.0, 2.0, size=n_events)
        offsets[:6] = width                       # delay 1, column 0
        floats[:6] = 2.0 * WEIGHT_SATURATION_NA / 3.0
        floats[5] = -1.0
        fixed = np.round(floats * 16.0) / 16.0

        def fill(add, weights, batch):
            ring = DeferredEventBuffer(width)
            for first in range(0, n_events, batch):
                add(ring, offsets[first:first + batch],
                    weights[first:first + batch])
            return [ring.drain().tolist() for _ in range(4)], ring.saturations

        rows, saturations = fill(DeferredEventBuffer.add_events, floats,
                                 n_events)
        assert rows[1][0] == WEIGHT_SATURATION_NA
        assert saturations == 1
        for batch in (1, 5, width - 1, width, n_events):
            assert fill(DeferredEventBuffer.add_events, floats,
                        batch) == (rows, saturations), batch
        presummed = fill(DeferredEventBuffer.add_events, fixed, n_events)
        for batch in (1, width - 1, width, n_events // 2, n_events):
            assert fill(DeferredEventBuffer.add_fixed_point, fixed,
                        batch) == presummed, batch

    def test_saturation_independent_of_batching_and_width(self):
        # The clamp runs per drained cell on the exact charge sum, so the
        # same 64 events over two slot rows land the same cells and
        # saturation count whether they arrive one call each, in batches
        # of 8 or as one batch, and however many units share the ring.
        from repro.neuron.synapse import WEIGHT_SATURATION_NA

        def fill(n_neurons, batch):
            buffer = DeferredEventBuffer(n_neurons)
            n_events = 64
            targets = np.arange(n_events) % 4
            # Cell 0 saturates positive, cell 1 negative, cell 2 crosses
            # the limit mid-tick and comes back, cell 3 stays small.
            weights = np.choose(targets, [WEIGHT_SATURATION_NA / 4.0,
                                          -WEIGHT_SATURATION_NA / 4.0,
                                          0.0, 0.5])
            weights[2] = 1.5 * WEIGHT_SATURATION_NA
            weights[6] = -WEIGHT_SATURATION_NA
            delays = 1 + (np.arange(n_events) // 8) % 2
            for first in range(0, n_events, batch):
                part = slice(first, first + batch)
                buffer.add_events(delays[part] * n_neurons + targets[part],
                                  weights[part])
            buffer.drain()
            rows = [buffer.drain()[:4].tolist() for _ in range(2)]
            return rows, buffer.saturations

        rows, saturations = fill(4, 64)
        assert saturations == 4
        assert rows[0][:2] == [WEIGHT_SATURATION_NA, -WEIGHT_SATURATION_NA]
        assert rows[0][2] == 0.5 * WEIGHT_SATURATION_NA
        for n_neurons in (4, 128, 1000):
            for batch in (1, 8, 64):
                assert fill(n_neurons, batch) == (rows, saturations), (
                    n_neurons, batch)

    def test_scatter_equals_object_loop(self, rng):
        rows, csr = random_pair(rng, n_pre=30, n_post=25)
        spiking = np.flatnonzero(rng.random(30) < 0.5)
        vector = DeferredEventBuffer(25)
        scalar = ScalarRing(25)
        slots = csr.synapse_slots(spiking)
        vector.add_events(csr.delay_ticks[slots] * 25 + csr.targets[slots],
                          csr.weights[slots])
        for pre in spiking:
            for synapse in rows.get(int(pre), ()):
                scalar.add_synapse(synapse)
        assert slots.size == scalar.events_deferred
        for _ in range(17):
            assert np.array_equal(vector.drain(), scalar.drain())


class TestHostEquivalence:
    """``Network.run`` must replay ``oracles.reference_run`` exactly."""

    @staticmethod
    def build_network(plastic=None):
        """Four static projections, a parallel pair onto ``exc`` with
        non-dyadic weights (its float sums depend on delivery order) and
        one ``stim -> exc`` projection, learning when ``plastic`` says
        where: ``"first"`` in network order, or ``"between"`` the pair."""
        network = Network(seed=7)
        stimulus = SpikeSourcePoisson(60, rate_hz=90.0, label="stim")
        excitatory = Population(120, "lif", label="exc")
        inhibitory = Population(40, "izhikevich", label="inh")
        excitatory.record(spikes=True, voltages=True)
        inhibitory.record(spikes=True)

        def learning():
            network.connect(stimulus, excitatory,
                            FixedProbabilityConnector(0.25, weight=1.2,
                                                      delay_range=(1, 8)),
                            plasticity=(STDPMechanism(60, 120) if plastic
                                        else None))

        def parallel(weight):
            network.connect(stimulus, excitatory,
                            FixedProbabilityConnector(0.2, weight=weight,
                                                      delay_range=(1, 3)))

        if plastic != "between":
            learning()
        network.connect(excitatory, inhibitory,
                        FixedProbabilityConnector(0.2, weight=0.8,
                                                  delay_range=(1, 4)))
        network.connect(inhibitory, excitatory,
                        FixedProbabilityConnector(0.3, weight=-0.9))
        network.connect(excitatory, excitatory,
                        FixedProbabilityConnector(0.05, weight=0.3,
                                                  weight_range=(0.1, 0.5)))
        parallel(0.1)
        if plastic == "between":
            learning()
        parallel(0.7)
        return network

    def test_spike_trains_identical(self):
        reference, _rows = oracles.reference_run(self.build_network(), 250.0)
        fast = self.build_network().run(250.0)
        assert reference.total_spikes() > 0
        assert reference.spikes == fast.spikes
        for label in reference.spike_counts:
            assert np.array_equal(reference.spike_counts[label],
                                  fast.spike_counts[label])

    def test_membrane_voltages_bit_identical(self):
        reference, _rows = oracles.reference_run(self.build_network(), 150.0)
        fast = self.build_network().run(150.0)
        assert np.array_equal(reference.voltages["exc"],
                              fast.voltages["exc"])

    @pytest.mark.parametrize("plastic", ["first", "between"])
    def test_stdp_learning_identical(self, plastic):
        """Spikes, voltages, learned weights and STDP counters, wherever
        the learning projection sits among the static ones."""
        reference_network = self.build_network(plastic)
        reference, rows = oracles.reference_run(reference_network, 250.0)
        network = self.build_network(plastic)
        fast = network.run(250.0)
        assert reference.spikes == fast.spikes
        assert np.array_equal(reference.voltages["exc"],
                              fast.voltages["exc"])

        index = next(i for i, projection in enumerate(network.projections)
                     if projection.plasticity is not None)
        ref_weights = [s.weight for pre in sorted(rows[index])
                       for s in rows[index][pre]]
        ref_mech = reference_network.projections[index].plasticity
        _index, plastic_projection, csr = expand_projections(
            network, network.seed)[index]
        csr_mech = plastic_projection.plasticity

        assert any(abs(w - 1.2) > 1e-9 for w in ref_weights)
        assert ref_weights == list(csr.weights)
        assert ref_mech.potentiation_events == csr_mech.potentiation_events
        assert ref_mech.depression_events == csr_mech.depression_events
        assert ref_mech.rows_modified == csr_mech.rows_modified


class TestUpdateCSREquivalence:
    def test_update_csr_matches_object_rule(self, rng):
        rows_ref, csr = random_pair(rng, n_pre=15, n_post=15, p=0.6)
        reference = STDPMechanism(15, 15)
        vectorized = STDPMechanism(15, 15)
        spike_rng = np.random.default_rng(3)
        for tick in range(60):
            pre = spike_rng.random(15) < 0.2
            post = spike_rng.random(15) < 0.2
            oracles.stdp_update(reference, rows_ref, pre, post)
            vectorized.update_csr(csr, pre, post, float(tick))
        flattened = [s.weight for i in range(15)
                     for s in rows_ref.get(i, ())]
        assert flattened == list(csr.weights)
        assert reference.potentiation_events == vectorized.potentiation_events
        assert reference.depression_events == vectorized.depression_events
        assert reference.rows_modified == vectorized.rows_modified


def _literal_dma_complete(self, request):
    """Figure 7's DMA-complete handler, one ``Synapse`` at a time: the
    literal semantics ``CoreRuntime._on_dma_complete`` is pinned to,
    decoding the words the DMA fetched rather than reading the leg."""
    packet, _entry = request.context
    row = oracles.unpack_row(request.data)
    self.core.charge_cycles(
        self.core.costs.dma_complete_cycles_per_word * len(row))
    for synapse in row:
        self.tick_kernel.ring.add_synapse(synapse)
    result = self.application.result
    result.synaptic_events += len(row)
    result.delivered_charge_na += sum(s.weight for s in row)
    distance = None
    if packet.source is not None:
        distance = self.application.machine.geometry.distance(
            packet.source, self.chip_coordinate)
    result.record_delivery(self.application.kernel.now - packet.timestamp,
                           distance)


class TestOnMachineEquivalence:
    @staticmethod
    def run_application():
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        network = Network(seed=21)
        stimulus = SpikeSourcePoisson(40, rate_hz=80.0, label="stim")
        target = Population(80, "lif", label="tgt")
        target.record(spikes=True)
        network.connect(stimulus, target,
                        FixedProbabilityConnector(0.3, weight=1.5,
                                                  delay_range=(1, 6)))
        network.connect(target, target,
                        FixedProbabilityConnector(0.05, weight=0.4))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=16, seed=21)
        return application.run(120.0)

    def test_on_machine_identical_to_literal_row_processing(self,
                                                            monkeypatch):
        fast = self.run_application()
        # Same run with every core on the per-event ring and the
        # per-synapse row handler.
        monkeypatch.setattr(kernel_module, "DeferredEventBuffer", ScalarRing)
        monkeypatch.setattr(CoreRuntime, "_on_dma_complete",
                            _literal_dma_complete)
        reference = self.run_application()
        assert reference.total_spikes() > 0
        assert reference.spikes == fast.spikes
        assert reference.packets_sent == fast.packets_sent
        assert reference.synaptic_events == fast.synaptic_events
        assert reference.delivered_charge_na == fast.delivered_charge_na
        for label in reference.spike_counts:
            assert np.array_equal(reference.spike_counts[label],
                                  fast.spike_counts[label])


class TestRemovedOptions:
    """One execution path per layer: the mode switches are gone, not
    defaulted — passing one is a ``TypeError``."""

    def test_propagation_is_not_an_option(self):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        with pytest.raises(TypeError):
            Network(seed=1).run(10.0, propagation="csr")
        with pytest.raises(TypeError):
            NeuralApplication(machine, Network(seed=1), propagation="csr")
        assert "propagation" not in inspect.signature(
            CoreRuntime.__init__).parameters

    def test_engine_is_not_an_option(self):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        with pytest.raises(TypeError):
            ClusterApplication(machine, Network(seed=1), engine="fused")
        cluster = ClusterApplication(machine, Network(seed=1))
        with pytest.raises(TypeError):
            cluster.run(10.0, engine="fused")

    def test_expansion_has_one_form(self):
        network = Network(seed=1)
        with pytest.raises(TypeError):
            expand_projections(network, 1, compile_csr=True)
        parameters = inspect.signature(Projection.compile_csr).parameters
        assert list(parameters) == ["self", "seed", "index"]
        assert all(parameter.default is inspect.Parameter.empty
                   for parameter in parameters.values())


class TestSeedKeyedExpansionCache:
    """Regression tests for the cross-seed cache-poisoning bug."""

    @staticmethod
    def build_projection():
        pre = Population(30, label="cache-pre-%d" % id(object()))
        post = Population(30, label="cache-post-%d" % id(object()))
        return Projection(pre, post, FixedProbabilityConnector(0.3))

    @staticmethod
    def synapse_set(csr):
        return set(zip(csr.pre_index.tolist(), csr.targets.tolist()))

    def test_different_seeds_get_different_expansions(self):
        projection = self.build_projection()
        csr_a = projection.compile_csr(1, 0)
        csr_b = projection.compile_csr(2, 0)
        assert csr_a is not csr_b
        assert self.synapse_set(csr_a) != self.synapse_set(csr_b)

    def test_same_seed_reuses_expansion(self):
        projection = self.build_projection()
        csr_a = projection.compile_csr(1, 0)
        csr_b = projection.compile_csr(1, 0)
        assert csr_a is csr_b

    def test_network_rerun_with_new_seed_rebuilds_connectivity(self):
        network = Network(seed=1)
        stimulus = SpikeSourcePoisson(30, rate_hz=100.0, label="cp-stim")
        target = Population(30, "lif", label="cp-tgt")
        projection = network.connect(stimulus, target,
                                     FixedProbabilityConnector(0.3,
                                                               weight=2.0))
        network.run(50.0, seed=1)
        network.run(50.0, seed=2)
        # Both cached: no generator is built.
        assert (self.synapse_set(projection.compile_csr(1, 0))
                != self.synapse_set(projection.compile_csr(2, 0)))

    def test_seeded_runs_reproduce_after_interleaved_seed(self):
        def totals(seed):
            network = Network()
            stimulus = SpikeSourcePoisson(30, rate_hz=100.0,
                                          label="rep-stim-%d" % id(object()))
            target = Population(30, "lif",
                                label="rep-tgt-%d" % id(object()))
            network.connect(stimulus, target,
                            FixedProbabilityConnector(0.3, weight=2.0))
            return network, (lambda: network.run(80.0, seed=seed)
                             .total_spikes())

        network_a, run_a = totals(5)
        first = run_a()
        network_a.run(80.0, seed=6)   # would poison the old unkeyed cache
        assert run_a() == first

    def test_unseeded_network_shares_expansion_with_mapping_layer(self):
        # An unseeded Network must not end up with one expansion under
        # cache key None (host) and another under key 0 (mapping).
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        BootController(machine, seed=1).boot()
        network = Network()   # seed=None
        stimulus = SpikeSourcePoisson(10, rate_hz=50.0, label="us-stim")
        target = Population(20, "lif", label="us-tgt")
        network.connect(stimulus, target,
                        FixedProbabilityConnector(0.5, weight=1.0))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=8)
        application.prepare()
        mapped_synapses = sum(runtime.synaptic_data.total_synapses
                              for runtime in application.core_runtimes)
        # n_synapses expands under the same (None) cache key, so it must
        # hit the mapping layer's expansion and count the same synapses.
        assert network.n_synapses() == mapped_synapses > 0

    def test_mapping_first_and_host_first_expansions_agree(self):
        # Whatever layer expands first, the same seed must register the
        # same connectivity — even with several projections whose
        # expansion order differs between the layers.
        def build_network():
            network = Network(seed=13)
            a = Population(12, "lif", label="ord-a")
            b = Population(12, "lif", label="ord-b")
            c = SpikeSourcePoisson(12, rate_hz=50.0, label="ord-c")
            network.connect(a, b, FixedProbabilityConnector(0.4, weight=0.5))
            network.connect(c, b, FixedProbabilityConnector(0.4, weight=0.5))
            network.connect(b, a, FixedProbabilityConnector(0.4, weight=0.5))
            return network

        def synapse_sets(network):
            return [self.synapse_set(csr) for _index, _projection, csr
                    in expand_projections(network, 13)]

        mapped = build_network()
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        NeuralApplication(machine, mapped, max_neurons_per_core=6,
                          seed=13).prepare()

        simulated = build_network()
        simulated.run(10.0)
        assert synapse_sets(mapped) == synapse_sets(simulated)

    def test_compile_csr_cached_per_seed(self):
        projection = self.build_projection()
        csr_a = projection.compile_csr(1, 0)
        csr_b = projection.compile_csr(1, 0)
        csr_c = projection.compile_csr(2, 0)
        assert csr_a is csr_b
        assert csr_a is not csr_c

    def test_unseeded_expansion_does_not_clobber_seeded_entry(self):
        projection = self.build_projection()
        seeded = projection.compile_csr(1, 0)
        unseeded = projection.compile_csr(None, 0)
        assert unseeded is not seeded
        assert projection.compile_csr(1, 0) is seeded
        assert projection.compile_csr(None, 0) is unseeded

    def test_learned_weights_are_the_cached_state(self):
        # Plasticity mutates the cached matrix in place: every later
        # consumer of the seed (a re-run, the mapping compiler) sees the
        # learned weights, with nothing to write back or invalidate.
        network = Network(seed=9)
        stimulus = SpikeSourcePoisson(20, rate_hz=80.0, label="inv-stim")
        target = Population(20, "lif", label="inv-tgt")
        projection = network.connect(stimulus, target,
                                     FixedProbabilityConnector(0.5,
                                                               weight=3.0),
                                     plasticity=STDPMechanism(20, 20))
        before = projection.compile_csr(9, 0)
        network.run(300.0)
        after = projection.compile_csr(9, 0)
        assert after is before
        assert np.any(after.weights != 3.0)
