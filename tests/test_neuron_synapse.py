"""Unit tests for the synaptic-word codec and the deferred-event buffer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ScalarRing,
    Synapse,
    decode_packed_row,
    pack_row,
    unpack_row,
)
from repro.neuron.engine import pack_synapse_words, unpack_synapse_words
from repro.neuron.synapse import (
    MAX_DELAY_TICKS,
    WEIGHT_SATURATION_NA,
    DeferredEventBuffer,
)


def pack_one(target, weight, delay_ticks=1) -> int:
    return int(pack_synapse_words(np.array([target]), np.array([weight]),
                                  np.array([delay_ticks]))[0])


def unpack_one(word):
    targets, weights, delays = unpack_synapse_words(np.array([word]))
    return int(targets[0]), float(weights[0]), int(delays[0])


class TestSynapticWord:
    """The shipped (array) codec, field by field and against the scalar
    ``Synapse.pack`` / ``Synapse.unpack`` of the oracle."""

    def test_delay_range_enforced(self):
        for codec in (pack_one, Synapse):
            with pytest.raises(ValueError):
                codec(0, 1.0, 0)
            with pytest.raises(ValueError):
                codec(0, 1.0, MAX_DELAY_TICKS + 1)

    def test_negative_target_rejected(self):
        for codec in (pack_one, Synapse):
            with pytest.raises(ValueError):
                codec(-1, 1.0)

    def test_pack_unpack_round_trip(self):
        assert unpack_one(pack_one(123, 3.25, 7)) == (123, 3.25, 7)
        synapse = Synapse(target=123, weight=3.25, delay_ticks=7)
        assert Synapse.unpack(synapse.pack()) == synapse

    def test_inhibitory_weight_round_trips(self):
        assert unpack_one(pack_one(5, -1.5, 2)) == (5, -1.5, 2)

    def test_weight_quantised_to_fixed_point(self):
        _target, weight, _delay = unpack_one(pack_one(0, 0.07))
        assert abs(weight - 0.07) <= 1.0 / 16

    def test_target_index_width_enforced_on_pack(self):
        with pytest.raises(ValueError):
            pack_one(5000, 1.0)
        with pytest.raises(ValueError):
            Synapse(target=5000, weight=1.0).pack()

    @given(st.integers(min_value=0, max_value=4095),
           st.integers(min_value=1, max_value=16),
           st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_preserves_fields(self, target, delay, weight):
        word = pack_one(target, weight, delay)
        synapse = Synapse(target=target, weight=weight, delay_ticks=delay)
        assert word == synapse.pack()
        recovered = Synapse.unpack(word)
        assert unpack_one(word) == (recovered.target, recovered.weight,
                                    recovered.delay_ticks)
        assert recovered.target == target
        assert recovered.delay_ticks == delay
        assert abs(recovered.weight - weight) <= 1.0 / 16 + 1e-9


class TestPackedRow:
    def test_row_packs_with_count_header(self):
        words = pack_row([Synapse(0, 1.0), Synapse(1, 2.0)])
        assert words[0] == 2
        assert len(words) == 3
        assert decode_packed_row(words)[0] == 2

    def test_unpack_round_trip(self):
        row = [Synapse(i, 0.5 * i + 0.5, delay_ticks=i + 1)
               for i in range(5)]
        count, targets, weights, delays = decode_packed_row(pack_row(row))
        assert count == 5
        assert list(targets) == [s.target for s in row]
        assert list(weights) == [s.weight for s in row]
        assert list(delays) == [s.delay_ticks for s in row]
        assert unpack_row(pack_row(row)) == row

    def test_unpack_with_padding_ignores_trailing_words(self):
        words = pack_row([Synapse(3, 1.0)]) + [0, 0, 0]
        count, targets, _weights, _delays = decode_packed_row(words)
        assert count == 1 and list(targets) == [3]
        assert len(unpack_row(words)) == 1

    def test_unpack_rejects_truncated_data(self):
        for decode in (decode_packed_row, unpack_row):
            with pytest.raises(ValueError):
                decode([5, 0])
            with pytest.raises(ValueError):
                decode([])


def defer(buffer, target, weight, delay_ticks) -> None:
    """One synaptic event at ring offset ``delay * width + target``."""
    buffer.add_events(np.array([delay_ticks * buffer.width + target]),
                      np.array([weight]))


class TestDeferredEventBuffer:
    def test_input_arrives_after_programmed_delay(self):
        buffer = DeferredEventBuffer(4)
        defer(buffer, 2, 1.5, 3)
        assert buffer.drain().sum() == 0.0   # tick 0
        assert buffer.drain().sum() == 0.0   # tick 1
        assert buffer.drain().sum() == 0.0   # tick 2
        inputs = buffer.drain()              # tick 3
        assert inputs[2] == pytest.approx(1.5)

    def test_inputs_accumulate_in_same_slot(self):
        buffer = DeferredEventBuffer(2)
        defer(buffer, 0, 1.0, 1)
        defer(buffer, 0, 2.0, 1)
        buffer.drain()
        assert buffer.drain()[0] == pytest.approx(3.0)

    def test_drained_slot_is_cleared(self):
        buffer = DeferredEventBuffer(2)
        defer(buffer, 0, 1.0, 1)
        buffer.drain()
        buffer.drain()
        for _ in range(20):
            assert buffer.drain().sum() == 0.0

    def test_delay_wraps_around_ring(self):
        buffer = DeferredEventBuffer(1, max_delay_ticks=4)
        for _ in range(10):
            buffer.drain()
        defer(buffer, 0, 1.0, 4)
        for _ in range(4):
            assert buffer.drain()[0] == 0.0
        assert buffer.drain()[0] == pytest.approx(1.0)

    def test_out_of_range_delay_rejected(self):
        # An offset is in the ring exactly when its delay is 0..max.
        buffer = DeferredEventBuffer(1, max_delay_ticks=4)
        with pytest.raises(ValueError):
            defer(buffer, 0, 1.0, 5)
        with pytest.raises(ValueError):
            defer(buffer, 0, 1.0, -1)

    def test_a_row_defers_all_its_synapses(self):
        buffer = DeferredEventBuffer(8)
        buffer.add_events((np.arange(4) + 1) * 8 + np.arange(4), np.ones(4))
        assert buffer.events_deferred == 4
        assert buffer.pending_charge() == pytest.approx(4.0)

    def test_accumulated_charge_saturates_at_weight_range(self):
        # Paper Section 5.3: the ring hands the neuron its input in the
        # 16-bit fixed-point weight format, so a cell saturates rather
        # than wraps — clamped, and counted, when its tick drains it.
        buffer = DeferredEventBuffer(2)
        defer(buffer, 0, WEIGHT_SATURATION_NA + 500.0, 1)
        assert buffer.saturations == 0
        assert buffer.drain().sum() == 0.0
        assert buffer.drain()[0] == pytest.approx(WEIGHT_SATURATION_NA)
        assert buffer.saturations == 1

    def test_saturation_counts_each_clamped_cell_once(self):
        # However many calls push a cell past the limit, its drain clamps
        # it once; a cell pushed past it and back lands on the exact sum.
        buffer = DeferredEventBuffer(2)
        defer(buffer, 0, 0.75 * WEIGHT_SATURATION_NA, 1)
        defer(buffer, 0, 0.75 * WEIGHT_SATURATION_NA, 1)
        defer(buffer, 0, 1.0, 1)
        defer(buffer, 1, 1.5 * WEIGHT_SATURATION_NA, 1)
        defer(buffer, 1, -WEIGHT_SATURATION_NA, 1)
        buffer.drain()
        drained = buffer.drain()
        assert drained[0] == WEIGHT_SATURATION_NA
        assert drained[1] == pytest.approx(0.5 * WEIGHT_SATURATION_NA)
        assert buffer.saturations == 1

    def test_negative_charge_saturates_symmetrically(self):
        buffer = DeferredEventBuffer(1)
        defer(buffer, 0, -2.0 * WEIGHT_SATURATION_NA, 3)
        buffer.drain(); buffer.drain(); buffer.drain()
        assert buffer.saturations == 0
        assert buffer.drain()[0] == pytest.approx(-WEIGHT_SATURATION_NA)
        assert buffer.saturations == 1

    def test_vectorized_scatter_saturates_and_counts(self):
        buffer = DeferredEventBuffer(4)
        buffer.add_events(np.array([4, 4, 6]),
                          np.array([WEIGHT_SATURATION_NA,
                                    WEIGHT_SATURATION_NA, 1.0]))
        buffer.drain()
        drained = buffer.drain()
        assert drained[0] == pytest.approx(WEIGHT_SATURATION_NA)
        assert drained[2] == pytest.approx(1.0)
        assert buffer.saturations == 1

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                              st.floats(min_value=-5, max_value=5),
                              st.integers(min_value=1, max_value=16)),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_charge_is_conserved(self, events):
        # Property: everything added to the buffer is drained exactly once
        # within max_delay ticks — no charge is lost or duplicated.
        # The batch entry point must also equal the scalar ring slot for
        # slot.
        buffer = DeferredEventBuffer(10)
        scalar = ScalarRing(10)
        total_in = 0.0
        for target, weight, delay in events:
            defer(buffer, target, weight, delay)
            scalar.add_input(target, weight, delay)
            total_in += weight
        total_out = 0.0
        for _ in range(MAX_DELAY_TICKS + 1):
            drained = buffer.drain()
            assert np.array_equal(drained, scalar.drain())
            total_out += drained.sum()
        assert total_out == pytest.approx(total_in, abs=1e-9)
        assert buffer.pending_charge() == pytest.approx(0.0, abs=1e-9)
