"""Unit tests for the SDRAM, DMA controller and NoC fabric models."""

from __future__ import annotations

import copy
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core.dma import DMAController, DMADirection
from repro.core.event_kernel import EventKernel
from repro.core.noc import CommunicationsNoC, SystemNoC
from repro.core.sdram import SDRAM, SDRAMAllocationError, SDRAMRegion


class TestSDRAMAllocation:
    def test_allocation_is_word_aligned(self):
        sdram = SDRAM()
        region = sdram.allocate(10)
        assert region.size == 12
        assert region.base % 4 == 0

    def test_allocations_do_not_overlap(self):
        sdram = SDRAM()
        first = sdram.allocate(100)
        second = sdram.allocate(100)
        assert second.base >= first.end

    def test_allocation_failure_when_full(self):
        sdram = SDRAM(size_bytes=1024)
        sdram.allocate(1000)
        with pytest.raises(SDRAMAllocationError):
            sdram.allocate(100)

    def test_zero_size_allocation_rejected(self):
        with pytest.raises(ValueError):
            SDRAM().allocate(0)

    def test_region_lookup_by_tag(self):
        sdram = SDRAM()
        sdram.allocate(64, tag="alpha")
        region = sdram.allocate(64, tag="beta")
        assert sdram.region_for("beta") == region
        assert sdram.region_for("missing") is None

    def test_free_zeroes_the_region_and_returns_the_last_one(self):
        sdram = SDRAM(size_bytes=64)
        first = sdram.allocate(8)
        second = sdram.allocate(8)
        sdram.write_block(first.base, [1, 2])
        sdram.write_block(second.base, [3, 4])
        sdram.free(first)
        assert sdram.read_block(first.base, 2) == [0, 0]
        assert sdram.bytes_allocated == 16        # interior: not reused
        sdram.free(second)
        assert sdram.read_block(second.base, 2) == [0, 0]
        assert sdram.bytes_allocated == 8         # last: handed back

    def test_bytes_free_accounting(self):
        sdram = SDRAM(size_bytes=1024)
        sdram.allocate(101)
        assert sdram.bytes_allocated == 104
        assert sdram.bytes_free == 1024 - 104


class TestSDRAMData:
    def test_read_back_written_word(self):
        sdram = SDRAM()
        sdram.write_word(0x100, 0xDEADBEEF)
        assert sdram.read_word(0x100) == 0xDEADBEEF

    def test_unwritten_reads_zero(self):
        assert SDRAM().read_word(0x40) == 0

    def test_block_round_trip(self):
        sdram = SDRAM()
        words = [1, 2, 3, 4, 5]
        sdram.write_block(0x200, words)
        assert sdram.read_block(0x200, 5) == words

    def test_unaligned_access_rejected(self):
        with pytest.raises(ValueError):
            SDRAM().read_word(0x3)

    def test_out_of_range_access_rejected(self):
        sdram = SDRAM(size_bytes=64)
        with pytest.raises(ValueError):
            sdram.write_word(64, 1)

    def test_values_truncated_to_32_bits(self):
        sdram = SDRAM()
        sdram.write_word(0, 0x1FFFFFFFF)
        assert sdram.read_word(0) == 0xFFFFFFFF

    def test_construction_allocates_no_backing_store(self):
        assert len(SDRAM()._words) == 0

    def test_reads_past_the_written_words_do_not_grow_the_store(self):
        sdram = SDRAM()
        sdram.write_word(0x10, 7)
        assert sdram.read_block(0x1000, 4) == [0, 0, 0, 0]
        assert sdram.read_word(0x2000) == 0
        assert list(sdram.peek_block(0x8, 4)) == [0, 0, 7, 0]
        assert len(sdram._words) == 5

    def test_block_accepts_a_uint32_buffer_of_any_shape(self):
        sdram = SDRAM()
        rows = np.arange(6, dtype=np.uint32).reshape(2, 3)
        sdram.write_block(0x40, rows)
        assert sdram.read_block(0x40, 6) == list(range(6))
        assert sdram.total_bytes_written == 24
        with pytest.raises(TypeError):
            sdram.write_block(0x40, rows.astype(np.int64))

    def test_block_crossing_the_end_writes_nothing(self):
        sdram = SDRAM(size_bytes=64)
        with pytest.raises(ValueError):
            sdram.write_block(56, [1, 2, 3])
        assert sdram.peek_block(0, 16).tolist() == [0] * 16
        assert sdram.total_bytes_written == 0

    def test_buffer_block_crossing_the_end_writes_nothing(self):
        sdram = SDRAM(size_bytes=64)
        with pytest.raises(ValueError):
            sdram.write_block(56, np.array([1, 2, 3], dtype=np.uint32))
        assert len(sdram._words) == 0
        assert sdram.total_bytes_written == 0

    def test_peek_block_charges_nothing(self):
        sdram = SDRAM()
        sdram.write_block(0, [1, 2, 3])
        assert list(sdram.peek_block(0, 3)) == [1, 2, 3]
        assert sdram.total_bytes_read == 0


def test_package_imports_without_numpy():
    # The CI lint job runs with no third-party packages: importing the
    # package, its machine model, the service and the linter must not
    # pull in numpy.
    code = ("import sys; sys.modules['numpy'] = None; "
            "import repro, repro.core, repro.service, repro.checks")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


#: A small address space, so random accesses hit every edge of it.
STORE_BYTES = 128
ADDRESSES = st.one_of(
    st.integers(min_value=-2, max_value=STORE_BYTES // 4 + 2).map(
        lambda word: 4 * word),
    st.integers(min_value=-8, max_value=STORE_BYTES + 8))
VALUES = st.integers(min_value=-2 ** 33, max_value=2 ** 33)
STORE_OPS = st.one_of(
    st.tuples(st.just("allocate"), st.integers(min_value=-4, max_value=48)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("write_word"), ADDRESSES, VALUES),
    st.tuples(st.just("read_word"), ADDRESSES),
    st.tuples(st.just("write_block"), ADDRESSES,
              st.lists(VALUES, max_size=10), st.booleans()),
    st.tuples(st.just("read_block"), ADDRESSES,
              st.integers(min_value=-1, max_value=12)),
    st.tuples(st.just("peek_block"), ADDRESSES,
              st.integers(min_value=-1, max_value=12)))


def apply_store_op(model, op):
    """Run ``op`` on ``model``: its result, or the type of what it raised."""
    name, *args = op
    if name == "free":
        regions = model.regions
        args = [regions[args[0]] if args[0] < len(regions)
                else SDRAMRegion(base=STORE_BYTES, size=4)]
    elif name == "write_block":
        address, words, as_buffer = args
        if as_buffer and isinstance(model, SDRAM):
            words = np.array([word & 0xFFFFFFFF for word in words],
                             dtype=np.uint32)
        args = [address, words]
    try:
        result = getattr(model, name)(*args)
    except (ValueError, SDRAMAllocationError) as error:
        return type(error)
    return list(result) if name == "peek_block" else result


def store_state(model):
    """Contents (peeked, so uncharged), regions and traffic counters."""
    return (list(model.peek_block(0, STORE_BYTES // 4)), model.regions,
            model.bytes_allocated, model.total_bytes_read,
            model.total_bytes_written)


def crosses_the_end(op):
    """A block access that starts in range and runs past the end."""
    if op[0] not in ("write_block", "read_block"):
        return False
    address = op[1]
    n_words = len(op[2]) if op[0] == "write_block" else op[2]
    return (n_words > 0 and address % 4 == 0
            and 0 <= address < STORE_BYTES < address + 4 * n_words)


class TestSDRAMAgainstDictOracle:
    """The array store against the dict-per-word model it replaced."""

    @given(st.lists(STORE_OPS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_same_results_exceptions_regions_and_traffic(self, ops):
        store = SDRAM(size_bytes=STORE_BYTES)
        oracle = oracles.DictSDRAM(size_bytes=STORE_BYTES)
        for op in ops:
            if crosses_the_end(op):
                # The one intended difference: the array store raises
                # before touching memory or counters; the dict model
                # writes (or charges) the in-range prefix first.
                before = store_state(store)
                assert apply_store_op(store, op) is ValueError
                assert store_state(store) == before
                reference = copy.deepcopy(oracle)
                assert apply_store_op(reference, op) is ValueError
                assert store_state(reference) != store_state(oracle)
                continue
            n_words = len(store._words)
            assert apply_store_op(store, op) == apply_store_op(oracle, op)
            assert store_state(store) == store_state(oracle)
            if op[0] in ("read_word", "read_block", "peek_block"):
                assert len(store._words) == n_words


class TestSDRAMTiming:
    def test_transfer_time_scales_with_size(self):
        sdram = SDRAM(access_latency_us=0.1, bandwidth_bytes_per_us=100.0)
        assert sdram.transfer_time(100) == pytest.approx(1.1)
        assert sdram.transfer_time(200) > sdram.transfer_time(100)

    def test_contention_serialises_bursts(self):
        sdram = SDRAM(access_latency_us=0.0, bandwidth_bytes_per_us=100.0)
        first = sdram.schedule_transfer(0.0, 100)
        second = sdram.schedule_transfer(0.0, 100)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_interface_starts_immediately(self):
        sdram = SDRAM(access_latency_us=0.0, bandwidth_bytes_per_us=100.0)
        sdram.schedule_transfer(0.0, 100)
        finish = sdram.schedule_transfer(10.0, 100)
        assert finish == pytest.approx(11.0)


class TestDMAController:
    def _make(self):
        kernel = EventKernel()
        sdram = SDRAM()
        return kernel, sdram, DMAController(kernel, sdram, SystemNoC())

    def test_read_returns_sdram_contents(self):
        kernel, sdram, dma = self._make()
        sdram.write_block(0x80, [10, 20, 30])
        completed = []
        dma.read(0x80, 3, on_complete=lambda req: completed.append(req.data))
        kernel.run()
        assert completed == [[10, 20, 30]]

    def test_write_stores_to_sdram(self):
        kernel, sdram, dma = self._make()
        dma.write(0x40, [7, 8, 9])
        kernel.run()
        assert sdram.read_block(0x40, 3) == [7, 8, 9]

    def test_requests_complete_in_fifo_order(self):
        kernel, sdram, dma = self._make()
        order = []
        dma.read(0x0, 4, on_complete=lambda req: order.append("first"))
        dma.read(0x100, 4, on_complete=lambda req: order.append("second"))
        kernel.run()
        assert order == ["first", "second"]
        assert dma.completed_transfers == 2

    def test_queue_length_reflects_backlog(self):
        kernel, sdram, dma = self._make()
        dma.read(0x0, 4)
        dma.read(0x10, 4)
        dma.read(0x20, 4)
        assert dma.busy
        assert dma.queue_length == 2
        kernel.run()
        assert not dma.busy
        assert dma.queue_length == 0

    def test_latency_includes_setup_and_transfer(self):
        kernel, sdram, dma = self._make()
        finished = []
        dma.read(0x0, 100, on_complete=lambda req: finished.append(req))
        kernel.run()
        request = finished[0]
        assert request.total_latency >= dma.setup_time_us
        assert request.complete_time > request.issue_time

    def test_write_without_data_fails(self):
        kernel, sdram, dma = self._make()
        from repro.core.dma import DMARequest
        request = DMARequest(direction=DMADirection.WRITE, sdram_address=0,
                             n_words=2)
        dma.issue(request)
        with pytest.raises(RuntimeError):
            kernel.run()

    def test_total_words_accounted(self):
        kernel, sdram, dma = self._make()
        dma.read(0x0, 5)
        dma.write(0x40, [1, 2, 3])
        kernel.run()
        assert dma.total_words_transferred == 8


class TestCommunicationsNoC:
    def test_packets_serialise_on_fabric(self):
        noc = CommunicationsNoC(packets_per_us=1.0, latency_us=0.0)
        first = noc.schedule_packet(0.0)
        second = noc.schedule_packet(0.0)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_latency_added_to_delivery(self):
        noc = CommunicationsNoC(packets_per_us=10.0, latency_us=0.5)
        assert noc.schedule_packet(0.0) == pytest.approx(0.6)

    def test_queue_delay_reported(self):
        noc = CommunicationsNoC(packets_per_us=1.0)
        noc.schedule_packet(0.0)
        assert noc.queue_delay(0.0) == pytest.approx(1.0)
        assert noc.queue_delay(5.0) == 0.0

    def test_statistics_accumulate(self):
        noc = CommunicationsNoC()
        noc.schedule_packet(0.0, bit_length=40)
        noc.schedule_packet(0.0, bit_length=72)
        assert noc.stats.transfers == 2
        assert noc.stats.total_bits == 112
        assert 0.0 < noc.stats.utilisation(1.0) <= 1.0


class TestSystemNoC:
    def test_transfer_time_scales_with_bytes(self):
        noc = SystemNoC(bandwidth_bytes_per_us=100.0, latency_us=0.0)
        assert noc.schedule_transfer(0.0, 100) == pytest.approx(1.0)

    def test_traffic_attributed_to_initiator(self):
        noc = SystemNoC()
        noc.schedule_transfer(0.0, 64, initiator="core-3")
        noc.schedule_transfer(0.0, 64, initiator="core-3")
        noc.schedule_transfer(0.0, 32, initiator="core-7")
        assert noc.traffic_by_initiator["core-3"] == 128
        assert noc.traffic_by_initiator["core-7"] == 32

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            SystemNoC().schedule_transfer(0.0, -1)


class TestMemoryProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                    min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_block_write_read_is_identity(self, words):
        sdram = SDRAM()
        sdram.write_block(0x1000, words)
        assert sdram.read_block(0x1000, len(words)) == words

    @given(st.lists(st.integers(min_value=1, max_value=4096),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        sdram = SDRAM()
        regions = [sdram.allocate(size) for size in sizes]
        for i, first in enumerate(regions):
            for second in regions[i + 1:]:
                assert first.end <= second.base or second.end <= first.base
