"""Unit tests for the processor subsystem and its event model (Figs 4, 7)."""

from __future__ import annotations

import pytest

from repro.core.clock import ClockDomain
from repro.core.dma import DMAController
from repro.core.event_kernel import EventKernel
from repro.core.noc import SystemNoC
from repro.core.packets import MulticastPacket
from repro.core.processor import ProcessorState, ProcessorSubsystem
from repro.core.sdram import SDRAM


def make_core(kernel=None, send_packet=None):
    kernel = kernel or EventKernel()
    sdram = SDRAM()
    dma = DMAController(kernel, sdram, SystemNoC())
    core = ProcessorSubsystem(kernel, core_id=0,
                              clock=ClockDomain("core-0", 200.0),
                              dma=dma, send_packet=send_packet)
    return kernel, core


class TestLifecycle:
    def test_initial_state_is_off(self):
        _, core = make_core()
        assert core.state is ProcessorState.OFF
        assert not core.is_available

    def test_self_test_pass_moves_to_ready(self):
        _, core = make_core()
        assert core.run_self_test(True)
        assert core.state is ProcessorState.READY
        assert core.is_available

    def test_self_test_failure_moves_to_failed(self):
        _, core = make_core()
        assert not core.run_self_test(False)
        assert core.state is ProcessorState.FAILED
        assert not core.is_available

    def test_become_monitor_requires_ready(self):
        _, core = make_core()
        with pytest.raises(RuntimeError):
            core.become_monitor()
        core.run_self_test(True)
        core.become_monitor()
        assert core.state is ProcessorState.MONITOR

    def test_failed_core_cannot_start_application(self):
        _, core = make_core()
        core.run_self_test(False)
        with pytest.raises(RuntimeError):
            core.start_application()

    def test_disable_maps_core_out(self):
        _, core = make_core()
        core.run_self_test(True)
        core.disable()
        assert core.state is ProcessorState.DISABLED
        assert not core.is_available

    def test_application_core_flag(self):
        _, core = make_core()
        core.run_self_test(True)
        core.start_application()
        assert core.is_application_core


class TestMemoryBudget:
    def test_code_must_fit_itcm(self):
        _, core = make_core()
        core.load_application(32 * 1024)
        with pytest.raises(MemoryError):
            core.load_application(32 * 1024 + 1)

    def test_data_must_fit_dtcm(self):
        _, core = make_core()
        with pytest.raises(MemoryError):
            core.load_application(1024, data_bytes=64 * 1024 + 1)


class TestEventModel:
    def test_packet_handler_runs_after_handler_cost(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        received = []
        core.on_packet(lambda packet: received.append((kernel.now, packet.key)))
        core.deliver_packet(MulticastPacket(key=3))
        kernel.run()
        assert len(received) == 1
        time, key = received[0]
        assert key == 3
        # 80 cycles at 200 MHz is 0.4 us.
        assert time == pytest.approx(0.4)

    def test_packets_ignored_before_application_starts(self):
        kernel, core = make_core()
        core.run_self_test(True)
        handled = []
        core.on_packet(lambda packet: handled.append(packet))
        core.deliver_packet(MulticastPacket(key=1))
        kernel.run()
        assert handled == []
        assert core.packets_received == 1

    def test_timer_fires_periodically(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        ticks = []
        core.on_timer(lambda: ticks.append(kernel.now))
        core.start_timer(1000.0)
        kernel.run_until(3500.0)
        assert len(ticks) == 3

    def test_stop_timer_halts_ticks(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        ticks = []
        core.on_timer(lambda: ticks.append(kernel.now))
        core.start_timer(1000.0)
        kernel.run_until(1500.0)
        core.stop_timer()
        kernel.run_until(5000.0)
        assert len(ticks) == 1

    def test_timer_offset_staggers_first_tick(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        ticks = []
        core.on_timer(lambda: ticks.append(kernel.now))
        core.start_timer(1000.0, start_offset_us=250.0)
        kernel.run_until(1300.0)
        assert len(ticks) == 1

    def test_priority_order_packet_before_timer(self):
        # A packet and a timer event pending together must run the packet
        # handler first (priority 1 beats priority 3, Figure 7).
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        order = []
        core.on_packet(lambda packet: order.append("packet"))
        core.on_timer(lambda: order.append("timer"))
        # Raise both interrupts at the same simulated instant while the
        # core is busy with an earlier packet, so they queue together.
        core.deliver_packet(MulticastPacket(key=1))
        core.deliver_packet(MulticastPacket(key=2))
        core._timer_tick(kernel)
        kernel.run()
        assert order[0] == "packet"
        assert order.count("packet") == 2
        assert order[-1] == "timer"

    def test_busy_time_accumulates(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        core.on_packet(lambda packet: None)
        for key in range(5):
            core.deliver_packet(MulticastPacket(key=key))
        kernel.run()
        assert core.busy_time_us == pytest.approx(5 * 0.4)
        assert core.handler_invocations["packet"] == 5

    def test_charge_cycles_extends_busy_time(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        core.on_packet(lambda packet: core.charge_cycles(200.0))
        core.deliver_packet(MulticastPacket(key=0))
        kernel.run()
        assert core.busy_time_us == pytest.approx(0.4 + 1.0)

    def test_core_sleeps_when_idle(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        core.on_packet(lambda packet: None)
        core.deliver_packet(MulticastPacket(key=0))
        kernel.run()
        assert core.state is ProcessorState.SLEEPING

    def test_send_multicast_requires_comms_controller(self):
        _, core = make_core(send_packet=None)
        with pytest.raises(RuntimeError):
            core.send_multicast(MulticastPacket(key=1))

    def test_send_multicast_counts_packets(self):
        sent = []
        kernel, core = make_core(send_packet=lambda cid, pkt: sent.append((cid, pkt.key)))
        core.send_multicast(MulticastPacket(key=9))
        assert sent == [(0, 9)]
        assert core.packets_sent == 1

    def test_utilisation_bounded(self):
        kernel, core = make_core()
        core.run_self_test(True)
        core.start_application()
        core.on_packet(lambda packet: None)
        core.deliver_packet(MulticastPacket(key=0))
        kernel.run()
        assert 0.0 < core.utilisation(10.0) <= 1.0
        assert core.utilisation(0.0) == 0.0

    def test_invalid_timer_period_rejected(self):
        _, core = make_core()
        with pytest.raises(ValueError):
            core.start_timer(0.0)
        with pytest.raises(ValueError):
            core.start_timer(1000.0, start_offset_us=-1.0)
