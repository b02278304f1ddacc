"""Tests for the boot protocol and flood-fill loading (Section 5.2)."""

from __future__ import annotations

import pytest

from repro.alloc.machine_view import LeasedMachineView
from repro.alloc.partition import Lease, Rect
from repro.core.geometry import ChipCoordinate, TorusGeometry
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.core.processor import ProcessorState
from repro.runtime.boot import BootController
from repro.runtime.flood_fill import ApplicationImage, FloodFillLoader


def make_machine(width=4, height=4, cores=6):
    return SpiNNakerMachine(MachineConfig(width=width, height=height,
                                          cores_per_chip=cores))


class TestFaultFreeBoot:
    def test_every_chip_boots_and_elects_one_monitor(self):
        machine = make_machine()
        result = BootController(machine, seed=1).boot()
        assert result.all_chips_operational
        assert result.chips_booted_unaided == machine.n_chips
        assert result.chips_repaired == 0
        for chip in machine:
            monitors = [c for c in chip.cores
                        if c.state is ProcessorState.MONITOR]
            assert len(monitors) == 1

    def test_coordinates_propagate_to_every_chip(self):
        machine = make_machine()
        BootController(machine, seed=1).boot()
        for coordinate, chip in machine.chips.items():
            assert chip.state.coordinates_known
            assert chip.assigned_coordinate == coordinate

    def test_p2p_tables_configured_everywhere(self):
        machine = make_machine()
        result = BootController(machine, seed=1).boot()
        assert result.p2p_tables_configured == machine.n_chips
        for chip in machine:
            assert chip.state.p2p_configured
            assert len(chip.p2p_table) == machine.n_chips

    def test_coordinate_flood_time_scales_with_diameter_not_size(self):
        # Load/boot time must grow with the mesh *diameter* (a few hops),
        # not with the chip count.
        small = make_machine(3, 3, 2)
        large = make_machine(8, 8, 2)
        small_result = BootController(small, seed=1).boot()
        large_result = BootController(large, seed=1).boot()
        ratio = (large_result.coordinate_flood_time_us /
                 small_result.coordinate_flood_time_us)
        chips_ratio = large.n_chips / small.n_chips   # ~7x
        assert ratio < chips_ratio / 2

    def test_boot_statistics_counts(self):
        machine = make_machine(3, 3, 4)
        result = BootController(machine, seed=1).boot()
        assert result.n_chips == 9
        assert result.monitors_elected == 9
        assert result.failed_cores == 0
        assert result.nn_packets_sent > 0


class TestBootScalesWithChips:
    """Phase 3 must cost O(chips): one displacement-table cell per reduced
    displacement, and no route computed per (chip, destination) pair."""

    @staticmethod
    def _count_geometry_work(monkeypatch):
        calls = {"hex_distance": 0, "route": 0}
        hex_distance = TorusGeometry.hex_distance
        route = TorusGeometry.route

        def counted_hex_distance(dx, dy):
            calls["hex_distance"] += 1
            return hex_distance(dx, dy)

        def counted_route(self, source, target):
            calls["route"] += 1
            return route(self, source, target)

        monkeypatch.setattr(TorusGeometry, "hex_distance",
                            staticmethod(counted_hex_distance))
        monkeypatch.setattr(TorusGeometry, "route", counted_route)
        return calls

    @pytest.mark.parametrize("boards", [(1, 1), (2, 1), (2, 2)])
    def test_boot_geometry_work_is_linear_in_chips(self, monkeypatch,
                                                   boards):
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            *boards, cores_per_chip=2))
        calls = self._count_geometry_work(monkeypatch)
        result = BootController(machine, seed=1).boot()
        assert result.p2p_tables_configured == machine.n_chips
        # Read every entry of every table: the first read builds the one
        # table, at most four candidate displacements per cell and one cell
        # per reduced displacement (width x height on a torus).
        for source, chip in machine.chips.items():
            for destination in machine.chips:
                chip.p2p_table.next_hop(destination)
        assert calls["route"] == 0
        assert 0 < calls["hex_distance"] <= 4 * machine.n_chips

    def test_lease_boot_geometry_work_is_linear_in_lease_chips(
            self, monkeypatch):
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            2, 2, cores_per_chip=2))
        view = LeasedMachineView(machine, Lease(1, Rect(3, 2, 6, 5)))
        calls = self._count_geometry_work(monkeypatch)
        result = BootController(view, seed=1).boot()
        assert result.p2p_tables_configured == view.n_chips == 30
        for chip in view.chips.values():
            for destination in view.chips:
                chip.p2p_table.next_hop(destination)
        assert calls["route"] == 0
        # A lease axis that does not wrap has 2 * span - 1 rows.
        assert calls["hex_distance"] == (2 * 6 - 1) * (2 * 5 - 1)
        table = view.chips[ChipCoordinate(3, 2)].p2p_table
        assert len(table) == 30
        assert not table.knows(ChipCoordinate(0, 0))


class TestBootWithFaults:
    def test_failed_cores_do_not_become_monitor(self):
        machine = make_machine()
        result = BootController(machine, core_failure_probability=0.2,
                                seed=5).boot()
        assert result.failed_cores > 0
        for chip in machine:
            if chip.monitor_core_id is not None:
                assert chip.monitor.state is ProcessorState.MONITOR
                assert chip.monitor.is_available

    def test_neighbours_repair_boot_failed_chips(self):
        machine = make_machine()
        result = BootController(machine, chip_boot_failure_probability=0.3,
                                repairable_fraction=1.0, seed=7).boot()
        assert result.chips_repaired > 0
        assert result.chips_dead == 0
        assert result.all_chips_operational

    def test_unrepairable_chips_stay_dead(self):
        machine = make_machine()
        result = BootController(machine, chip_boot_failure_probability=0.5,
                                repairable_fraction=0.0, seed=9).boot()
        assert result.chips_dead > 0
        assert not result.all_chips_operational
        dead = [chip for chip in machine if chip.state.boot_failed]
        assert len(dead) == result.chips_dead

    def test_boot_deterministic_for_seed(self):
        first = BootController(make_machine(), chip_boot_failure_probability=0.2,
                               core_failure_probability=0.05, seed=11).boot()
        second = BootController(make_machine(), chip_boot_failure_probability=0.2,
                                core_failure_probability=0.05, seed=11).boot()
        assert first.chips_repaired == second.chips_repaired
        assert first.failed_cores == second.failed_cores

    def test_invalid_probabilities_rejected(self):
        machine = make_machine(2, 2, 2)
        with pytest.raises(ValueError):
            BootController(machine, core_failure_probability=1.5)
        with pytest.raises(ValueError):
            BootController(machine, chip_boot_failure_probability=-0.1)


class TestFloodFill:
    def _booted(self, width=4, height=4):
        machine = make_machine(width, height, 4)
        BootController(machine, seed=1).boot()
        return machine

    def test_every_chip_receives_whole_image(self):
        machine = self._booted()
        result = FloodFillLoader(machine).load(ApplicationImage(n_blocks=6))
        assert result.complete
        assert result.chips_complete == machine.n_chips
        for chip in machine:
            assert chip.state.application_loaded

    def test_load_requires_booted_origin(self):
        machine = make_machine(2, 2, 2)
        with pytest.raises(RuntimeError):
            FloodFillLoader(machine).load(ApplicationImage())

    def test_application_loaded_into_itcm(self):
        machine = self._booted(2, 2)
        FloodFillLoader(machine).load(ApplicationImage(n_blocks=4,
                                                       block_words=64))
        for chip in machine:
            for core in chip.working_cores:
                assert core.itcm_used > 0

    def test_redundancy_increases_copies_received(self):
        low = FloodFillLoader(self._booted(), redundancy=1).load(
            ApplicationImage(n_blocks=4))
        high = FloodFillLoader(self._booted(), redundancy=3).load(
            ApplicationImage(n_blocks=4))
        assert high.mean_copies_received > low.mean_copies_received
        assert high.nn_packets_sent > low.nn_packets_sent

    def test_load_time_nearly_independent_of_machine_size(self):
        # The headline claim of [15]: flood-fill load time is set by the
        # image size plus a small diameter term, not by the chip count.
        small = FloodFillLoader(self._booted(3, 3)).load(
            ApplicationImage(n_blocks=8))
        large = FloodFillLoader(self._booted(8, 8)).load(
            ApplicationImage(n_blocks=8))
        chips_ratio = (8 * 8) / (3 * 3)
        time_ratio = large.load_time_us / small.load_time_us
        assert time_ratio < chips_ratio / 2
        assert time_ratio < 2.5

    def test_load_time_scales_with_image_size(self):
        machine = self._booted(3, 3)
        small_image = FloodFillLoader(machine).load(ApplicationImage(n_blocks=2))
        machine2 = self._booted(3, 3)
        large_image = FloodFillLoader(machine2).load(ApplicationImage(n_blocks=16))
        assert large_image.load_time_us > small_image.load_time_us

    def test_dead_chips_are_not_counted_as_targets(self):
        machine = make_machine(3, 3, 4)
        boot = BootController(machine, chip_boot_failure_probability=0.4,
                              repairable_fraction=0.0, seed=0).boot()
        assert machine.origin.state.booted
        assert boot.chips_dead > 0
        result = FloodFillLoader(machine).load(ApplicationImage(n_blocks=4))
        booted = sum(1 for chip in machine if chip.state.booted)
        assert result.n_chips == booted
        assert result.n_chips < machine.n_chips

    def test_invalid_parameters_rejected(self):
        machine = self._booted(2, 2)
        with pytest.raises(ValueError):
            FloodFillLoader(machine, redundancy=0)
        with pytest.raises(ValueError):
            ApplicationImage(n_blocks=0)
