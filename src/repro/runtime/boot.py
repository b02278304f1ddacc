"""The two-phase boot protocol (Section 5.2).

SpiNNaker is "a highly-distributed homogeneous system with no explicit
means of synchronization", so boot has to break symmetry twice:

1. **On-chip**: every core runs a self-test; the cores that pass bid to be
   the Monitor Processor by reading a read-sensitive register in the System
   Controller, which guarantees exactly one winner.  If a node fails to
   boot, its neighbours detect this with nearest-neighbour (nn) probe
   packets, copy boot code into the failed node's System RAM and instruct
   it to reboot from there.

2. **System-level**: the Ethernet-attached origin node is assigned
   coordinates (0, 0) and propagates positional information through the
   machine with nn packets, after which every node can compute its p2p
   routing table and the host can reach any chip through node (0, 0).

The controller below drives all of that through the event kernel and the
machine's nn-packet transport, so boot time scales with the machine
diameter exactly as in the real system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.event_kernel import EventKernel
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import SpiNNakerMachine
from repro.core.packets import NearestNeighbourPacket, NNCommand
from repro.router.p2p import P2PRoutingTable


@dataclass
class BootResult:
    """Outcome of a boot pass."""

    n_chips: int = 0
    chips_booted_unaided: int = 0
    chips_repaired: int = 0
    chips_dead: int = 0
    monitors_elected: int = 0
    failed_cores: int = 0
    coordinate_flood_time_us: float = 0.0
    boot_complete_time_us: float = 0.0
    nn_packets_sent: int = 0
    p2p_tables_configured: int = 0

    @property
    def all_chips_operational(self) -> bool:
        """True if every chip ended up booted with a monitor."""
        return self.chips_dead == 0 and self.monitors_elected == self.n_chips


class BootController:
    """Drives self-test, monitor election, repair and coordinate flooding."""

    def __init__(self, machine: SpiNNakerMachine,
                 core_failure_probability: float = 0.0,
                 chip_boot_failure_probability: float = 0.0,
                 repairable_fraction: float = 1.0,
                 nn_hop_time_us: float = 1.0,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= core_failure_probability <= 1.0:
            raise ValueError("core_failure_probability must be in [0, 1]")
        if not 0.0 <= chip_boot_failure_probability <= 1.0:
            raise ValueError("chip_boot_failure_probability must be in [0, 1]")
        if not 0.0 <= repairable_fraction <= 1.0:
            raise ValueError("repairable_fraction must be in [0, 1]")
        self.machine = machine
        self.kernel: EventKernel = machine.kernel
        self.core_failure_probability = core_failure_probability
        self.chip_boot_failure_probability = chip_boot_failure_probability
        self.repairable_fraction = repairable_fraction
        self.nn_hop_time_us = nn_hop_time_us
        self.rng = random.Random(seed)
        self.result = BootResult(n_chips=machine.n_chips)
        self._coordinates_received: Set[ChipCoordinate] = set()
        self._unrepairable: Set[ChipCoordinate] = set()

    # ------------------------------------------------------------------
    # Phase 1: per-chip boot and monitor election
    # ------------------------------------------------------------------
    def _self_test_chip(self, coordinate: ChipCoordinate) -> bool:
        """Run self-test and monitor arbitration on one chip.

        Returns True if the chip booted (at least one working core claimed
        the monitor role).
        """
        chip = self.machine.chips[coordinate]
        chip_fails = self.rng.random() < self.chip_boot_failure_probability
        if chip_fails and self.rng.random() >= self.repairable_fraction:
            self._unrepairable.add(coordinate)

        any_working = False
        for core in chip.cores:
            core_passes = self.rng.random() >= self.core_failure_probability
            core.run_self_test(core_passes)
            if not core_passes:
                self.result.failed_cores += 1
            any_working = any_working or core_passes

        if chip_fails or not any_working:
            chip.state.boot_failed = True
            return False

        monitor = chip.elect_monitor()
        if monitor is None:
            chip.state.boot_failed = True
            return False
        chip.state.booted = True
        self.result.monitors_elected += 1
        return True

    def _repair_chip(self, coordinate: ChipCoordinate,
                     helper: ChipCoordinate) -> bool:
        """A booted neighbour repairs ``coordinate`` via nn packets.

        The neighbour writes boot code into the failed chip's System RAM,
        forces a monitor re-election and instructs a reboot.  Chips marked
        unrepairable (genuinely dead silicon) stay down.
        """
        self.result.nn_packets_sent += 3  # probe, write System RAM, reboot
        if coordinate in self._unrepairable:
            return False
        chip = self.machine.chips[coordinate]
        working = [core for core in chip.cores if core.is_available]
        if not working:
            return False
        chip.write_system_ram([0xB007C0DE] * 16)
        chip.system_controller.reset()
        monitor = chip.elect_monitor()
        if monitor is None:
            return False
        chip.state.boot_failed = False
        chip.state.booted = True
        self.result.monitors_elected += 1
        self.result.chips_repaired += 1
        return True

    # ------------------------------------------------------------------
    # Phase 2: coordinate propagation and p2p configuration
    # ------------------------------------------------------------------
    def _install_nn_handlers(self) -> None:
        for coordinate, chip in self.machine.chips.items():
            chip.on_nearest_neighbour(self._make_nn_handler(coordinate))

    def _make_nn_handler(self, coordinate: ChipCoordinate):
        def handler(packet: NearestNeighbourPacket, arrival: Direction) -> None:
            if packet.command is not NNCommand.COORDINATE:
                return
            chip = self.machine.chips[coordinate]
            if not chip.state.booted:
                return
            if coordinate in self._coordinates_received:
                return
            sender_x, sender_y, width, height = packet.payload
            dx, dy = arrival.opposite.offset
            my_x = (sender_x + dx) % width
            my_y = (sender_y + dy) % height
            chip.assigned_coordinate = ChipCoordinate(my_x, my_y)
            chip.state.coordinates_known = True
            self._coordinates_received.add(coordinate)
            self.result.coordinate_flood_time_us = self.kernel.now
            self._propagate_coordinates(coordinate)
        return handler

    def _propagate_coordinates(self, coordinate: ChipCoordinate) -> None:
        chip = self.machine.chips[coordinate]
        if chip.assigned_coordinate is None:
            return
        payload = (chip.assigned_coordinate.x, chip.assigned_coordinate.y,
                   self.machine.config.width, self.machine.config.height)
        for direction in Direction:
            packet = NearestNeighbourPacket(command=NNCommand.COORDINATE,
                                            payload=payload,
                                            timestamp=self.kernel.now)
            sent = self.machine.send_nearest_neighbour(coordinate, direction,
                                                       packet)
            if sent:
                self.result.nn_packets_sent += 1

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def boot(self) -> BootResult:
        """Run the whole boot sequence and return its result."""
        # Phase 1a: every chip self-tests and tries to elect a monitor.
        failed_chips: List[ChipCoordinate] = []
        for coordinate in self.machine.geometry.all_chips():
            if self._self_test_chip(coordinate):
                self.result.chips_booted_unaided += 1
            else:
                failed_chips.append(coordinate)

        # Phase 1b: booted neighbours attempt to repair failed chips.
        still_dead: List[ChipCoordinate] = []
        for coordinate in failed_chips:
            repaired = False
            for direction, neighbour in self.machine.geometry.neighbours(coordinate):
                if self.machine.chips[neighbour].state.booted:
                    if self._repair_chip(coordinate, neighbour):
                        repaired = True
                        break
            if not repaired:
                still_dead.append(coordinate)
        self.result.chips_dead = len(still_dead)

        # Phase 2: coordinate propagation from the Ethernet origin.
        self._install_nn_handlers()
        origin = self.machine.ethernet_chips[0]
        origin_chip = self.machine.chips[origin]
        if origin_chip.state.booted:
            origin_chip.assigned_coordinate = origin
            origin_chip.state.coordinates_known = True
            self._coordinates_received.add(origin)
            self.kernel.schedule_after(self.nn_hop_time_us,
                                       lambda _k: self._propagate_coordinates(origin),
                                       label="boot-origin")
            self.kernel.run()

        # Phase 3: p2p routing-table configuration on every located chip.
        # Each table is a view onto the geometry's one displacement table.
        for coordinate, chip in self.machine.chips.items():
            if chip.state.coordinates_known:
                chip.p2p_table = P2PRoutingTable(coordinate,
                                                 self.machine.geometry)
                chip.state.p2p_configured = True
                self.result.p2p_tables_configured += 1

        self.result.boot_complete_time_us = self.kernel.now
        return self.result
