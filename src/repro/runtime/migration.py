"""Run-time functional migration (abstract; Sections 2.2 and 5.2).

The abstract promises "run-time support for functional migration and
real-time fault mitigation": when a core (or a whole chip) becomes
suspect, the work mapped onto it — the neuron state, the synaptic data
and the routing entries that deliver spikes to it — is moved to a spare
core elsewhere and the suspect core is mapped out.  The virtualised-
topology principle (Section 3.2) is what makes this cheap: a neuron's
*logical* identity (its routing key) never changes, so only the routing
tables and the local data need to follow it to its new physical home.

:class:`FunctionalMigrator` implements that operation on top of the
pass-based mapping compiler (:mod:`repro.compile`):

* it finds spare application cores,
* rebinds the evacuated vertices to them in the placement,
* requests an *incremental* re-map from the application's pipeline —
  same keys, new trees and synaptic blocks for just the moved vertices
  — and
* has the :class:`~repro.runtime.application.NeuralApplication` rebuild
  the affected core runtimes so it can simply be resumed.

The suspect cores are disabled afterwards, which is the "mapping out" the
monitor processor performs in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.geometry import ChipCoordinate
from repro.mapping.placement import Vertex
from repro.runtime.application import NeuralApplication

__all__ = [
    "MigrationError",
    "MigrationReport",
    "FunctionalMigrator",
]


class MigrationError(Exception):
    """Raised when a migration cannot be carried out (e.g. no spare cores)."""


@dataclass
class MigrationReport:
    """What a migration pass did."""

    #: (vertex, old (chip, core), new (chip, core)) for every moved vertex.
    moves: List[Tuple[Vertex, Tuple[ChipCoordinate, int],
                      Tuple[ChipCoordinate, int]]] = field(default_factory=list)
    cores_mapped_out: List[Tuple[ChipCoordinate, int]] = field(default_factory=list)
    routing_entries_before: int = 0
    routing_entries_after: int = 0
    runtimes_rebuilt: int = 0

    @property
    def n_moves(self) -> int:
        """Number of vertices that changed core."""
        return len(self.moves)


class FunctionalMigrator:
    """Move a prepared application's vertices off suspect cores onto spares.

    Re-maps through the application's own mapping pipeline (its artifact
    caches are what make the re-map incremental) and modifies its
    placement in place.

    Raises
    ------
    MigrationError
        If ``application`` has not been prepared yet.
    """

    def __init__(self, application: NeuralApplication) -> None:
        if application.pipeline is None:
            raise MigrationError("the application has not been prepared yet")
        self.application = application
        self.machine = application.machine
        self.placement = application.placement

    # ------------------------------------------------------------------
    # Spare-core discovery
    # ------------------------------------------------------------------
    def occupied_slots(self) -> Dict[Tuple[ChipCoordinate, int], Vertex]:
        """The (chip, core) slots currently holding a vertex."""
        return {location: vertex
                for vertex, location in self.placement.locations.items()}

    def spare_slots(self) -> List[Tuple[ChipCoordinate, int]]:
        """Available application cores not holding any vertex.

        Spare slots are working cores that are neither the chip's monitor
        nor already occupied, in raster order.
        """
        occupied = set(self.occupied_slots())
        spares: List[Tuple[ChipCoordinate, int]] = []
        for coordinate in self.machine.geometry.all_chips():
            chip = self.machine.chips[coordinate]
            monitor = chip.monitor_core_id if chip.monitor_core_id is not None else 0
            for core in chip.cores:
                slot = (coordinate, core.core_id)
                if core.core_id == monitor or slot in occupied:
                    continue
                if not core.is_available and core.state.value in ("failed",
                                                                  "disabled"):
                    continue
                spares.append(slot)
        return spares

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def evacuate_cores(self, suspects: Sequence[Tuple[ChipCoordinate, int]],
                       prefer_same_chip: bool = True) -> MigrationReport:
        """Move every vertex off the suspect cores and map the cores out.

        Raises
        ------
        MigrationError
            If there are not enough spare cores for the displaced vertices.
        """
        report = MigrationReport()
        report.routing_entries_before = self._total_routing_entries()

        suspects = list(dict.fromkeys(suspects))
        occupied = self.occupied_slots()
        displaced = [(slot, occupied[slot]) for slot in suspects
                     if slot in occupied]
        spare = [slot for slot in self.spare_slots() if slot not in suspects]
        if len(displaced) > len(spare):
            raise MigrationError(
                "%d vertices displaced but only %d spare cores available"
                % (len(displaced), len(spare)))

        for (old_slot, vertex) in displaced:
            new_slot = self._choose_spare(old_slot, spare, prefer_same_chip)
            spare.remove(new_slot)
            report.moves.append((vertex, old_slot, new_slot))

        for chip_coordinate, core_id in suspects:
            core = self.machine.chips[chip_coordinate].cores[core_id]
            if core.is_available:
                core.disable()
            report.cores_mapped_out.append((chip_coordinate, core_id))

        if report.moves:
            # Request an incremental re-map from the mapping compiler: it
            # rebinds the moved vertices in the placement and rebuilds
            # only their trees, tables and synaptic blocks (the keys stay
            # put, as migration requires).
            moves = {vertex: new_slot
                     for vertex, _old, new_slot in report.moves}
            context = self.application.pipeline.remap_moves(moves)
            report.runtimes_rebuilt = self.application._rebind_runtimes(
                context, set(moves))
        report.routing_entries_after = self._total_routing_entries()
        return report

    def evacuate_core(self, coordinate: ChipCoordinate,
                      core_id: int) -> MigrationReport:
        """Move the vertex (if any) off one core and map the core out."""
        return self.evacuate_cores([(coordinate, core_id)])

    def evacuate_chip(self, coordinate: ChipCoordinate) -> MigrationReport:
        """Move every vertex off one chip (for example ahead of power-down).

        Every application core of the chip is treated as suspect — not just
        the occupied ones — so displaced vertices cannot be re-placed onto a
        sibling core of the same chip.  The monitor core is left running to
        coordinate the power-down itself.
        """
        chip = self.machine.chips[coordinate]
        monitor = chip.monitor_core_id if chip.monitor_core_id is not None else 0
        suspects = [(coordinate, core.core_id) for core in chip.cores
                    if core.core_id != monitor]
        return self.evacuate_cores(suspects, prefer_same_chip=False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _choose_spare(self, old_slot: Tuple[ChipCoordinate, int],
                      spare: List[Tuple[ChipCoordinate, int]],
                      prefer_same_chip: bool) -> Tuple[ChipCoordinate, int]:
        old_chip, _old_core = old_slot
        if prefer_same_chip:
            for slot in spare:
                if slot[0] == old_chip:
                    return slot
        # Otherwise the nearest chip (in hop distance) with a spare core.
        return min(spare, key=lambda slot: self.machine.geometry.distance(
            old_chip, slot[0]))

    def _total_routing_entries(self) -> int:
        return sum(len(chip.router.table) for chip in self.machine)
