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
* requests an *incremental* re-map from the pipeline — same keys, new
  trees and synaptic blocks for just the moved vertices — and
* when attached to a running :class:`~repro.runtime.application.NeuralApplication`,
  rebuilds the affected core runtimes so the application can simply be
  resumed.

The suspect cores are disabled afterwards, which is the "mapping out" the
monitor processor performs in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compile import MappingPipeline
from repro.core.geometry import ChipCoordinate
from repro.core.machine import SpiNNakerMachine
from repro.mapping.keys import KeyAllocator
from repro.mapping.placement import Placement, Vertex
from repro.neuron.network import Network
from repro.neuron.population import core_rng
from repro.runtime.application import CoreRuntime, NeuralApplication

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
    """Move placed vertices away from suspect cores onto spares.

    Parameters
    ----------
    machine, network, placement, keys:
        The mapping state produced by the tool-chain (``Placer`` /
        ``KeyAllocator``).  The placement is modified in place.
    application:
        Optional prepared :class:`NeuralApplication`; when given, the
        migrator also rebuilds the core runtimes of moved vertices so the
        application can be resumed after the migration.
    seed:
        Seed for the connectivity regeneration; must match the seed used
        when the network was originally mapped so the same synapses are
        rebuilt.
    """

    def __init__(self, machine: SpiNNakerMachine, network: Network,
                 placement: Placement, keys: KeyAllocator,
                 application: Optional[NeuralApplication] = None,
                 seed: Optional[int] = None) -> None:
        self.machine = machine
        self.network = network
        self.placement = placement
        self.keys = keys
        self.application = application
        if seed is not None:
            self.seed = seed
        elif application is not None:
            self.seed = application.seed
        else:
            self.seed = network.seed or 0
        self._own_pipeline: Optional[MappingPipeline] = None

    def _pipeline(self) -> MappingPipeline:
        """The mapping pipeline the migration re-maps through.

        A prepared application's own pipeline when one is attached (its
        artifact caches make the re-map incremental); otherwise a
        standalone pipeline adopting the externally built placement and
        keys, whose first re-map rebuilds the tables once and is
        incremental from then on.
        """
        if (self.application is not None
                and self.application.pipeline is not None):
            return self.application.pipeline
        if self._own_pipeline is None:
            self._own_pipeline = MappingPipeline.from_existing(
                self.machine, self.network, placement=self.placement,
                keys=self.keys, seed=self.seed, expansion_seed=self.seed)
        return self._own_pipeline

    @classmethod
    def for_application(cls, application: NeuralApplication) -> "FunctionalMigrator":
        """Build a migrator bound to a prepared application."""
        if application.placement is None or application.keys is None:
            raise MigrationError("the application has not been prepared yet")
        return cls(application.machine, application.network,
                   application.placement, application.keys,
                   application=application, seed=application.seed)

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
            self.placement.locations[vertex] = new_slot
            report.moves.append((vertex, old_slot, new_slot))

        for chip_coordinate, core_id in suspects:
            core = self.machine.chips[chip_coordinate].cores[core_id]
            if core.is_available:
                core.disable()
            report.cores_mapped_out.append((chip_coordinate, core_id))

        if report.moves:
            # Request an incremental re-map from the mapping compiler:
            # only the moved vertices' trees, tables and synaptic blocks
            # are rebuilt (and the keys stay put, as migration requires).
            context = self._pipeline().remap_moves(
                {vertex: new_slot
                 for vertex, _old, new_slot in report.moves})
            if self.application is not None:
                report.runtimes_rebuilt = self._rebuild_runtimes(
                    [move[0] for move in report.moves], context.core_data)
                if self.application.transport == "fabric":
                    # Delivery legs reference runtime objects; recompile
                    # them so no leg points at an evacuated runtime.
                    self.application._build_fabric(context.route_programs)
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

    def _rebuild_runtimes(self, moved: Sequence[Vertex], core_data) -> int:
        """Rebind the core runtimes of moved vertices to their new cores."""
        application = self.application
        moved_set = set(moved)
        populations = {p.label: p for p in self.network.populations}
        projecting = {projection.pre.label
                      for projection in self.network.projections}
        kept: List[CoreRuntime] = [runtime for runtime in application.core_runtimes
                                   if runtime.vertex not in moved_set]
        rebuilt = 0
        for vertex in moved:
            chip_coordinate, core_id = self.placement.location_of(vertex)
            chip = self.machine.chips[chip_coordinate]
            core = chip.cores[core_id]
            if core.state.value == "off":
                core.run_self_test(True)
            runtime = CoreRuntime(
                application=application, core=core,
                chip_coordinate=chip_coordinate, vertex=vertex,
                population=populations[vertex.population_label],
                key_space=self.keys.key_space(vertex),
                synaptic_data=core_data[(chip_coordinate, core_id)],
                rng=core_rng(self.seed, chip_coordinate.x, chip_coordinate.y,
                             core_id),
                has_outgoing_projections=(vertex.population_label in projecting),
                transport=application.transport)
            kept.append(runtime)
            rebuilt += 1
        application.core_runtimes = kept
        return rebuilt
