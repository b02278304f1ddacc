"""Tests for run-time functional migration (abstract; Sections 2.2, 3.2)."""

from __future__ import annotations

import pytest

from repro.compile import MappingContext, MappingPipeline
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import OneToOneConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.migration import FunctionalMigrator, MigrationError


def booted_machine(width=3, height=3, cores=6):
    machine = SpiNNakerMachine(MachineConfig(width=width, height=height,
                                             cores_per_chip=cores))
    BootController(machine, seed=5).boot()
    return machine


def small_feedforward(seed=17, n=30):
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(n, rate_hz=80.0, label="mig-stim")
    target = Population(n, "lif", label="mig-target")
    target.record(spikes=True)
    network.connect(stimulus, target, OneToOneConnector(weight=5.0,
                                                        delay_ticks=1))
    return network


def prepared_application(machine=None, seed=17):
    machine = machine or booted_machine()
    application = NeuralApplication(machine, small_feedforward(seed=seed),
                                    max_neurons_per_core=10, seed=seed)
    application.prepare()
    return application


class TestMigratorConstruction:
    def test_migrator_requires_prepared_application(self):
        machine = booted_machine()
        application = NeuralApplication(machine, small_feedforward(),
                                        max_neurons_per_core=10, seed=1)
        with pytest.raises(MigrationError):
            FunctionalMigrator(application)

    def test_spare_slots_exclude_monitor_and_occupied_cores(self):
        application = prepared_application()
        migrator = FunctionalMigrator(application)
        occupied = set(migrator.occupied_slots())
        spares = migrator.spare_slots()
        assert occupied.isdisjoint(spares)
        for coordinate, core_id in spares:
            chip = application.machine.chips[coordinate]
            assert core_id != chip.monitor_core_id


class TestEvacuation:
    def test_evacuate_core_moves_vertex_and_disables_core(self):
        application = prepared_application()
        migrator = FunctionalMigrator(application)
        (old_chip, old_core), vertex = next(iter(migrator.occupied_slots().items()))
        report = migrator.evacuate_core(old_chip, old_core)

        assert report.n_moves == 1
        moved_vertex, old_slot, new_slot = report.moves[0]
        assert moved_vertex == vertex
        assert old_slot == (old_chip, old_core)
        assert new_slot != old_slot
        assert application.placement.locations[vertex] == new_slot
        assert (old_chip, old_core) in report.cores_mapped_out
        assert not application.machine.chips[old_chip].cores[old_core].is_available

    def test_evacuating_empty_core_is_a_no_op_move(self):
        application = prepared_application()
        migrator = FunctionalMigrator(application)
        spare_chip, spare_core = migrator.spare_slots()[0]
        report = migrator.evacuate_core(spare_chip, spare_core)
        assert report.n_moves == 0
        assert (spare_chip, spare_core) in report.cores_mapped_out

    def test_routing_tables_regenerated_after_move(self):
        application = prepared_application()
        migrator = FunctionalMigrator(application)
        (old_chip, old_core), _vertex = next(iter(migrator.occupied_slots().items()))
        report = migrator.evacuate_core(old_chip, old_core)
        assert report.routing_entries_before > 0
        assert report.routing_entries_after > 0
        assert report.runtimes_rebuilt == 1

    def test_keys_are_preserved_across_migration(self):
        """Virtualised topology: a neuron's routing key never changes."""
        application = prepared_application()
        keys_before = {vertex: application.keys.key_space(vertex).key_for(0)
                       for vertex in application.placement.locations}
        migrator = FunctionalMigrator(application)
        (old_chip, old_core), _ = next(iter(migrator.occupied_slots().items()))
        migrator.evacuate_core(old_chip, old_core)
        keys_after = {vertex: application.keys.key_space(vertex).key_for(0)
                      for vertex in application.placement.locations}
        assert keys_before == keys_after

    def test_evacuate_chip_clears_every_vertex_on_it(self):
        application = prepared_application(booted_machine(3, 3, 8))
        migrator = FunctionalMigrator(application)
        target_chip = next(iter(migrator.occupied_slots()))[0]
        migrator.evacuate_chip(target_chip)
        remaining = [slot for slot in migrator.occupied_slots()
                     if slot[0] == target_chip]
        assert remaining == []

    def test_duplicate_suspects_handled_once(self):
        application = prepared_application()
        migrator = FunctionalMigrator(application)
        slot = next(iter(migrator.occupied_slots()))
        report = migrator.evacuate_cores([slot, slot])
        assert report.n_moves == 1
        assert report.cores_mapped_out.count(slot) == 1

    def test_migration_fails_when_no_spares_left(self):
        # A 2x2 machine with only 2 cores per chip has one monitor and one
        # application core per chip: evacuating every application core at
        # once cannot succeed.
        machine = booted_machine(2, 2, 2)
        network = Network(seed=3)
        stimulus = SpikeSourcePoisson(4, rate_hz=50.0, label="s")
        target = Population(4, "lif", label="t")
        network.connect(stimulus, target, OneToOneConnector(weight=2.0))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=2, seed=3)
        application.prepare()
        migrator = FunctionalMigrator(application)
        suspects = list(migrator.occupied_slots())
        with pytest.raises(MigrationError):
            migrator.evacuate_cores(suspects)


class TestApplicationContinuity:
    def test_application_still_produces_spikes_after_migration(self):
        machine = booted_machine()
        application = NeuralApplication(machine, small_feedforward(seed=23),
                                        max_neurons_per_core=10, seed=23)
        application.prepare()
        first = application.run(50.0)
        spikes_before = first.total_spikes("mig-target")

        migrator = FunctionalMigrator(application)
        (old_chip, old_core), _ = next(iter(migrator.occupied_slots().items()))
        migrator.evacuate_core(old_chip, old_core)

        second = application.run(50.0)
        assert second.total_spikes("mig-target") > spikes_before

    def test_fabric_application_survives_migration(self):
        # Regression: rebuilt runtimes must inherit the application's
        # transport mode, and the fabric delivery legs must
        # be recompiled so none point at an evacuated runtime object.
        machine = booted_machine()
        application = NeuralApplication(machine, small_feedforward(seed=29),
                                        max_neurons_per_core=10, seed=29,
                                        transport="fabric", stagger_us=0.0)
        application.prepare()
        first = application.run(40.0)
        events_before = first.synaptic_events

        migrator = FunctionalMigrator(application)
        (old_chip, old_core), _ = next(iter(migrator.occupied_slots().items()))
        migrator.evacuate_core(old_chip, old_core)

        live = set(map(id, application.core_runtimes))
        for runtime in application.core_runtimes:
            assert runtime.transport == "fabric"
            for delivery in runtime.fabric_deliveries:
                assert id(delivery.runtime) in live

        second = application.run(40.0)
        assert second.synaptic_events > events_before
        assert application.unmatched_packets == 0

    def test_migrator_and_live_remap_leave_the_same_runtimes(self):
        # The migrator and ``remap(reset=False)`` share one runtime
        # re-binding helper.  Evacuating the *last* occupied chip is a
        # displacement both agree on (the placer's fresh placement and
        # the migrator's nearest-spare choice coincide), so on a running
        # fabric application the two must leave identical core runtimes.
        def running():
            application = NeuralApplication(
                booted_machine(3, 3, 4), small_feedforward(seed=29, n=60),
                max_neurons_per_core=10, seed=29, transport="fabric",
                stagger_us=0.0)
            application.prepare()
            application.run(30.0)
            return application, {id(r) for r in application.core_runtimes}

        migrated, migrated_before = running()
        remapped, remapped_before = running()
        victim = migrated.placement.chips_used()[-1]
        report = FunctionalMigrator(migrated).evacuate_chip(victim)
        for slot in report.cores_mapped_out:   # the same cores, by hand
            remapped.machine.chips[slot[0]].cores[slot[1]].disable()
        remapped.remap(reset=False)

        assert report.n_moves > 1
        assert migrated.placement.locations == remapped.placement.locations
        moved = {vertex for vertex, _old, _new in report.moves}
        for application, before in ((migrated, migrated_before),
                                    (remapped, remapped_before)):
            core_data = application.pipeline.ctx.core_data
            locations = application.placement.locations
            assert ([runtime.vertex for runtime in application.core_runtimes]
                    == [r.vertex for r in migrated.core_runtimes])
            for runtime in application.core_runtimes:
                slot = (runtime.chip_coordinate, runtime.core.core_id)
                assert slot == locations[runtime.vertex]
                assert runtime.synaptic_data is core_data[slot]
                # Survivors are the very runtime objects (neuron state
                # kept); exactly the moved vertices got fresh ones.
                assert (id(runtime) in before) == (runtime.vertex
                                                   not in moved)
        assert report.runtimes_rebuilt == len(moved)

        # And the two applications carry on identically.
        after_migration = migrated.run(30.0)
        after_remap = remapped.run(30.0)
        assert after_migration.spikes == after_remap.spikes
        assert (after_migration.synaptic_events
                == after_remap.synaptic_events)
        assert migrated.unmatched_packets == remapped.unmatched_packets == 0

    def test_prefer_same_chip_keeps_vertex_local_when_possible(self):
        application = prepared_application(booted_machine(3, 3, 8))
        migrator = FunctionalMigrator(application)
        # Pick an occupied core whose chip still has at least one spare.
        for (chip, core), _vertex in migrator.occupied_slots().items():
            if any(slot[0] == chip for slot in migrator.spare_slots()):
                report = migrator.evacuate_core(chip, core)
                _v, _old, (new_chip, _new_core) = report.moves[0]
                assert new_chip == chip
                break
        else:  # pragma: no cover - machine always has on-chip spares here
            pytest.skip("no chip with both an occupied and a spare core")


class TestRemovedOptions:
    """The adoption seam of the pre-pipeline tool-chain fails loudly."""

    def test_migrator_takes_a_prepared_application_only(self):
        application = prepared_application()
        with pytest.raises(TypeError):
            FunctionalMigrator(application.machine, application.network,
                               application.placement, application.keys)
        with pytest.raises(TypeError):
            FunctionalMigrator(application, seed=17)

    def test_pipeline_cannot_adopt_external_artifacts(self):
        application = prepared_application()
        with pytest.raises(AttributeError):
            MappingPipeline.from_existing(
                application.machine, application.network,
                placement=application.placement, keys=application.keys,
                seed=17)
        with pytest.raises(TypeError):
            MappingContext(machine=application.machine,
                           network=application.network, seed=17,
                           expansion_seed=17, max_neurons_per_core=10,
                           placement_strategy="locality",
                           assume_stale_tables=True)
