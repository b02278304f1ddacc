"""End-to-end multi-tenancy: concurrent jobs on one shared machine.

The acceptance scenario for the allocation subsystem: two concurrent jobs
boot disjoint leases of one 8x8 machine and run spiking applications to
completion with non-interfering routing; a third, over-quota job queues
and is scheduled after a release; fault-injected chips are never
allocated.
"""

from __future__ import annotations

import pytest

from repro.alloc.job import JobState
from repro.alloc.server import AllocationServer
from repro.alloc.queue import TenantQuota
from repro.core.geometry import ChipCoordinate
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.host.host_system import HostSystem
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.boot import BootController
from repro.runtime.application import NeuralApplication, run_concurrently

FAULTY = ChipCoordinate(5, 1)


@pytest.fixture
def facility():
    """An 8x8 machine with one dead chip, host and allocation server."""
    machine = SpiNNakerMachine(MachineConfig(width=8, height=8,
                                             cores_per_chip=6))
    for core in machine.chips[FAULTY].cores:
        core.run_self_test(False)
    host = HostSystem(machine)
    server = AllocationServer(host, power_on_delay_us=50.0)
    return machine, host, server


def small_network(seed: int) -> Network:
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(24, rate_hz=80.0, label="stimulus")
    excitatory = Population(48, "lif", label="excitatory")
    excitatory.record(spikes=True)
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.2, weight=0.9,
                                              delay_range=(1, 4)))
    return network


def test_two_concurrent_jobs_and_a_queued_third(facility):
    machine, _host, server = facility
    server.scheduler.queue.set_quota(TenantQuota(
        tenant="shared-lab", max_leased_chips=32, submission_burst=8))

    job_a = server.create_job("shared-lab", 4, 4, keepalive_ms=1e9)
    job_b = server.create_job("shared-lab", 4, 4, keepalive_ms=1e9)
    job_c = server.create_job("shared-lab", 4, 4, keepalive_ms=1e9)
    machine.run()

    # A and B hold disjoint leases; C is over the 32-chip tenant quota.
    assert job_a.state is JobState.READY
    assert job_b.state is JobState.READY
    assert job_c.state is JobState.QUEUED
    chips_a = set(job_a.machine_view.chips)
    chips_b = set(job_b.machine_view.chips)
    assert not chips_a & chips_b

    # The dead chip was never allocated to anybody.
    assert FAULTY not in chips_a and FAULTY not in chips_b
    assert FAULTY in server.scheduler.partitioner.faulty

    # Each job boots its own sub-machine independently.
    for job, seed in ((job_a, 11), (job_b, 22)):
        boot = BootController(job.machine_view, seed=seed).boot()
        assert boot.monitors_elected == 16
        assert boot.p2p_tables_configured == 16

    # Both applications run side by side on the shared kernel.
    applications = [
        NeuralApplication(job.machine_view, small_network(seed),
                          max_neurons_per_core=8, seed=seed)
        for job, seed in ((job_a, 11), (job_b, 22))]
    result_a, result_b = run_concurrently(applications, 100.0)

    for result in (result_a, result_b):
        assert result.total_spikes("excitatory") > 0
        assert result.packets_sent > 0
        assert result.packets_dropped == 0
        assert result.within_deadline_fraction() == 1.0

    # Non-interference: no packet of either job crossed its lease
    # boundary (and no emergency detour ever left a lease).
    for job in (job_a, job_b):
        boundary_traffic = sum(link.packets_carried
                               for link in job.machine_view.boundary_links())
        assert boundary_traffic == 0
        assert job.machine_view.total_emergency_invocations() == 0

    # Releasing A makes room for C within the quota; C then runs too.
    assert server.release(job_a.job_id)
    machine.run()
    assert job_c.state is JobState.READY
    chips_c = set(job_c.machine_view.chips)
    assert FAULTY not in chips_c
    assert not chips_c & set(job_b.machine_view.chips)

    boot_c = BootController(job_c.machine_view, seed=33).boot()
    assert boot_c.monitors_elected == 16
    application_c = NeuralApplication(job_c.machine_view, small_network(33),
                                      max_neurons_per_core=8, seed=33)
    result_c = application_c.run(50.0)
    assert result_c.total_spikes("excitatory") > 0
    assert result_c.packets_dropped == 0

    # Everything can be handed back; the pool ends whole minus the dead
    # chip, with zero fragmentation after coalescing.
    server.release(job_b.job_id)
    server.release(job_c.job_id)
    partitioner = server.scheduler.partitioner
    assert partitioner.leased_area == 0
    assert partitioner.free_area == 63
    assert partitioner.fragmentation() < 0.5


def test_leases_spanning_a_full_axis_wrap_like_a_torus(facility):
    machine, _host, server = facility
    job = server.create_job("ring-lab", 8, 2, keepalive_ms=1e9)
    machine.run()
    assert job.state is JobState.READY
    view = job.machine_view
    geometry = view.geometry
    assert geometry.wraps_x and not geometry.wraps_y
    # Wrapping makes the far corner 1 hop away along x, not 7.
    left = ChipCoordinate(0, geometry.rect.y)
    right = ChipCoordinate(7, geometry.rect.y)
    assert geometry.distance(left, right) == 1
    route = geometry.route_chips(left, right)
    assert all(chip in view.chips for chip in route)


def test_interior_lease_routes_never_leave_the_rectangle(facility):
    machine, _host, server = facility
    job = server.create_job("corner-lab", 4, 4, keepalive_ms=1e9)
    machine.run()
    view = job.machine_view
    geometry = view.geometry
    chips = list(geometry.all_chips())
    for source in chips:
        for target in chips:
            for chip in geometry.route_chips(source, target):
                assert view.lease.rect.contains(chip)
