"""Tests for the multi-tenant allocation subsystem (repro.alloc)."""

from __future__ import annotations

import pytest

from repro.alloc.job import JobRequest, JobState
from repro.alloc.partition import MachinePartitioner, Rect, subtract
from repro.alloc.queue import TenantQuota
from repro.alloc.scheduler import AllocationScheduler
from repro.alloc.server import AllocationServer
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.host.host_system import HostSystem
from repro.runtime.monitor import MonitorService


def make_machine(width=8, height=8, cores=4) -> SpiNNakerMachine:
    return SpiNNakerMachine(MachineConfig(width=width, height=height,
                                          cores_per_chip=cores))


def fail_chip(machine: SpiNNakerMachine, x: int, y: int) -> ChipCoordinate:
    """Fail every core of one chip (the partitioner's fault predicate)."""
    coordinate = ChipCoordinate(x, y)
    for core in machine.chips[coordinate].cores:
        core.run_self_test(False)
    return coordinate


# ----------------------------------------------------------------------
# Rectangle arithmetic
# ----------------------------------------------------------------------
class TestRect:
    def test_subtract_interior_hole_covers_complement(self):
        pieces = subtract(Rect(0, 0, 8, 8), Rect(3, 3, 2, 2))
        assert sum(p.area for p in pieces) == 64 - 4
        covered = {c for p in pieces for c in p.chips()}
        assert ChipCoordinate(3, 3) not in covered
        assert ChipCoordinate(0, 0) in covered and len(covered) == 60

    def test_subtract_disjoint_is_identity(self):
        rect = Rect(0, 0, 4, 4)
        assert subtract(rect, Rect(5, 5, 2, 2)) == [rect]

    def test_coalesce_merges_edge_sharing_rectangles(self):
        machine = make_machine()
        partitioner = MachinePartitioner(machine)
        a = partitioner.allocate(4, 4)
        b = partitioner.allocate(4, 4)  # beside a: together the 8x4 bottom
        partitioner.allocate(8, 4)      # the top half stays leased
        partitioner.release(a)
        partitioner.release(b)
        assert partitioner.free_rectangles == [Rect(0, 0, 8, 4)]


# ----------------------------------------------------------------------
# Fault-aware allocation
# ----------------------------------------------------------------------
class TestFaultAwareness:
    def test_failed_chips_are_never_allocated(self):
        machine = make_machine()
        faulty = [fail_chip(machine, 2, 2), fail_chip(machine, 5, 6)]
        partitioner = MachinePartitioner(machine)
        leases = []
        for width, height in ((2, 2), (1, 1)):
            while True:
                lease = partitioner.allocate(width, height)
                if lease is None:
                    break
                leases.append(lease)
        allocated = {c for lease in leases for c in lease.chips()}
        for coordinate in faulty:
            assert coordinate not in allocated
        # Everything except the dead silicon is allocatable.
        assert len(allocated) == 64 - len(faulty)

    def test_chip_with_all_links_failed_is_unusable(self):
        machine = make_machine(4, 4)
        dead = ChipCoordinate(1, 1)
        for direction in Direction:
            machine.fail_link(dead, direction)
        partitioner = MachinePartitioner(machine)
        assert dead in partitioner.faulty
        assert partitioner.free_area == 15

    def test_every_policy_avoids_faults(self):
        for policy in ("first-fit", "best-fit", "locality-fit"):
            machine = make_machine()
            faulty = fail_chip(machine, 1, 1)
            partitioner = MachinePartitioner(machine)
            lease = partitioner.allocate(4, 4, policy=policy)
            assert lease is not None
            assert faulty not in lease.chips()


# ----------------------------------------------------------------------
# Fragmentation and coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_out_of_order_release_coalesces_back_to_solid_block(self):
        machine = make_machine()
        partitioner = MachinePartitioner(machine)
        quads = [partitioner.allocate(4, 4) for _ in range(4)]
        assert all(lease is not None for lease in quads)
        assert partitioner.free_area == 0
        # Release in a scrambled order; every release coalesces.
        for index in (2, 0, 3, 1):
            partitioner.release(quads[index])
        assert partitioner.free_rectangles == [Rect(0, 0, 8, 8)]
        assert partitioner.fragmentation() == 0.0

    def test_wide_request_needs_coalescing_of_adjacent_releases(self):
        machine = make_machine()
        partitioner = MachinePartitioner(machine)
        quads = [partitioner.allocate(4, 4) for _ in range(4)]
        # Free the two bottom quadrants (released out of order).
        bottom = [lease for lease in quads if lease.rect.y == 0]
        partitioner.release(bottom[1])
        partitioner.release(bottom[0])
        # 8x4 only fits if the two 4x4 holes merged into one rectangle.
        wide = partitioner.allocate(8, 4)
        assert wide is not None
        assert wide.rect == Rect(0, 0, 8, 4)

    def test_fragmentation_statistic_tracks_free_list_shape(self):
        machine = make_machine()
        partitioner = MachinePartitioner(machine)
        assert partitioner.fragmentation() == 0.0
        a = partitioner.allocate(3, 3)
        b = partitioner.allocate(3, 3)
        partitioner.release(a)
        assert 0.0 < partitioner.fragmentation() < 1.0
        partitioner.release(b)
        assert partitioner.fragmentation() == 0.0


# ----------------------------------------------------------------------
# Queue and quotas
# ----------------------------------------------------------------------
class TestQueueAndQuotas:
    def test_priority_order_with_fifo_tie_break(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine)
        filler = scheduler.submit(JobRequest("filler", 8, 8))
        assert filler.state.is_active
        q = [scheduler.submit(JobRequest("t%d" % i, 4, 4, priority=p))
             for i, p in enumerate((5, 1, 5, 2))]
        pending = scheduler.queued_jobs()
        assert [job.request.priority for job in pending] == [1, 2, 5, 5]
        assert pending[2] is q[0]  # FIFO among equal priorities

    def test_oversized_request_is_rejected_not_queued(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine)
        job = scheduler.submit(JobRequest("alice", 20, 20))
        assert job.state is JobState.REJECTED
        assert not scheduler.queued_jobs()

    def test_submission_rate_limit_rejects_burst_overflow(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine)
        scheduler.queue.set_quota(TenantQuota(
            tenant="alice", submission_rate_per_ms=0.001,
            submission_burst=2, max_active_jobs=100))
        outcomes = [scheduler.submit(JobRequest("alice", 1, 1)).state
                    for _ in range(4)]
        assert outcomes[:2] == [JobState.QUEUED, JobState.QUEUED] or \
            outcomes[:2] == [JobState.POWERING, JobState.POWERING]
        assert outcomes[2] is JobState.REJECTED
        assert outcomes[3] is JobState.REJECTED
        assert scheduler.stats.rejected == 2

    def test_over_quota_job_queues_then_runs_after_release(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        scheduler.queue.set_quota(TenantQuota(tenant="alice",
                                              max_active_jobs=1,
                                              submission_burst=8))
        first = scheduler.submit(JobRequest("alice", 2, 2))
        second = scheduler.submit(JobRequest("alice", 2, 2))
        assert first.state is JobState.POWERING
        assert second.state is JobState.QUEUED
        assert scheduler.stats.skips_quota >= 1
        scheduler.release(first.job_id)
        assert second.state is JobState.POWERING
        machine.run()
        assert second.state is JobState.READY

    def test_chip_quota_counts_leased_area(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine)
        scheduler.queue.set_quota(TenantQuota(tenant="alice",
                                              max_leased_chips=20,
                                              submission_burst=8))
        big = scheduler.submit(JobRequest("alice", 4, 4))     # 16 chips
        small = scheduler.submit(JobRequest("alice", 3, 3))   # would be 25
        assert big.state.is_active
        assert small.state is JobState.QUEUED

    def test_smaller_job_can_overtake_blocked_head_of_queue(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine)
        filler = scheduler.submit(JobRequest("bob", 8, 7))
        blocked = scheduler.submit(JobRequest("bob", 4, 4, priority=1))
        nimble = scheduler.submit(JobRequest("carol", 8, 1, priority=5))
        assert filler.state.is_active
        assert blocked.state is JobState.QUEUED   # no 4x4 hole left
        assert nimble.state.is_active             # the 8x1 strip fits


# ----------------------------------------------------------------------
# Keepalive expiry
# ----------------------------------------------------------------------
class TestKeepaliveExpiry:
    def test_expired_job_is_reclaimed_and_queue_drains(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        holder = scheduler.submit(JobRequest("alice", 8, 8,
                                             keepalive_ms=5.0))
        machine.run()
        assert holder.state is JobState.READY
        waiter = scheduler.submit(JobRequest("bob", 4, 4,
                                             keepalive_ms=1e6))
        assert waiter.state is JobState.QUEUED
        # Advance past the keepalive interval without touching the job.
        machine.kernel.run_until(machine.kernel.now + 10_000.0)
        expired = scheduler.sweep()
        assert holder in expired
        assert holder.state is JobState.EXPIRED
        assert waiter.state is JobState.POWERING
        machine.run()
        assert waiter.state is JobState.READY

    def test_keepalives_keep_the_job_alive(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        job = scheduler.submit(JobRequest("alice", 2, 2, keepalive_ms=5.0))
        machine.run()
        for _ in range(5):
            machine.kernel.run_until(machine.kernel.now + 3_000.0)
            assert scheduler.keepalive(job.job_id)
            assert not scheduler.sweep()
        assert job.state is JobState.READY

    def test_queued_job_of_a_crashed_client_expires_too(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        scheduler.queue.set_quota(TenantQuota(tenant="alice",
                                              max_active_jobs=1,
                                              submission_burst=8))
        holder = scheduler.submit(JobRequest("alice", 2, 2,
                                             keepalive_ms=1e6))
        stuck = scheduler.submit(JobRequest("alice", 2, 2,
                                            keepalive_ms=5.0))
        assert stuck.state is JobState.QUEUED
        machine.kernel.run_until(machine.kernel.now + 10_000.0)
        scheduler.sweep()
        assert stuck.state is JobState.EXPIRED
        assert holder.state.is_active  # its keepalive interval is huge

    def test_periodic_expiry_timer_reclaims_without_manual_sweeps(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        job = scheduler.submit(JobRequest("alice", 2, 2, keepalive_ms=4.0))
        scheduler.start_expiry_timer(period_ms=1.0)
        machine.kernel.run_until(machine.kernel.now + 20_000.0)
        scheduler.stop_expiry_timer()
        assert job.state is JobState.EXPIRED
        assert scheduler.partitioner.leased_area == 0


# ----------------------------------------------------------------------
# Lifecycle invariants
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_illegal_transitions_are_rejected(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        job = scheduler.submit(JobRequest("alice", 2, 2))
        machine.run()
        assert job.state is JobState.READY
        with pytest.raises(ValueError):
            job.transition(JobState.POWERING, 0.0)
        scheduler.release(job.job_id)
        assert job.state is JobState.FREED
        assert not scheduler.release(job.job_id)  # terminal: no-op

    def test_release_while_powering_cancels_power_on(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=500.0)
        job = scheduler.submit(JobRequest("alice", 2, 2))
        assert job.state is JobState.POWERING
        scheduler.release(job.job_id)
        machine.run()
        assert job.state is JobState.FREED
        assert job.machine_view is None
        assert scheduler.partitioner.leased_area == 0

    def test_history_records_the_whole_path(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine, power_on_delay_us=0.0)
        job = scheduler.submit(JobRequest("alice", 2, 2))
        machine.run()
        scheduler.release(job.job_id)
        assert [state for state, _t in job.history] == [
            JobState.QUEUED, JobState.POWERING, JobState.READY,
            JobState.FREED]


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
class TestPlacementPolicies:
    def test_best_fit_prefers_the_tightest_hole(self):
        machine = make_machine()
        partitioner = MachinePartitioner(machine)
        # Carve the free space into an 8x4 hole at y=0 and an 8x2 hole at
        # y=6, kept apart by a live 8x2 lease at y=4.
        big = partitioner.allocate(8, 4)
        partitioner.allocate(8, 2)
        small = partitioner.allocate(8, 2)
        partitioner.release(big)
        partitioner.release(small)
        lease = partitioner.allocate(3, 2, policy="best-fit")
        assert lease.rect.y == 6  # the tight 8x2 hole, not the 8x4 one
        first = partitioner.allocate(3, 2, policy="first-fit")
        assert first.rect.y == 0  # first-fit takes the raster-first hole

    def test_locality_fit_hugs_the_gateway(self):
        machine = make_machine()
        partitioner = MachinePartitioner(machine)
        lease = partitioner.allocate(2, 2, policy="locality-fit")
        gateway = machine.ethernet_chips[0]
        assert machine.geometry.distance(lease.rect.centre(), gateway) <= 2

    def test_locality_fit_keeps_clear_of_faulty_silicon(self):
        machine = make_machine()
        # A fault wall near the origin makes the origin corner unattractive.
        for x in range(3):
            fail_chip(machine, x, 2)
        fail_chip(machine, 2, 0)
        fail_chip(machine, 2, 1)
        partitioner = MachinePartitioner(machine)
        lease = partitioner.allocate(2, 2, policy="locality-fit")
        perimeter_faults = partitioner._faulty_perimeter(lease.rect)
        assert perimeter_faults == 0


# ----------------------------------------------------------------------
# Monitor integration: leases shrink when chips die
# ----------------------------------------------------------------------
class TestMonitorIntegration:
    def test_condemned_chip_shrinks_the_owning_lease(self):
        machine = make_machine()
        host = HostSystem(machine)
        server = AllocationServer(host, power_on_delay_us=0.0)
        monitor = MonitorService(machine)
        server.attach_monitor(monitor)
        job = server.create_job("alice", 4, 4)
        machine.run()
        assert job.state is JobState.READY
        victim = next(iter(job.machine_view.chips))
        monitor.condemn_chip(victim)
        assert victim not in job.machine_view.chips
        assert job.lease.n_chips == 15
        assert monitor.report.chips_condemned == 1
        # The dead chip never returns to the pool, even after release.
        server.release(job.job_id)
        assert victim in server.scheduler.partitioner.faulty
        assert server.scheduler.partitioner.free_area == 63

    def test_condemning_twice_counts_once(self):
        machine = make_machine()
        host = HostSystem(machine)
        server = AllocationServer(host)
        monitor = MonitorService(machine)
        server.attach_monitor(monitor)
        monitor.condemn_chip(ChipCoordinate(3, 3))
        monitor.condemn_chip(ChipCoordinate(3, 3))
        server.scheduler.handle_dead_chip(ChipCoordinate(3, 3))  # repeat
        assert monitor.report.chips_condemned == 1
        assert server.scheduler.stats.chips_condemned == 1

    def test_reclaimed_job_no_longer_reports_a_lease(self):
        machine = make_machine()
        host = HostSystem(machine)
        server = AllocationServer(host, power_on_delay_us=0.0)
        job = server.create_job("alice", 2, 2)
        machine.run()
        assert server.release(job.job_id)
        released = job.describe()
        assert released["state"] == "freed"
        assert "lease" not in released  # the chips went back to the pool
        assert job.lease is None

    def test_condemned_free_chip_leaves_the_pool(self):
        machine = make_machine()
        host = HostSystem(machine)
        server = AllocationServer(host)
        monitor = MonitorService(machine)
        server.attach_monitor(monitor)
        monitor.condemn_chip(ChipCoordinate(3, 3))
        lease = server.scheduler.partitioner.allocate(8, 8)
        assert lease is None  # the full square no longer exists
        assert server.scheduler.partitioner.free_area == 63


# ----------------------------------------------------------------------
# The server's object API (the host-side front door for jobs)
# ----------------------------------------------------------------------
class TestAllocationServerObjectAPI:
    def test_create_keepalive_release_round_trip(self):
        machine = make_machine()
        server = AllocationServer(HostSystem(machine), power_on_delay_us=0.0)
        job = server.create_job("alice", 3, 3, priority=2, keepalive_ms=50.0)
        assert job.state in (JobState.QUEUED, JobState.POWERING)
        assert server.job(job.job_id) is job
        machine.run()
        assert server.keepalive(job.job_id)
        assert job.describe()["state"] == "ready"
        assert server.release(job.job_id)
        assert job.describe()["state"] == "freed"
        assert server.scheduler.partitioner.leased_area == 0

    def test_unknown_jobs_report_false_or_none(self):
        server = AllocationServer(HostSystem(make_machine()))
        assert server.keepalive(999) is False
        assert server.release(999) is False
        assert server.job(999) is None
        assert server.machine_view(999) is None

    def test_bad_arguments_raise_and_queue_nothing(self):
        server = AllocationServer(HostSystem(make_machine()))
        with pytest.raises(ValueError, match="tenant"):
            server.create_job("", 2, 2)
        with pytest.raises(ValueError, match="dimensions"):
            server.create_job("alice", 0, 2)
        with pytest.raises(ValueError, match="keepalive"):
            server.create_job("alice", 2, 2, keepalive_ms=0.0)
        assert server.scheduler.jobs == {}
        assert server.scheduler.queue_depth() == 0
        # A well-formed request still goes through afterwards.
        assert server.create_job("alice", 2, 2).state is not JobState.REJECTED

    def test_chip_commands_are_unaffected(self):
        machine = make_machine()
        host = HostSystem(machine)
        AllocationServer(host)
        status = host.query_status(host.gateway)
        assert "booted" in status

    def test_scheduler_and_scheduler_options_are_exclusive(self):
        machine = make_machine()
        scheduler = AllocationScheduler(machine)
        with pytest.raises(ValueError, match="not both"):
            AllocationServer(HostSystem(machine), scheduler,
                             power_on_delay_us=0.0)
        server = AllocationServer(HostSystem(machine), scheduler)
        assert server.scheduler is scheduler

    def test_machine_view_exists_only_while_ready(self):
        machine = make_machine()
        server = AllocationServer(HostSystem(machine), power_on_delay_us=50.0)
        job = server.create_job("alice", 2, 2)
        assert job.state is JobState.POWERING
        assert server.machine_view(job.job_id) is None
        machine.run()
        view = server.machine_view(job.job_id)
        assert view is job.machine_view and len(view.chips) == 4
        server.release(job.job_id)
        assert server.machine_view(job.job_id) is None

    def test_second_release_and_late_keepalive_change_nothing(self):
        machine = make_machine()
        server = AllocationServer(HostSystem(machine), power_on_delay_us=0.0)
        job = server.create_job("alice", 2, 2)
        machine.run()
        assert server.release(job.job_id)
        freed = server.scheduler.stats.freed
        assert server.release(job.job_id) is False
        assert server.keepalive(job.job_id) is False
        assert job.state is JobState.FREED
        assert server.scheduler.stats.freed == freed
