"""The host-side allocation server (spalloc's role in this reproduction).

The server admits multi-tenant jobs on the machine its
:class:`~repro.host.host_system.HostSystem` drives.  Python callers use
the object API (:meth:`create_job`, :meth:`keepalive`, :meth:`release`,
:meth:`machine_view`) to get the actual
:class:`~repro.alloc.machine_view.LeasedMachineView` a READY job boots
and loads; remote tenants reach the same API over HTTP through
:mod:`repro.service`.

The server can also subscribe to the
:class:`~repro.runtime.monitor.MonitorService`: chips the monitor
condemns shrink the owning lease and leave the allocatable pool for good.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.alloc.job import Job, JobRequest
from repro.alloc.machine_view import LeasedMachineView
from repro.alloc.scheduler import AllocationScheduler
from repro.host.host_system import HostSystem

__all__ = ["AllocationServer"]


class AllocationServer:
    """Multi-tenant job admission on the machine ``host`` drives."""

    def __init__(self, host: HostSystem,
                 scheduler: Optional[AllocationScheduler] = None,
                 **scheduler_kwargs: Any) -> None:
        self.host = host
        self.machine = host.machine
        if scheduler is not None and scheduler_kwargs:
            raise ValueError("pass scheduler options either as a built "
                             "scheduler or as keyword arguments, not both")
        self.scheduler = scheduler or AllocationScheduler(self.machine,
                                                          **scheduler_kwargs)

    # ------------------------------------------------------------------
    # Object API (host-side Python callers)
    # ------------------------------------------------------------------
    def create_job(self, tenant: str, width: int, height: int,
                   priority: int = 5, keepalive_ms: float = 1000.0,
                   label: str = "") -> Job:
        """Submit a job and return the live :class:`Job` object."""
        return self.scheduler.submit(JobRequest(
            tenant=tenant, width=width, height=height, priority=priority,
            keepalive_ms=keepalive_ms, label=label))

    def keepalive(self, job_id: int) -> bool:
        """Refresh a job's keepalive."""
        return self.scheduler.keepalive(job_id)

    def release(self, job_id: int) -> bool:
        """Release a job's lease (or drop it from the queue)."""
        return self.scheduler.release(job_id)

    def job(self, job_id: int) -> Optional[Job]:
        """Look up a job."""
        return self.scheduler.job(job_id)

    def machine_view(self, job_id: int) -> Optional[LeasedMachineView]:
        """The scoped sub-machine of a READY job."""
        return self.scheduler.machine_view(job_id)

    # ------------------------------------------------------------------
    # Monitor integration
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor: Any) -> None:
        """Subscribe to a monitor service's chip-death notifications."""
        monitor.add_chip_death_listener(self.scheduler.handle_dead_chip)
