"""repro.alloc — multi-tenant machine allocation and job scheduling.

The Furber DATE'11 machine is explicitly a *shared* million-core
facility; this package turns the single-application simulator into one,
in the style of the SpiNNaker ecosystem's spalloc server:

* :mod:`repro.alloc.partition` — free-list allocation of rectangular,
  fault-free, torus-aware chip regions with coalescing on release;
* :mod:`repro.alloc.job` — the QUEUED → POWERING → READY →
  EXPIRED/FREED job lifecycle with keepalive accounting;
* :mod:`repro.alloc.queue` — priority queueing plus per-tenant quotas
  (token-bucket submission policing and concurrency caps);
* :mod:`repro.alloc.scheduler` — admission, placement policies
  (first-fit / best-fit / locality-fit), expiry sweeps and statistics;
* :mod:`repro.alloc.machine_view` — the scoped sub-machine a READY job
  boots and loads with the unchanged runtime layers;
* :mod:`repro.alloc.server` — the host-side object API jobs are
  admitted, kept alive and released through (HTTP via
  :mod:`repro.service`);
* :mod:`repro.alloc.workload` — synthetic Poisson job streams for the
  CLI demos and the throughput benchmark.
"""

from repro.alloc.job import Job, JobRequest, JobState
from repro.alloc.machine_view import LeasedMachineView, LeaseGeometry
from repro.alloc.partition import Lease, MachinePartitioner, Rect, PLACEMENT_POLICIES
from repro.alloc.queue import JobQueue, TenantQuota
from repro.alloc.scheduler import AllocationScheduler, AllocationStatistics
from repro.alloc.server import AllocationServer
from repro.alloc.workload import JobStreamConfig, run_job_stream

__all__ = [
    "Job",
    "JobRequest",
    "JobState",
    "Lease",
    "LeaseGeometry",
    "LeasedMachineView",
    "MachinePartitioner",
    "Rect",
    "PLACEMENT_POLICIES",
    "JobQueue",
    "TenantQuota",
    "AllocationScheduler",
    "AllocationStatistics",
    "AllocationServer",
    "JobStreamConfig",
    "run_job_stream",
]
