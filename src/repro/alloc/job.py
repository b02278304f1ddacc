"""Job lifecycle: the unit of tenancy on the shared machine.

A job asks for a ``width x height`` sub-machine and moves through the
spalloc-style state machine::

    QUEUED ──────▶ POWERING ──▶ READY ──▶ FREED
       │                │          │
       ▼                ▼          ▼
    REJECTED │ EXPIRED         EXPIRED

* **QUEUED** — admitted to the queue, waiting for capacity and quota;
* **POWERING** — a lease has been carved out and the boards are being
  power-cycled (modelled as a fixed delay plus the allocation
  controller's own decision latency);
* **READY** — the job holds a :class:`~repro.alloc.machine_view.LeasedMachineView`
  it can boot and load independently of every other job;
* **FREED** — released by its owner; the lease returns to the free pool;
* **EXPIRED** — the owner stopped sending keepalives and the server
  reclaimed the lease (the classic crashed-client defence);
* **REJECTED** — refused at submission because the tenant exceeded its
  job-submission rate (token-bucket policed, see :mod:`repro.alloc.queue`).

Timestamps are milliseconds of simulated time from the shared event
kernel, matching the time base of :mod:`repro.core.admission`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["JobState", "JobRequest", "Job"]


class JobState(Enum):
    """The lifecycle states of an allocation job."""

    QUEUED = "queued"
    POWERING = "powering"
    READY = "ready"
    FREED = "freed"
    EXPIRED = "expired"
    REJECTED = "rejected"

    @property
    def is_terminal(self) -> bool:
        """True for states a job never leaves."""
        return self in (JobState.FREED, JobState.EXPIRED, JobState.REJECTED)

    @property
    def is_active(self) -> bool:
        """True while the job holds (or is acquiring) a lease."""
        return self in (JobState.POWERING, JobState.READY)


#: Legal state transitions; anything else is a scheduler bug.
_TRANSITIONS: Dict[JobState, Set[JobState]] = {
    JobState.QUEUED: {JobState.POWERING, JobState.FREED, JobState.EXPIRED,
                      JobState.REJECTED},
    JobState.POWERING: {JobState.READY, JobState.FREED, JobState.EXPIRED},
    JobState.READY: {JobState.FREED, JobState.EXPIRED},
    JobState.FREED: set(),
    JobState.EXPIRED: set(),
    JobState.REJECTED: set(),
}


@dataclass(frozen=True)
class JobRequest:
    """What a tenant asks for when creating a job."""

    tenant: str
    width: int
    height: int
    #: Smaller numbers are scheduled first (same convention as the
    #: admission controller's traffic-class priorities).
    priority: int = 5
    #: The job expires if no keepalive arrives for this long.
    keepalive_ms: float = 1000.0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("a job must name its tenant")
        if self.width < 1 or self.height < 1:
            raise ValueError("job dimensions must be positive")
        if self.keepalive_ms <= 0:
            raise ValueError("keepalive interval must be positive")

    @property
    def n_chips(self) -> int:
        """Number of chips the job asks for."""
        return self.width * self.height


class Job:
    """One tenancy moving through the allocation state machine."""

    def __init__(self, job_id: int, request: JobRequest,
                 now_ms: float) -> None:
        self.job_id = job_id
        self.request = request
        self.state = JobState.QUEUED
        self.submitted_ms = now_ms
        self.last_keepalive_ms = now_ms
        #: Every (state, time) the job has passed through, oldest first.
        self.history: List[Tuple[JobState, float]] = [(JobState.QUEUED, now_ms)]
        #: Set when the job is scheduled (POWERING onwards).
        self.lease = None
        #: Set when the job becomes READY.
        self.machine_view = None

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def transition(self, state: JobState, now_ms: float) -> None:
        """Move to ``state``, enforcing the legal transition graph."""
        if state not in _TRANSITIONS[self.state]:
            raise ValueError("job %d cannot move %s -> %s"
                             % (self.job_id, self.state.value, state.value))
        self.state = state
        self.history.append((state, now_ms))

    def time_entered(self, state: JobState) -> Optional[float]:
        """When the job first entered ``state``, or ``None``."""
        for entered, time_ms in self.history:
            if entered is state:
                return time_ms
        return None

    # ------------------------------------------------------------------
    # Keepalive
    # ------------------------------------------------------------------
    def touch(self, now_ms: float) -> bool:
        """Record a keepalive; returns False if the job is already over.

        Queued jobs need keepalives too: a job whose owner crashed while
        it waited for capacity must leave the queue, not haunt it.
        """
        if self.state.is_terminal:
            return False
        self.last_keepalive_ms = now_ms
        return True

    def keepalive_expired(self, now_ms: float) -> bool:
        """True if the owner has gone quiet for longer than the interval."""
        return (not self.state.is_terminal
                and now_ms - self.last_keepalive_ms > self.request.keepalive_ms)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def wait_ms(self, now_ms: Optional[float] = None) -> float:
        """Time spent in the queue before scheduling (or until ``now_ms``)."""
        scheduled = self.time_entered(JobState.POWERING)
        if scheduled is not None:
            return scheduled - self.submitted_ms
        if now_ms is None or self.state is not JobState.QUEUED:
            return 0.0
        return now_ms - self.submitted_ms

    def describe(self) -> Dict[str, object]:
        """A wire-friendly summary (the HTTP service's job body)."""
        summary: Dict[str, object] = {
            "job_id": self.job_id,
            "tenant": self.request.tenant,
            "state": self.state.value,
            "width": self.request.width,
            "height": self.request.height,
            "priority": self.request.priority,
            "submitted_ms": self.submitted_ms,
            "keepalive_ms": self.request.keepalive_ms,
            "wait_ms": self.wait_ms(),
        }
        if self.lease is not None:
            summary["lease"] = str(self.lease.rect)
            summary["rect"] = {"x": self.lease.rect.x,
                               "y": self.lease.rect.y,
                               "width": self.lease.rect.width,
                               "height": self.lease.rect.height}
            summary["n_chips"] = self.lease.n_chips
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return ("Job(%d, %s, %dx%d, %s)"
                % (self.job_id, self.request.tenant, self.request.width,
                   self.request.height, self.state.value))
