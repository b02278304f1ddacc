"""Discrete-event simulation kernel.

The SpiNNaker machine has no global clock: "time models itself" (Section
3.1 of the paper).  Each component advances in response to events whose
timestamps are expressed in simulated microseconds.  This module provides
the event queue shared by all hardware models in the reproduction.

The kernel is deliberately simple: a binary-heap priority queue of
``(time, priority, sequence, event)`` tuples.  Ties in time are broken by an
explicit priority (smaller value runs first, mirroring the vectored
interrupt controller priorities of Figure 7) and then by insertion order so
runs are fully deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.profile import profile_stage

#: Number of simulated microseconds in one millisecond; the neuron update
#: tick of the real-time application model is 1 ms (Section 3.1).
MICROSECONDS_PER_MILLISECOND = 1000.0

# Whole-loop stages (per-event spans would swamp the heap pop itself);
# hoisted so repeated runs re-enter the same objects.
_RUN_STAGE = profile_stage("kernel_run")
_RUN_UNTIL_STAGE = profile_stage("kernel_run_until")


@dataclass(order=False)
class Event:
    """A single scheduled event.

    Attributes
    ----------
    time:
        Simulated time (microseconds) at which the event fires.
    callback:
        Callable invoked as ``callback(kernel, **kwargs)`` when the event
        fires.
    priority:
        Tie-breaking priority.  Lower values run first at equal timestamps,
        mirroring the interrupt priorities of the application model
        (packet-received = 1, DMA-complete = 2, millisecond timer = 3).
    kwargs:
        Keyword arguments forwarded to the callback.
    label:
        Optional human-readable label used in traces and error messages.
    weight:
        Number of *logical* events this entry stands for.  The compiled
        transport fabric coalesces a whole spike batch into one scheduled
        callback; the weight keeps :attr:`EventKernel.events_processed`
        comparable between the per-packet and the batched transports.
    """

    time: float
    callback: Callable[..., Any]
    priority: int = 10
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    cancelled: bool = False
    weight: int = 1

    def cancel(self) -> None:
        """Mark the event so that the kernel skips it when it is popped."""
        self.cancelled = True


class EventKernel:
    """A deterministic discrete-event scheduler.

    The kernel is the single source of simulated time for the whole machine
    model.  Components schedule callbacks with :meth:`schedule` (absolute
    time) or :meth:`schedule_after` (relative delay) and the simulation is
    advanced with :meth:`run` / :meth:`run_until` / :meth:`step`.

    Examples
    --------
    >>> kernel = EventKernel()
    >>> fired = []
    >>> _ = kernel.schedule_after(5.0, lambda k: fired.append(k.now))
    >>> kernel.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._queue: List[tuple] = []
        self._sequence = 0
        self._now = 0.0
        self._events_processed = 0
        self._trace: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # Time and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue (including cancelled)."""
        return len(self._queue)

    def enable_trace(self) -> None:
        """Record ``(time, label)`` for every executed event (for debugging)."""
        self._trace = []

    @property
    def trace(self) -> List[tuple]:
        """The recorded trace, or an empty list if tracing is disabled."""
        return list(self._trace) if self._trace is not None else []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, callback: Callable[..., Any], *,
                 priority: int = 10, label: str = "", **kwargs: Any) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises
        ------
        ValueError
            If ``time`` is in the simulated past.
        """
        if time < self._now:
            raise ValueError(
                "cannot schedule event at t=%.3f us: current time is %.3f us"
                % (time, self._now)
            )
        event = Event(time=time, callback=callback, priority=priority,
                      kwargs=kwargs, label=label)
        heapq.heappush(self._queue, (time, priority, self._sequence, event))
        self._sequence += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[..., Any], *,
                       priority: int = 10, label: str = "",
                       **kwargs: Any) -> Event:
        """Schedule ``callback`` after ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % (delay,))
        return self.schedule(self._now + delay, callback, priority=priority,
                             label=label, **kwargs)

    def schedule_batch(self, delay: float, callback: Callable[..., Any], *,
                       count: int, priority: int = 10, label: str = "",
                       **kwargs: Any) -> Event:
        """Schedule one callback standing for ``count`` coalesced events.

        The batched-event variant used by the compiled transport fabric:
        a whole spike batch is carried by a single heap entry (one pop,
        one callback) but still counts as ``count`` logical events in
        :attr:`events_processed`, so event-throughput metrics remain
        comparable with the per-packet transport.
        """
        if count < 1:
            raise ValueError("a batched event must carry at least one "
                             "logical event, got %r" % (count,))
        event = self.schedule_after(delay, callback, priority=priority,
                                    label=label, **kwargs)
        event.weight = int(count)
        return event

    def schedule_periodic(self, period: float, callback: Callable[..., Any], *,
                          start: Optional[float] = None, priority: int = 10,
                          label: str = "") -> Event:
        """Schedule ``callback`` every ``period`` microseconds.

        The callback is invoked as ``callback(kernel)``; it is rescheduled
        automatically until the returned event is cancelled.  Cancelling the
        *returned* event stops the whole periodic chain.  The ``k``-th
        firing (from 0) happens at exactly ``first + k * period`` —
        the returned event's ``time`` is ``first`` — so a caller can
        compute any tick's timestamp without accumulated rounding error.
        """
        if period <= 0:
            raise ValueError("period must be positive, got %r" % (period,))
        first_time = self._now + period if start is None else start

        # The controller object is shared across repetitions so a single
        # cancel() stops the chain.
        controller = Event(time=first_time, callback=callback,
                           priority=priority, label=label)
        fired = 0

        def _fire(kernel: "EventKernel") -> None:
            nonlocal fired
            if controller.cancelled:
                return
            callback(kernel)
            if not controller.cancelled:
                fired += 1
                kernel.schedule(first_time + fired * period, _fire,
                                priority=priority, label=label)

        self.schedule(first_time, _fire, priority=priority, label=label)
        return controller

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty.
        """
        while self._queue:
            time, _priority, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            if self._trace is not None:
                self._trace.append((time, event.label))
            event.callback(self, **event.kwargs)
            self._events_processed += event.weight
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` is reached).

        Returns the number of events executed by this call.
        """
        executed = 0
        with _RUN_STAGE:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                if self.step():
                    executed += 1
        return executed

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= end_time``.

        The simulated clock is advanced to ``end_time`` if the queue drains
        (or holds only later events), so periodic processes resumed later
        see a consistent time base.  When the run is cut short by
        ``max_events`` the clock is left at the last executed event —
        advancing it to ``end_time`` would make the still-pending events
        before ``end_time`` execute with the clock moving backwards.
        Returns the number of events executed.
        """
        if end_time < self._now:
            raise ValueError(
                "end_time %.3f us is before current time %.3f us"
                % (end_time, self._now)
            )
        executed = 0
        with _RUN_UNTIL_STAGE:
            while self._queue:
                next_time = self._peek_time()
                if next_time is None or next_time > end_time:
                    break
                if max_events is not None and executed >= max_events:
                    # Cut short with executable events still pending: leave
                    # the clock at the last executed event.
                    return executed
                if self.step():
                    executed += 1
        self._now = max(self._now, end_time)
        return executed

    def _peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None``."""
        while self._queue:
            time, _priority, _seq, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            return time
        return None


def milliseconds(value: float) -> float:
    """Convert milliseconds to the kernel's microsecond time base."""
    return value * MICROSECONDS_PER_MILLISECOND


def microseconds(value: float) -> float:
    """Identity helper for readability when building time expressions."""
    return float(value)
