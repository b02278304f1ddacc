"""The always-on stage profiler (:class:`ProfileRegistry`).

Every subsystem of the reproduction has a phase-structured hot path —
the compile passes, the Fig. 7 timer-tick loop (timer → spike
processing → exchange), the cluster super-step stages, fabric batch
delivery, service request handling — and each used to time itself with
its own ad-hoc ``perf_counter`` pairs, or not at all.  This module is
the one substrate they all report through:

* a **stage** is a named span entered via :meth:`ProfileRegistry.stage`
  (context manager *and* decorator);
* stages **nest**: a stage entered while another is open on the same
  thread is recorded under the open stage's path, and the parent's
  *self* seconds exclude the child's span;
* the registry records, per path, the **call count**, **cumulative
  seconds** (whole span) and **self seconds** (span minus profiled
  children);
* :meth:`snapshot` / :meth:`merge` copy a registry as plain, picklable
  tuples and fold one registry into another;
* :meth:`flatten` renders ``profile_<stage>_s`` / ``_self_s`` /
  ``_calls`` keys for ``benchmarks/reporting.emit_json``, which is how
  stage timings land in the ``BENCH_*.json`` files the perf-regression
  gate trends.

The **process-global** registry is gated by the ``REPRO_PROFILE``
environment flag (any value but empty/``0``) and is *disabled* by
default: the disabled path of :func:`profile_stage` and
:func:`record_stage` is a single attribute check and an immediate
return (no frame push, no clock read, no allocation beyond the reused
stage object), so instrumentation can stay in the tick loops of
production runs.  The compile pipeline, whose per-pass report must
always measure, constructs its own always-enabled registry instead; the
cluster runner times its workers into always-on stage tables and, under
this same flag (read at ``run()``), folds them into a per-run registry
of its own, so a bench sees one run's stages.

``time.perf_counter`` itself is sanctioned *only here* (enforced by the
``clock-discipline`` rule of :mod:`repro.checks`): everything else in
``src/repro`` measures durations through :func:`perf_now` or a stage,
so there is exactly one place timing behaviour can drift.
"""

from __future__ import annotations

import functools
import os
import re
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "ENV_FLAG", "StageRecord", "ProfileRegistry", "perf_now",
    "profile_stage", "record_stage", "get_registry", "enabled", "enable",
    "reset", "flatten", "snapshot", "merge",
]

#: Set (to anything but empty/``0``) to enable the process-global
#: registry without touching code.
ENV_FLAG = "REPRO_PROFILE"

#: The sanctioned duration clock: monotonic, highest available
#: resolution, meaningless as an absolute value (so it cannot leak into
#: scheduling decisions the way a wall "now" can).
perf_now = time.perf_counter

_SANITISE_RE = re.compile(r"[^0-9A-Za-z]+")

#: A stage path: names root → leaf, e.g. ``("pass_total", "place")``.
StagePath = Tuple[str, ...]


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def sanitise(name: str) -> str:
    """A stage name as a metric-key fragment (lower_snake, no symbols)."""
    return _SANITISE_RE.sub("_", name).strip("_").lower()


class StageRecord:
    """Accumulated figures of one stage path."""

    __slots__ = ("path", "calls", "cum_s", "self_s")

    def __init__(self, path: StagePath) -> None:
        self.path = path
        self.calls = 0
        self.cum_s = 0.0
        self.self_s = 0.0

    @property
    def name(self) -> str:
        """The leaf stage name."""
        return self.path[-1]

    @property
    def depth(self) -> int:
        """Nesting depth (1 = top level)."""
        return len(self.path)

    def as_tuple(self) -> Tuple[Tuple[str, ...], int, float, float]:
        """The picklable wire form used by :meth:`ProfileRegistry.snapshot`."""
        return (self.path, self.calls, self.cum_s, self.self_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "StageRecord(%s: %d calls, %.6fs cum, %.6fs self)" % (
            "/".join(self.path), self.calls, self.cum_s, self.self_s)


class _Frame:
    """One live stage entry on a thread's stage stack."""

    __slots__ = ("path", "began", "child_s", "elapsed_s")

    def __init__(self, path: StagePath, began: float) -> None:
        self.path = path
        self.began = began
        self.child_s = 0.0
        #: Filled at exit; readable after ``with ... as frame:`` blocks.
        self.elapsed_s = 0.0


class _NoopFrame:
    """What a disabled stage entry yields: inert, zero elapsed."""

    __slots__ = ()
    elapsed_s = 0.0


_NOOP_FRAME = _NoopFrame()


class _Stage:
    """A named stage bound to a registry.

    Stateless besides its name, so one instance can be hoisted out of a
    hot loop and re-entered every iteration — including concurrently
    from several threads (the per-entry state lives on a thread-local
    stack inside the registry).  Usable as a context manager or as a
    decorator; the decorator's disabled path tail-calls the wrapped
    function after a single flag check.
    """

    __slots__ = ("name", "registry")

    def __init__(self, name: str, registry: "ProfileRegistry") -> None:
        self.name = name
        self.registry = registry

    def __enter__(self) -> Union[_Frame, _NoopFrame]:
        registry = self.registry
        if not registry.enabled:
            return _NOOP_FRAME
        return registry._push(self.name)

    def __exit__(self, *_exc) -> bool:
        registry = self.registry
        if registry.enabled:
            registry._pop()
        return False

    def __call__(self, fn: Callable) -> Callable:
        registry = self.registry
        name = self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not registry.enabled:
                return fn(*args, **kwargs)
            registry._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                registry._pop()

        wrapper.__profile_stage__ = name
        return wrapper


class ProfileRegistry:
    """A per-process (or per-run) store of hierarchical stage timings."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        #: Live switch: flipping it never replaces the registry object,
        #: so stage objects hoisted at import stay valid.
        self.enabled = _env_enabled() if enabled is None else bool(enabled)
        self._lock = threading.Lock()
        self._records: Dict[StagePath, StageRecord] = {}  # guarded-by: _lock
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Stage entry/exit (the hot path)
    # ------------------------------------------------------------------
    def stage(self, name: str) -> _Stage:
        """A reusable stage bound to this registry (ctx manager/decorator)."""
        return _Stage(name, self)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str) -> _Frame:
        stack = self._stack()
        path = stack[-1].path + (name,) if stack else (name,)
        frame = _Frame(path, perf_now())
        stack.append(frame)
        return frame

    def _pop(self) -> None:
        stack = getattr(self._local, "stack", None)
        if not stack:
            # The profiler was enabled mid-stage; nothing was pushed at
            # entry, so there is nothing to account.
            return
        frame = stack.pop()
        elapsed = perf_now() - frame.began
        frame.elapsed_s = elapsed
        if stack:
            stack[-1].child_s += elapsed
        self._record(frame.path, 1, elapsed, elapsed - frame.child_s)

    def _record(self, path: StagePath, calls: int, cum_s: float,
                self_s: float) -> None:
        with self._lock:
            record = self._records.get(path)
            if record is None:
                record = self._records[path] = StageRecord(path)
            record.calls += calls
            record.cum_s += cum_s
            record.self_s += self_s

    # ------------------------------------------------------------------
    # Adopting externally measured counters
    # ------------------------------------------------------------------
    def add(self, path: Union[str, StagePath], seconds: float,
            calls: int = 1, self_s: Optional[float] = None) -> None:
        """Fold an externally measured duration into the registry.

        For counters a subsystem accumulates itself (the cluster
        workers' stage tables, the service's request latencies)
        rather than timing through a live stage entry.  ``self_s``
        defaults to ``seconds`` (no profiled children).
        """
        if isinstance(path, str):
            path = (path,)
        self._record(tuple(path), calls,
                     seconds, seconds if self_s is None else self_s)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def records(self) -> List[StageRecord]:
        """Every stage record, sorted by path (stable across runs)."""
        with self._lock:
            return [self._records[path] for path in sorted(self._records)]

    def stage_seconds(self) -> Dict[str, float]:
        """Leaf stage name -> cumulative seconds (summed over paths)."""
        totals: Dict[str, float] = {}
        for record in self.records():
            name = record.name
            totals[name] = totals.get(name, 0.0) + record.cum_s
        return totals

    def snapshot(self) -> List[Tuple[Tuple[str, ...], int, float, float]]:
        """A picklable copy of every record (the worker-pipe wire form)."""
        with self._lock:
            return [self._records[path].as_tuple()
                    for path in sorted(self._records)]

    def merge(self, other: Union["ProfileRegistry",
                                 Iterable[Tuple]]) -> None:
        """Fold another registry (or a :meth:`snapshot`) into this one."""
        rows = other.snapshot() if isinstance(other, ProfileRegistry) \
            else other
        for path, calls, cum_s, self_s in rows:
            self._record(tuple(path), calls, cum_s, self_s)

    def flatten(self, prefix: str = "profile_") -> Dict[str, float]:
        """Stage figures as flat ``{metric_name: float}`` pairs.

        Aggregates by *leaf* stage name (one stage reached through two
        parents reports one combined figure) and emits three keys per
        stage — ``<prefix><stage>_s`` (cumulative seconds),
        ``<prefix><stage>_self_s`` and ``<prefix><stage>_calls`` —
        compatible with ``benchmarks/reporting.emit_json``.
        """
        cum: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        calls: Dict[str, float] = {}
        for record in self.records():
            name = sanitise(record.name)
            cum[name] = cum.get(name, 0.0) + record.cum_s
            self_s[name] = self_s.get(name, 0.0) + record.self_s
            calls[name] = calls.get(name, 0.0) + record.calls
        flat: Dict[str, float] = {}
        for name in sorted(cum):
            flat["%s%s_s" % (prefix, name)] = cum[name]
            flat["%s%s_self_s" % (prefix, name)] = self_s[name]
            flat["%s%s_calls" % (prefix, name)] = calls[name]
        return flat

    def reset(self) -> None:
        """Drop every record (the registry object itself stays live)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# ----------------------------------------------------------------------
# The process-global, env-flag-gated registry
# ----------------------------------------------------------------------
#: Never replaced, only toggled/cleared — module-hoisted stage objects
#: stay bound to it for the life of the process.
_REGISTRY = ProfileRegistry()


def get_registry() -> ProfileRegistry:
    """The process-global registry (disabled unless ``REPRO_PROFILE``)."""
    return _REGISTRY


def enabled() -> bool:
    """Is the process-global registry recording?"""
    return _REGISTRY.enabled


def enable(on: bool = True) -> None:
    """Turn the process-global registry on/off (tests, benches)."""
    _REGISTRY.enabled = bool(on)


def reset() -> None:
    """Clear the process-global registry's records."""
    _REGISTRY.reset()


def profile_stage(name: str) -> _Stage:
    """A stage on the process-global registry.

    Decorator and context manager; hoist the returned object out of hot
    loops and re-enter it.  Disabled path: one attribute check, then
    straight to the wrapped code.
    """
    return _Stage(name, _REGISTRY)


def record_stage(name: str, seconds: float, calls: int = 1) -> None:
    """Fold an externally measured duration into the global registry.

    No-op (one flag check) when profiling is disabled — safe on request
    hot paths.
    """
    if _REGISTRY.enabled:
        _REGISTRY.add(name, seconds, calls)


def flatten(prefix: str = "profile_") -> Dict[str, float]:
    """Flatten the process-global registry (see the method)."""
    return _REGISTRY.flatten(prefix)


def snapshot() -> List[Tuple[Tuple[str, ...], int, float, float]]:
    """Snapshot the process-global registry (see the method)."""
    return _REGISTRY.snapshot()


def merge(other: Union[ProfileRegistry, Iterable[Tuple]]) -> None:
    """Merge into the process-global registry (see the method)."""
    _REGISTRY.merge(other)
