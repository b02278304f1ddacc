"""Measuring loop, span tracer and the small statistics the report uses.

Everything here is program-agnostic: it knows about repeats, spans and
samples, not about networks or leases.  The workloads in
:mod:`benchmarks.e2e.workloads` supply ``setup`` / ``repeat`` /
``finish`` / ``teardown`` and record what they time through a
:class:`Context`.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

now = time.perf_counter

#: Percentiles a tail figure may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: A percentile is reportable only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` by nearest rank."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, int(-(-q * len(ordered) // 100)))      # ceil, 1-based
    return ordered[min(rank, len(ordered)) - 1]


def highest_supported_percentile(n: int) -> Optional[float]:
    """Highest of :data:`TAIL_PERCENTILES` with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for q in TAIL_PERCENTILES:
        # Tenths of a percent as integers: 10000 * 0.1 % must be 10.
        if n * round((100.0 - q) * 10) >= MIN_SAMPLES_BEYOND * 1000:
            return q
    return None


def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one sample series."""
    values = [float(value) for value in samples]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed interval around a public call into a layer."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "repeat")

    def __init__(self, name: str, layer: str) -> None:
        self.id = -1
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.parent: Optional[int] = None
        self.repeat = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, workload: str) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "workload": workload, "repeat": self.repeat}


class _OpenSpan:
    """Context manager timing one span; records it when tracing is on."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.span = Span(name, layer)

    def __enter__(self) -> Span:
        if self.tracer.enabled:
            self.tracer._push(self.span)
        self.span.start = now()
        return self.span

    def __exit__(self, *_exc) -> bool:
        self.span.end = now()
        if self.tracer.enabled:
            self.tracer._pop(self.span)
        return False


class Tracer:
    """In-memory spans ``{name, layer, start, end, parent, repeat}``.

    Spans always time (the workloads read ``span.duration`` for their
    samples); they are only *kept* when ``enabled``.  Each thread nests
    its own spans, so client threads may trace concurrently.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.repeat = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        span.id = next(self._ids)
        span.parent = stack[-1].id if stack else None
        span.repeat = self.repeat
        stack.append(span)

    def _pop(self, span: Span) -> None:
        self._stack().pop()
        self.spans.append(span)          # list.append is atomic

    def span(self, name: str, layer: str) -> _OpenSpan:
        """Time (and, when enabled, record) the enclosed call."""
        return _OpenSpan(self, name, layer)

    def interval(self, name: str, layer: str, start: float,
                 end: float) -> None:
        """Record an interval the caller timed itself (no-op when off)."""
        if not self.enabled:
            return
        span = Span(name, layer)
        self._push(span)
        span.start, span.end = start, end
        self._pop(span)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda item: item.start):
            begin = max(child.start, cursor)
            finish = min(child.end, span.end)
            if finish > begin:
                covered += finish - begin
                cursor = finish
        result[span.id] = span.duration - covered
    return result


def is_op(span: Span) -> bool:
    """Op spans wrap one timed operation; they are named ``op.<what>``."""
    return span.name.startswith("op.")


def layer_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds per layer over the spans inside timed operations."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        root = span
        while root.parent is not None and root.parent in by_id:
            root = by_id[root.parent]
        if is_op(root):
            totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def unattributed_share(spans: Iterable[Span]) -> float:
    """Share of the timed operations' wall that no layer span covers."""
    spans = list(spans)
    own = self_times(spans)
    ops = [span for span in spans if is_op(span)]
    wall = sum(span.duration for span in ops)
    if wall <= 0.0:
        return 0.0
    return sum(own[span.id] for span in ops) / wall


# ----------------------------------------------------------------------
# Output checks and process figures
# ----------------------------------------------------------------------
def spike_digest48(spikes: Dict[str, Sequence], timestep_ms: float) -> int:
    """First 48 bits of sha256 over the sorted ``(label, tick, neuron)``."""
    digest = hashlib.sha256()
    for label in sorted(spikes):
        digest.update(label.encode("utf-8"))
        pairs = np.asarray(spikes[label], dtype=np.float64).reshape(-1, 2)
        ticks = np.rint(pairs[:, 0] / timestep_ms).astype(np.int64)
        neurons = pairs[:, 1].astype(np.int64)
        order = np.lexsort((neurons, ticks))
        digest.update(np.stack((ticks[order], neurons[order]),
                               axis=1).tobytes())
    return int.from_bytes(digest.digest()[:6], "big")


def peak_rss_mb() -> float:
    """Peak resident set so far: this process plus its largest waited
    child (pool workers are joined before ``run()`` returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0        # Linux reports KiB


def shm_entries() -> frozenset:
    """Names currently in ``/dev/shm`` (empty where it does not exist)."""
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()


def provenance(seed: int, scale: str) -> Dict[str, Any]:
    """Who/where/what produced a result file."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False,
            cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return {
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count() or 1,
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": head or "unknown",
    }


# ----------------------------------------------------------------------
# The measuring loop
# ----------------------------------------------------------------------
class Context:
    """What one measuring phase of one workload records."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer(False)
        #: series name -> raw samples, in the series' own unit.
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: per-layer figures (``layer.name`` -> value), traced phase only.
        self.figures: Dict[str, float] = {}
        #: figures this workload asked for that the program did not give.
        self.missing: List[str] = []
        #: tail percentiles given with fewer than ten samples beyond them.
        self.thin: List[str] = []
        #: values that must repeat exactly (digest, spike totals, ...).
        self.exact: Dict[str, float] = {}
        self.repeats = 0
        self.aborted = False
        #: Peak resident set when the first timed repeat completed.
        self.peak_rss_mb = 0.0

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def span(self, name: str, layer: str) -> _OpenSpan:
        return self.tracer.span(name, layer)

    def sample(self, series: str, value: float) -> None:
        self.samples.setdefault(series, []).append(float(value))

    def fail(self, reason: str, count: int = 1) -> None:
        """Count ``count`` attempted operations as failed."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        """An output check on the operation just attempted."""
        if not ok:
            self.fail(reason)

    def identical(self, name: str, value: float) -> None:
        """``value`` must equal what every earlier repeat reported."""
        seen = self.exact.setdefault(name, value)
        self.check(seen == value, "%s changed between repeats: %r != %r"
                   % (name, value, seen))

    def figure(self, name: str, getter: Callable[[], Any]) -> None:
        """Copy one optional per-layer figure from a program report.

        A report that no longer has the attribute costs this one figure
        (listed under ``missing``, which fails the traced pass's check
        that every figure asked for was given), never a crash.
        """
        try:
            self.figures[name] = float(getter())
        except (AttributeError, KeyError, IndexError, TypeError,
                ValueError, ZeroDivisionError):
            self.missing.append(name)


def _guarded_repeat(workload, state, ctx: Context) -> None:
    """One repeat; a raise is one failed operation and ends the phase."""
    try:
        workload.repeat(state, ctx)
    except Exception:      # the boundary that must keep reporting
        ctx.fail(traceback.format_exc(limit=4))
        ctx.aborted = True


def measure(workload, seconds: float, tracer: Optional[Tracer] = None,
            setups: int = 1, warm: bool = True) -> Context:
    """Set up ``setups`` times, warm up, then repeat for ``seconds``.

    Returns the phase's :class:`Context`; ``setup_s`` is one of its
    sample series.  A repeat that raises counts as one failed operation
    and ends the phase.
    """
    ctx = Context(tracer)
    if warm and workload.cold:
        # Cold workloads must not be warmed at scale (their point is the
        # cold cost); a smoke-sized pass loads imports and lazy state.
        warmed = measure(workload.smoke_twin(), 0.0, warm=False)
        ctx.failed += warmed.failed
        ctx.attempted += warmed.attempted
        ctx.errors.extend(warmed.errors)
    state = None
    before_shm = shm_entries()
    try:
        for _ in range(max(1, setups)):
            if state is not None:
                workload.teardown(state, ctx)
                state = None
                gc.collect()
            with ctx.span("setup", "bench") as span:
                state = workload.setup(ctx)
            ctx.sample("setup_s", span.duration)
        if warm and not workload.cold:
            warmed = Context()                        # discarded warm-up
            _guarded_repeat(workload, state, warmed)
            ctx.aborted = warmed.aborted
            ctx.errors.extend(warmed.errors)
            ctx.failed += warmed.failed
        elapsed = 0.0
        while not ctx.aborted:
            ctx.tracer.repeat = ctx.repeats
            began = now()
            _guarded_repeat(workload, state, ctx)
            elapsed += now() - began
            ctx.repeats += 1
            if ctx.repeats == 1:
                # Read after exactly one repeat: how many repeats fit in
                # ``seconds`` depends on the host, and a program that
                # retains memory per operation (job_e2e does) would make
                # a final reading depend on that count.
                ctx.peak_rss_mb = peak_rss_mb()
            if elapsed >= seconds:
                break
        if not ctx.aborted:
            workload.finish(state, ctx)
    finally:
        if state is not None:
            workload.teardown(state, ctx)
        # Only this process's own segments (their names carry its pid):
        # another process on the host may be mid-run.
        leaked = sorted(name for name in shm_entries() - before_shm
                        if str(os.getpid()) in name)
        ctx.check(not leaked, "leaked /dev/shm entries: %s" % leaked)
    return ctx
