"""The HTTP/JSON allocation service (spalloc as a network service).

:class:`AllocationService` wraps the in-process
:class:`~repro.alloc.server.AllocationServer` with a long-running
``ThreadingHTTPServer`` speaking the versioned JSON API of
:mod:`repro.service.api`::

    service = AllocationService.build(width=16, height=16)
    service.start()
    ...                     # POST http://127.0.0.1:<port>/v1/jobs
    service.stop()

Request flow: every handler thread is admitted by the
:class:`~repro.service.runtime.ServiceRuntime` (503 + ``Retry-After``
while draining), advances the simulated clock to the wall clock under
the runtime lock, runs the route, and records its latency in the
:class:`~repro.service.metrics.MetricsRegistry`.  Backpressure — tenant
quota exhaustion and admission-queue overload — comes back as 429 with
``Retry-After``; *no* error path produces an unhandled exception, so
the wire never sees a 500 for a malformed or over-rate request.
"""

from __future__ import annotations

import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.alloc.job import JobRequest, JobState
from repro.alloc.server import AllocationServer
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.host.host_system import HostSystem
from repro.service import api
from repro.service.api import ServiceError
from repro.service.backpressure import AdmissionGate, BackpressureConfig
from repro.profile import perf_now, record_stage
from repro.service.metrics import MetricsRegistry
from repro.service.runtime import ServiceRuntime

__all__ = ["AllocationService"]

#: Largest request body accepted, in bytes.
MAX_BODY_BYTES = 1 << 20


class AllocationService:
    """A long-running HTTP allocation service over one machine."""

    def __init__(self, server: AllocationServer, *,
                 host: str = "127.0.0.1", port: int = 0,
                 time_scale: float = 1.0,
                 backpressure: Optional[BackpressureConfig] = None,
                 reaper_period_s: float = 0.02,
                 max_terminal_history: int = 10000) -> None:
        self.server = server
        self.scheduler = server.scheduler
        self.host = host
        self._requested_port = port
        self.runtime = ServiceRuntime(
            self.scheduler, time_scale=time_scale,
            reaper_period_s=reaper_period_s,
            max_terminal_history=max_terminal_history)
        self.gate = AdmissionGate(self.scheduler,
                                  backpressure or BackpressureConfig(),
                                  time_scale=time_scale)
        self.metrics = MetricsRegistry()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None

    @classmethod
    def build(cls, width: int = 16, height: int = 16,
              cores_per_chip: int = 1, **kwargs: Any) -> "AllocationService":
        """Construct a machine + host + allocation server + HTTP service."""
        machine = SpiNNakerMachine(MachineConfig(width=width, height=height,
                                                 cores_per_chip=cores_per_chip))
        return cls(AllocationServer(HostSystem(machine)), **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("the service is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "AllocationService":
        """Bind the listener, start the runtime, serve in a thread."""
        if self._httpd is not None:
            raise RuntimeError("the service is already running")
        handler = _build_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                          handler)
        self._httpd.daemon_threads = True
        self.runtime.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="alloc-service-http", daemon=True)
        self._serve_thread.start()
        return self

    def stop(self, drain_timeout_s: float = 5.0,
             release_leases: bool = True) -> bool:
        """Gracefully stop: drain, close the listener, detach, reclaim.

        In-flight requests run to completion (bounded by the timeout);
        new ones get 503 + ``Retry-After``.  With ``release_leases`` the
        machine is returned whole — every remaining lease is released —
        so stopping the service never strands chips.  Returns ``True``
        if the drain completed inside the timeout.
        """
        if self._httpd is None:
            return True
        drained = self.runtime.stop(drain_timeout_s)
        self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._httpd.server_close()
        self._httpd = None
        self._serve_thread = None
        if release_leases:
            with self.runtime.lock:
                # Releasing an active job re-runs scheduling, which can
                # promote queued jobs into fresh leases — iterate until
                # nothing holds or waits, so the machine comes back whole.
                while True:
                    jobs = (self.scheduler.active_jobs()
                            + self.scheduler.queued_jobs())
                    if not jobs:
                        break
                    for job in jobs:
                        self.scheduler.release(job.job_id)
        return drained

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def dispatch(self, method: str, path: str,
                 body: bytes) -> Tuple[int, Dict[str, Any], str]:
        """Route one request; returns ``(status, payload, endpoint)``.

        Raises :class:`ServiceError` for every failure mode; the handler
        turns those (and any unexpected exception) into error responses.
        """
        parsed = urllib.parse.urlsplit(path)
        segments = api.split_path(parsed.path)
        query = urllib.parse.parse_qs(parsed.query)
        if not segments or segments[0] != api.API_VERSION:
            raise ServiceError(
                404, api.CODE_NOT_FOUND,
                "unknown API version %r (this server speaks %s)"
                % ("/".join(segments[:1]), api.API_PREFIX))
        status, run, endpoint = self._route(method, segments[1:],
                                            parsed.path, query, body)
        try:
            return (status, run(), endpoint)
        except ServiceError as error:
            # Label the failure with its endpoint so backpressure 429s
            # land under "create" in the metrics, not "unrouted".
            error.endpoint = endpoint
            raise

    def _route(self, method: str, route: Tuple[str, ...], path: str,
               query: Dict[str, Any], body: bytes):
        """Resolve ``(status, thunk, endpoint label)`` for one request."""
        if route == ("jobs",):
            if method == "POST":
                return (201,
                        lambda: self._create(api.parse_body(body)), "create")
            if method == "GET":
                return (200, lambda: self._list(query), "list")
            raise _method_not_allowed(method)
        if len(route) == 2 and route[0] == "jobs":
            job_id = _job_id(route[1])
            if method == "GET":
                return (200, lambda: self._status(job_id), "status")
            if method == "DELETE":
                return (200, lambda: self._release(job_id), "release")
            raise _method_not_allowed(method)
        if len(route) == 3 and route[0] == "jobs" and route[2] == "keepalive":
            if method == "POST":
                return (200, lambda: self._keepalive(_job_id(route[1])),
                        "keepalive")
            raise _method_not_allowed(method)
        if route == ("machine",):
            if method == "GET":
                return (200, lambda: self._machine(), "machine")
            raise _method_not_allowed(method)
        if route == ("metrics",):
            if method == "GET":
                return (200, lambda: self._metrics(), "metrics")
            raise _method_not_allowed(method)
        raise ServiceError(404, api.CODE_NOT_FOUND,
                           "no such endpoint: %s %s" % (method, path))

    # ------------------------------------------------------------------
    # Route implementations
    # ------------------------------------------------------------------
    def _create(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant = api.field(payload, "tenant", str, required=True)
        width = api.field(payload, "width", int, required=True)
        height = api.field(payload, "height", int, required=True)
        priority = api.field(payload, "priority", int, default=5)
        keepalive_ms = api.field(payload, "keepalive_ms", float,
                                 default=1000.0)
        label = api.field(payload, "label", str, default="")
        try:
            request = JobRequest(tenant=tenant, width=width, height=height,
                                 priority=priority, keepalive_ms=keepalive_ms,
                                 label=label)
        except (TypeError, ValueError) as error:
            raise ServiceError(400, api.CODE_BAD_REQUEST, str(error))
        with self.runtime.lock:
            self.runtime.advance()
            partitioner = self.scheduler.partitioner
            if (request.width > partitioner.width
                    or request.height > partitioner.height):
                raise ServiceError(
                    400, api.CODE_BAD_REQUEST,
                    "job %dx%d exceeds the %dx%d machine"
                    % (request.width, request.height,
                       partitioner.width, partitioner.height))
            self.gate.check_queue_depth()
            job = self.scheduler.submit(request)
            if job.state is JobState.REJECTED:
                raise self.gate.quota_rejection(tenant)
            response = job.describe()
            response["queue_depth"] = self.scheduler.queue_depth()
            return response

    def _status(self, job_id: int) -> Dict[str, Any]:
        with self.runtime.lock:
            self.runtime.advance()
            job = self.scheduler.job(job_id)
            if job is None:
                raise _no_such_job(job_id)
            return job.describe()

    def _keepalive(self, job_id: int) -> Dict[str, Any]:
        with self.runtime.lock:
            self.runtime.advance()
            job = self.scheduler.job(job_id)
            if job is None:
                raise _no_such_job(job_id)
            alive = self.scheduler.keepalive(job_id)
            response = job.describe()
            response["alive"] = alive
            return response

    def _release(self, job_id: int) -> Dict[str, Any]:
        with self.runtime.lock:
            self.runtime.advance()
            job = self.scheduler.job(job_id)
            if job is None:
                raise _no_such_job(job_id)
            released = self.scheduler.release(job_id)
            response = job.describe()
            response["released"] = released
            return response

    def _list(self, query: Dict[str, Any]) -> Dict[str, Any]:
        tenant = (query.get("tenant") or [None])[0]
        state = (query.get("state") or [None])[0]
        with self.runtime.lock:
            self.runtime.advance()
            jobs = [job.describe() for job in self.scheduler.jobs.values()
                    if (tenant is None or job.request.tenant == tenant)
                    and (state is None or job.state.value == state)]
        return {"jobs": jobs, "count": len(jobs)}

    def _machine(self) -> Dict[str, Any]:
        with self.runtime.lock:
            self.runtime.advance()
            partitioner = self.scheduler.partitioner
            snapshot: Dict[str, Any] = self.scheduler.load_snapshot()
            snapshot.update({
                "width": partitioner.width,
                "height": partitioner.height,
                "faulty_chips": len(partitioner.faulty),
                "policy": self.scheduler.policy,
            })
            return snapshot

    def _metrics(self) -> Dict[str, Any]:
        with self.runtime.lock:
            self.runtime.advance()
            scheduler_stats = self.scheduler.stats.summary()
            load = self.scheduler.load_snapshot()
        return {
            "runtime": self.runtime.snapshot(),
            "requests": self.metrics.snapshot(),
            "backpressure": self.gate.snapshot(),
            "scheduler": scheduler_stats,
            "load": load,
        }


def _no_such_job(job_id: int) -> ServiceError:
    return ServiceError(404, api.CODE_NO_SUCH_JOB,
                        "no such job: %d" % job_id)


def _method_not_allowed(method: str) -> ServiceError:
    return ServiceError(405, api.CODE_METHOD_NOT_ALLOWED,
                        "method %s not allowed here" % method)


def _job_id(segment: str) -> int:
    try:
        return int(segment)
    except ValueError:
        raise ServiceError(400, api.CODE_BAD_REQUEST,
                           "job id must be an integer, got %r" % segment)


def _build_handler(service: AllocationService):
    """The request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: Kill idle keep-alive connections so drained servers exit.
        timeout = 30
        #: Headers and body are separate writes; without TCP_NODELAY the
        #: Nagle + delayed-ACK interaction stalls every response ~40 ms.
        disable_nagle_algorithm = True

        # -- plumbing ---------------------------------------------------
        def log_message(self, *_args) -> None:  # quiet by default
            pass

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length > MAX_BODY_BYTES:
                raise ServiceError(400, api.CODE_BAD_REQUEST,
                                   "request body too large")
            return self.rfile.read(length) if length else b""

        def _respond(self, status: int, payload: Dict[str, Any],
                     retry_after_s: Optional[float] = None) -> None:
            body = api.dump_body(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            retry_after = api.retry_after_header(retry_after_s)
            if retry_after is not None:
                self.send_header("Retry-After", retry_after)
            self.end_headers()
            self.wfile.write(body)

        def _handle(self, method: str) -> None:
            started = perf_now()
            endpoint = "unrouted"
            try:
                self.server_service.runtime.begin_request()
            except ServiceError as error:
                self._respond(error.status, error.body(),
                              error.retry_after_s)
                self._observe(endpoint, error.status, started)
                return
            try:
                body = self._read_body()
                status, payload, endpoint = (
                    self.server_service.dispatch(method, self.path, body))
                self._respond(status, payload)
            except ServiceError as error:
                status = error.status
                endpoint = error.endpoint or endpoint
                self._respond(status, error.body(), error.retry_after_s)
            except Exception as error:  # never leak a traceback to the wire
                status = 500
                fallback = ServiceError(500, api.CODE_INTERNAL,
                                        "%s: %s" % (type(error).__name__,
                                                    error))
                try:
                    self._respond(500, fallback.body())
                except OSError:
                    pass  # client went away mid-response
            finally:
                self.server_service.runtime.end_request()
            self._observe(endpoint, status, started)

        def _observe(self, endpoint: str, status: int,
                     started: float) -> None:
            elapsed_s = perf_now() - started
            self.server_service.metrics.observe(endpoint, status,
                                                elapsed_s * 1000.0)
            # The endpoint is only known after dispatch, so the profiler
            # adopts the measured span instead of wrapping a stage (a
            # single flag check when profiling is off).
            record_stage("service_" + endpoint, elapsed_s)

        # -- verbs ------------------------------------------------------
        def do_GET(self) -> None:
            self._handle("GET")

        def do_POST(self) -> None:
            self._handle("POST")

        def do_DELETE(self) -> None:
            self._handle("DELETE")

    Handler.server_service = service
    return Handler
