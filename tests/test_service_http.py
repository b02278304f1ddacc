"""Tests for the HTTP/JSON allocation service (repro.service).

Every test here talks to a *live* :class:`AllocationService` over
loopback TCP — the full stack: handler threads, the runtime's
wall-clock bridge, the admission gate, and the sessionful client.
"""

# checks: disable=clock-discipline -- these tests drive the service from
# the wall-clock side, exactly as an external client would: deadline
# loops here must read the same real clock the runtime bridges from.

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.service import (AllocationService, BackpressureConfig, BadRequest,
                           NoSuchJob, ServiceBusy, ServiceClient,
                           ServiceUnavailable)
from repro.service import api


@pytest.fixture
def service():
    instance = AllocationService.build(width=8, height=8).start()
    yield instance
    instance.stop()


@pytest.fixture
def client(service):
    instance = ServiceClient(service.url, tenant="alice")
    yield instance
    instance.close()


def raw_request(service, method, path, body=b"",
                headers=None):
    """One bare HTTP exchange, bypassing the client's JSON plumbing."""
    connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                            timeout=10.0)
    try:
        connection.request(method, path, body=body,
                           headers=headers or {})
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload, response.getheader("Retry-After")
    finally:
        connection.close()


# ----------------------------------------------------------------------
# The happy path
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_create_wait_keepalive_release_round_trip(self, client):
        created = client.create_job(2, 2, keepalive_ms=2000.0)
        job_id = int(created["job_id"])
        assert created["state"] in ("queued", "powering")
        deadline = time.monotonic() + 10.0
        while client.status(job_id)["state"] != "ready":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        refreshed = client.keepalive(job_id)
        assert refreshed["alive"] and refreshed["state"] == "ready"
        assert refreshed["rect"]["width"] == 2
        released = client.release(job_id)
        assert released["released"] and released["state"] == "freed"

    def test_session_heartbeats_and_releases_on_exit(self, client):
        # A heartbeat every third of the keepalive leaves a 250 ms margin:
        # only a scheduler stall longer than that can free the lease.
        with client.session(2, 2, keepalive_ms=375.0) as session:
            ready = session.wait_ready(timeout_s=10.0)
            assert ready["state"] == "ready"
            # Hold for two keepalive intervals, counted in heartbeats
            # rather than slept: only the heartbeat thread keeps the
            # lease alive meanwhile.
            deadline = time.monotonic() + 10.0
            while session.heartbeats_sent < 6:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert client.status(session.job_id)["state"] == "ready"
            assert session.heartbeats_sent > 0
        assert client.status(session.job_id)["state"] == "freed"

    def test_list_machine_and_metrics_endpoints(self, client):
        with client.session(2, 2) as session:
            session.wait_ready(timeout_s=10.0)
            listed = client.list_jobs(tenant="alice", state="ready")
            assert listed["count"] == 1
            machine = client.machine()
            assert machine["width"] == 8 and machine["leased_chips"] == 4.0
        metrics = client.metrics()
        assert metrics["requests"]["create"]["count"] == 1.0
        assert metrics["runtime"]["uptime_s"] > 0.0
        assert metrics["scheduler"]["scheduled"] == 1.0


# ----------------------------------------------------------------------
# Error surface: typed codes, no 500s
# ----------------------------------------------------------------------
class TestErrorSurface:
    def test_malformed_json_is_a_typed_400(self, service):
        status, payload, _retry = raw_request(
            service, "POST", "/v1/jobs", body=b"{not json",
            headers={"Content-Length": "9"})
        assert status == 400
        assert payload["code"] == api.CODE_BAD_REQUEST

    def test_missing_and_mistyped_fields_are_400s(self, client):
        status, payload, _retry = client.request(
            "POST", "/v1/jobs", {"tenant": "", "width": 2, "height": 2})
        assert status == 400 and payload["code"] == api.CODE_BAD_REQUEST
        status, payload, _retry = client.request(
            "POST", "/v1/jobs",
            {"tenant": "alice", "width": True, "height": 2})
        assert status == 400
        assert payload["code"] == api.CODE_BAD_REQUEST
        status, payload, _retry = client.request(
            "POST", "/v1/jobs", {"tenant": "alice", "width": 2})
        assert status == 400 and "height" in payload["error"]

    def test_oversized_jobs_and_bad_ids_are_400s(self, client):
        with pytest.raises(BadRequest):
            client.create_job(9, 9)      # exceeds the 8x8 machine
        status, payload, _retry = client.request("GET", "/v1/jobs/xyz")
        assert status == 400 and payload["code"] == api.CODE_BAD_REQUEST

    def test_unknown_versions_paths_and_methods(self, client):
        status, payload, _retry = client.request("GET", "/v2/jobs")
        assert status == 404 and payload["code"] == api.CODE_NOT_FOUND
        status, payload, _retry = client.request("GET", "/v1/nonsense")
        assert status == 404 and payload["code"] == api.CODE_NOT_FOUND
        status, payload, _retry = client.request("DELETE", "/v1/machine")
        assert status == 405
        assert payload["code"] == api.CODE_METHOD_NOT_ALLOWED

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(NoSuchJob):
            client.status(999)
        with pytest.raises(NoSuchJob):
            client.release(999)

    def test_nothing_in_this_file_produced_a_500(self, service, client):
        client.request("GET", "/v1/jobs")
        assert service.metrics.status_total(500, 599) == 0


# ----------------------------------------------------------------------
# Backpressure: 429 + Retry-After, never a 500
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_quota_exhaustion_is_429_with_retry_after(self, client):
        codes = []
        retry_after = None
        for _ in range(20):
            try:
                created = client.create_job(1, 1)
                client.release(int(created["job_id"]))
                codes.append(201)
            except ServiceBusy as busy:
                codes.append(busy.status)
                retry_after = busy.retry_after_s
        assert 429 in codes and 500 not in codes
        assert retry_after is not None and retry_after > 0

    def test_queue_overload_sheds_with_429(self):
        service = AllocationService.build(
            width=2, height=2,
            backpressure=BackpressureConfig(max_queue_depth=1)).start()
        try:
            clients = [ServiceClient(service.url, tenant="t%d" % index)
                       for index in range(3)]
            try:
                # First job leases the whole machine; the second queues;
                # the third must be shed, not queued without bound.
                clients[0].create_job(2, 2)
                clients[1].create_job(2, 2)
                with pytest.raises(ServiceBusy) as excinfo:
                    clients[2].create_job(2, 2)
                assert excinfo.value.code == api.CODE_QUEUE_OVERLOADED
                assert excinfo.value.retry_after_s is not None
            finally:
                for instance in clients:
                    instance.close()
            assert service.metrics.status_total(500, 599) == 0
        finally:
            service.stop()


# ----------------------------------------------------------------------
# Keepalive expiry: the monotonic clock, evaluated in one place
# ----------------------------------------------------------------------
class TestExpiry:
    def test_a_silent_job_expires_and_is_never_ready_again(self, client):
        created = client.create_job(2, 2, keepalive_ms=100.0)
        job_id = int(created["job_id"])
        observed = []
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            state = client.status(job_id)["state"]
            observed.append(state)
            if state == "expired":
                break
            time.sleep(0.02)
        assert observed[-1] == "expired"
        # Once past its lease, the job is never observed READY again —
        # expiry is evaluated against the monotonic clock before every
        # read, not lazily at some later sweep.
        assert "ready" not in observed[observed.index("expired"):]
        for _ in range(5):
            assert client.status(job_id)["state"] == "expired"
        refreshed = client.keepalive(job_id)
        assert refreshed["alive"] is False

    def test_the_reaper_expires_leases_without_any_requests(self, service):
        client = ServiceClient(service.url, tenant="alice")
        try:
            created = client.create_job(2, 2, keepalive_ms=50.0)
            job_id = int(created["job_id"])
            # No status polling: only the reaper thread can expire it.
            time.sleep(0.5)
            with service.runtime.lock:
                job = service.scheduler.job(job_id)
                assert job.state.value == "expired"
                assert service.scheduler.partitioner.leased_area == 0
        finally:
            client.close()


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_draining_refuses_with_503_and_retry_after(self, service):
        service.runtime.drain(timeout_s=0.1)
        impatient = ServiceClient(service.url, tenant="alice",
                                  max_attempts=1)
        try:
            with pytest.raises(ServiceUnavailable):
                impatient.create_job(1, 1)
        finally:
            impatient.close()
        status, payload, retry_after = raw_request(service, "GET",
                                                   "/v1/machine")
        assert status == 503
        assert payload["code"] == api.CODE_DRAINING
        assert retry_after is not None and int(retry_after) >= 1
        service.runtime.resume()

    def test_client_retries_through_a_drain_window(self, service):
        service.runtime.drain(timeout_s=0.1)
        timer = threading.Timer(0.15, service.runtime.resume)
        timer.start()
        patient = ServiceClient(service.url, tenant="alice",
                                max_attempts=6, backoff_s=0.05)
        try:
            created = patient.create_job(1, 1)
            assert created["state"] in ("queued", "powering")
            assert patient.retries > 0
        finally:
            timer.cancel()
            patient.close()

    def test_stop_drains_and_releases_every_lease(self):
        service = AllocationService.build(width=8, height=8).start()
        client = ServiceClient(service.url, tenant="alice")
        try:
            for _ in range(3):
                client.create_job(2, 2, keepalive_ms=60000.0)
        finally:
            client.close()
        assert service.stop() is True
        assert service.scheduler.partitioner.leased_area == 0
        assert service.server.host.allocation_server is None

    def test_stop_is_idempotent(self, service):
        assert service.stop() is True
        assert service.stop() is True
