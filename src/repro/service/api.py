"""The versioned HTTP/JSON wire protocol of the allocation service.

One place defines what travels over the network: the endpoint table
(also rendered into the README and the CLI help), the typed error codes,
and the :class:`ServiceError` exception the server raises internally and
maps onto an HTTP status plus a structured JSON error body::

    {"error": "<human-readable message>", "code": "<typed code>",
     "retry_after_s": <seconds, only on 429/503>}

Backpressure responses (``429 Too Many Requests`` for quota exhaustion
and queue overload, ``503 Service Unavailable`` while draining) always
carry a ``Retry-After`` header so well-behaved clients can pace
themselves instead of hammering the server.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "API_VERSION", "API_PREFIX", "ENDPOINTS", "ServiceError",
    "CODE_BAD_REQUEST", "CODE_NO_SUCH_JOB", "CODE_NOT_FOUND",
    "CODE_METHOD_NOT_ALLOWED", "CODE_QUOTA_EXHAUSTED",
    "CODE_QUEUE_OVERLOADED", "CODE_DRAINING", "CODE_INTERNAL",
    "dump_body", "parse_body", "retry_after_header", "field", "split_path",
]

#: Version segment of every path; unknown versions are 404s so clients
#: fail fast instead of silently speaking the wrong schema.
API_VERSION = "v1"
API_PREFIX = "/" + API_VERSION

# Typed error codes (the 4xx/5xx family carried in error bodies).
CODE_BAD_REQUEST = "bad-request"
CODE_NO_SUCH_JOB = "no-such-job"
CODE_NOT_FOUND = "not-found"
CODE_METHOD_NOT_ALLOWED = "method-not-allowed"
CODE_QUOTA_EXHAUSTED = "quota-exhausted"
CODE_QUEUE_OVERLOADED = "queue-overloaded"
CODE_DRAINING = "draining"
CODE_INTERNAL = "internal-error"

#: ``(method, path template, request schema, response schema, label)``
#: — the complete public surface, one row per endpoint.  The label is
#: both the route name in :mod:`repro.service.server` and the
#: per-endpoint metrics key; ``repro.checks`` (rule ``api-surface``)
#: verifies the three stay in sync.
ENDPOINTS = (
    ("POST", "/v1/jobs",
     '{"tenant", "width", "height", "priority"?, "keepalive_ms"?, '
     '"label"?}',
     "job summary + queue_depth (201)",
     "create"),
    ("GET", "/v1/jobs",
     "?tenant=&state= filters",
     '{"jobs": [job summary, ...]}',
     "list"),
    ("GET", "/v1/jobs/<id>",
     "-",
     "job summary (state, lease rect, wait_ms)",
     "status"),
    ("POST", "/v1/jobs/<id>/keepalive",
     "-",
     'job summary + {"alive": bool}',
     "keepalive"),
    ("DELETE", "/v1/jobs/<id>",
     "-",
     'job summary + {"released": bool}',
     "release"),
    ("GET", "/v1/machine",
     "-",
     "dimensions, free/leased chips, fragmentation, queue depth",
     "machine"),
    ("GET", "/v1/metrics",
     "-",
     "uptime, per-endpoint counters + latency histograms, scheduler "
     "stats, backpressure counters",
     "metrics"),
)


class ServiceError(Exception):
    """An API failure carrying its HTTP status, typed code and body."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        #: Endpoint label the error was raised from (set by the router
        #: so per-endpoint metrics attribute 4xx/5xx correctly).
        self.endpoint: Optional[str] = None

    def body(self) -> Dict[str, Any]:
        """The structured JSON error body."""
        body: Dict[str, Any] = {"error": self.message, "code": self.code}
        if self.retry_after_s is not None:
            body["retry_after_s"] = self.retry_after_s
        return body


def retry_after_header(retry_after_s: Optional[float]) -> Optional[str]:
    """Render a ``Retry-After`` value (integral seconds, at least 1)."""
    if retry_after_s is None:
        return None
    return str(max(1, int(math.ceil(retry_after_s))))


def dump_body(payload: Dict[str, Any]) -> bytes:
    """Serialise a response body."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Parse a request body; empty bodies are empty objects.

    Raises :class:`ServiceError` (400, ``bad-request``) on malformed
    JSON or a non-object payload, so route handlers can assume a dict.
    """
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ServiceError(400, CODE_BAD_REQUEST,
                           "malformed JSON body: %s" % (error,))
    if not isinstance(payload, dict):
        raise ServiceError(400, CODE_BAD_REQUEST,
                           "request body must be a JSON object, got %s"
                           % type(payload).__name__)
    return payload


def field(payload: Dict[str, Any], name: str, kind, default=None,
          required: bool = False) -> Any:
    """Extract and coerce one request field, with typed 400s.

    ``kind`` is the target type (int/float/str); booleans are rejected
    where numbers are expected (JSON ``true`` is not a width).
    """
    if name not in payload:
        if required:
            raise ServiceError(400, CODE_BAD_REQUEST,
                               "missing required field %r" % name)
        return default
    value = payload[name]
    if kind in (int, float) and isinstance(value, bool):
        raise ServiceError(400, CODE_BAD_REQUEST,
                           "field %r must be a number, got a boolean" % name)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ServiceError(400, CODE_BAD_REQUEST,
                           "field %r must be %s-compatible, got %r"
                           % (name, kind.__name__, value))


def split_path(path: str) -> Tuple[str, ...]:
    """Split an URL path into non-empty segments."""
    return tuple(segment for segment in path.split("/") if segment)
