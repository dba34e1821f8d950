"""A small stdlib client for the scan daemon.

:class:`ServerClient` wraps :mod:`http.client` (no third-party HTTP
stack) and speaks the daemon's JSON endpoints.  It connects over TCP or
— mirroring ``patchitpy serve --unix-socket`` — over an ``AF_UNIX``
socket, and reuses one keep-alive connection across calls, which is what
makes the warm-request benchmark an honest measurement of server-side
warmth rather than TCP setup.

Errors come back as :class:`ServerError` carrying the HTTP status and
the decoded JSON error body, so callers can distinguish backpressure
(429) from deadline expiry (504) from drain (503).
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["ServerClient", "ServerError"]


class ServerError(Exception):
    """A non-2xx answer from the daemon."""

    def __init__(self, status: int, payload: Any) -> None:
        detail = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"server answered {status}: {detail}")
        self.status = status
        self.payload = payload


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` stream socket."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


class ServerClient:
    """Keep-alive JSON client for one running daemon.

    Exactly one of ``port`` (with optional ``host``) or ``unix_socket``
    selects the transport.  ``tenant``, when set, is stamped on every
    request as ``X-Tenant`` — against a fleet front door it selects the
    per-tenant quota bucket (a single daemon ignores it).  Usable as a
    context manager; ``close()`` is otherwise explicit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_socket: Optional[str] = None,
        timeout: float = 60.0,
        tenant: Optional[str] = None,
    ) -> None:
        if (port is None) == (unix_socket is None):
            raise ValueError("pass exactly one of port= or unix_socket=")
        self._host = host
        self._port = port
        self._unix_socket = unix_socket
        self._timeout = timeout
        self._tenant = tenant
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------ plumbing

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self._unix_socket is not None:
                self._conn = _UnixHTTPConnection(self._unix_socket, self._timeout)
            else:
                assert self._port is not None
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
        return self._conn

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> Any:
        body = None
        headers = {"Connection": "keep-alive"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if trace_id is not None:
            # The daemon echoes a well-formed caller id back as
            # X-Patchitpy-Trace-Id and stamps it on the access log, so a
            # plugin can correlate its own logs with the server's.
            headers["X-Trace-Id"] = trace_id
        status, content_type, raw = self.forward(
            method, path, body=body, headers=headers
        )
        if "json" in content_type:
            decoded: Any = json.loads(raw.decode("utf-8")) if raw else {}
        else:
            decoded = raw.decode("utf-8")
        if status >= 400:
            raise ServerError(status, decoded)
        return decoded

    def forward(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, str, bytes]:
        """One raw round trip: ``(status, content type, body bytes)``.

        Unlike the typed endpoint helpers this never raises
        :class:`ServerError` — error *statuses* come back as data, for a
        caller that inspects or relays a 4xx or 5xx itself.  Transport
        failures still raise after one reconnect retry.
        """
        merged = {"Connection": "keep-alive", **(headers or {})}
        if self._tenant is not None:
            merged.setdefault("X-Tenant", self._tenant)
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=merged)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            # A dropped keep-alive connection (server drained, restarted)
            # is retried once on a fresh connection before giving up.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=merged)
            response = conn.getresponse()
            raw = response.read()
        content_type = response.getheader("Content-Type", "") or ""
        return response.status, content_type, raw

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- endpoints

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness document (503 while draining)."""
        try:
            return self._request("GET", "/healthz")
        except ServerError as error:
            if error.status == 503 and isinstance(error.payload, dict):
                return error.payload  # draining is a state, not a failure
            raise

    def metrics_text(self) -> str:
        """``GET /metrics`` — Prometheus text exposition."""
        return self._request("GET", "/metrics")

    def metrics_json(self) -> Dict[str, Any]:
        """``GET /v1/metrics.json`` — the mergeable collector snapshot."""
        return self._request("GET", "/v1/metrics.json")

    def statusz(self) -> str:
        """``GET /statusz`` — the HTML operator dashboard, as text."""
        return self._request("GET", "/statusz")

    def analyze(
        self,
        source: str,
        patch: bool = False,
        trace: bool = False,
        deadline_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> Dict[str, Any]:
        """``POST /v1/analyze`` — findings (and patches) for one snippet.

        ``exclude`` names finding keys (:func:`repro.core.finding_key`)
        the patch must leave alone.
        """
        payload: Dict[str, Any] = {"source": source, "patch": patch}
        if trace:
            payload["trace"] = True
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if exclude:
            payload["exclude"] = sorted(exclude)
        return self._request("POST", "/v1/analyze", payload, trace_id=trace_id)

    def batch(
        self,
        sources: List[str],
        patch: bool = False,
        deadline_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/batch`` — N snippets through the worker pool."""
        payload: Dict[str, Any] = {
            "items": [{"id": i, "source": s} for i, s in enumerate(sources)],
            "patch": patch,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("POST", "/v1/batch", payload, trace_id=trace_id)

    def batch_stream(
        self,
        sources: List[str],
        patch: bool = False,
        deadline_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """``POST /v1/batch`` with ``stream=true`` — yields NDJSON lines.

        Items arrive in completion order (correlate by ``id``); the last
        yielded object is the ``{"done": true, ...}`` summary.
        ``http.client`` decodes the chunked framing transparently, so
        each yield is one complete JSON object.
        """
        payload: Dict[str, Any] = {
            "items": [{"id": i, "source": s} for i, s in enumerate(sources)],
            "patch": patch,
            "stream": True,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        body = json.dumps(payload).encode("utf-8")
        headers = {
            "Connection": "keep-alive",
            "Content-Type": "application/json",
        }
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        if self._tenant is not None:
            headers["X-Tenant"] = self._tenant
        conn = self._connection()
        try:
            conn.request("POST", "/v1/batch", body=body, headers=headers)
            response = conn.getresponse()
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            conn = self._connection()
            conn.request("POST", "/v1/batch", body=body, headers=headers)
            response = conn.getresponse()
        if response.status >= 400:
            raw = response.read()
            try:
                decoded: Any = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, ValueError):
                decoded = raw.decode("utf-8", "replace")
            raise ServerError(response.status, decoded)
        while True:
            line = response.readline()
            if not line:
                break
            line = line.strip()
            if line:
                yield json.loads(line.decode("utf-8"))

    def review(
        self,
        root: str,
        base: Optional[str] = None,
        head: Optional[str] = None,
        diff: Optional[str] = None,
        include_preexisting: bool = False,
        sarif: bool = False,
        use_cache: bool = True,
        trace: bool = False,
        deadline_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/review`` — diff-aware review on the warm daemon.

        Pass either ``diff`` (a unified diff against the worktree at
        ``root``) or ``base`` (optionally with ``head``) git revisions.
        """
        payload: Dict[str, Any] = {"root": root, "use_cache": use_cache}
        if diff is not None:
            payload["diff"] = diff
        if base is not None:
            payload["base"] = base
        if head is not None:
            payload["head"] = head
        if include_preexisting:
            payload["include_preexisting"] = True
        if sarif:
            payload["sarif"] = True
        if trace:
            payload["trace"] = True
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("POST", "/v1/review", payload, trace_id=trace_id)

    def scan(
        self,
        root: str,
        jobs: int = 1,
        use_cache: bool = True,
        deadline_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/scan`` — incremental project scan on the daemon."""
        payload: Dict[str, Any] = {
            "root": root,
            "jobs": jobs,
            "use_cache": use_cache,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("POST", "/v1/scan", payload, trace_id=trace_id)
