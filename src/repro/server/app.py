"""The persistent scan server: a warm engine behind HTTP endpoints.

Every CLI entry point is a cold process: import the ruleset, open the
cache, analyze, tear down.  :class:`PatchitPyServer` keeps all of that
alive for the process lifetime — one warm :class:`~repro.PatchitPy`
engine (rules compiled once, primed by :meth:`~repro.PatchitPy.warmup`),
one open :class:`~repro.ScanCache` per scan root, and one reusable
worker pool — and serves the paper's IDE-extension request shape
(PAPER.md §V) over plain HTTP:

========================  =====================================================
``POST /v1/analyze``      one snippet → findings (+ patches when asked)
``POST /v1/batch``        N snippets fanned across the worker pool
``POST /v1/scan``         a project tree, incremental through the open cache
``POST /v1/review``       a diff or two git revisions → introduced findings
``GET /healthz``          liveness/readiness (reports ``draining``)
``GET /metrics``          Prometheus text format (the PR 2/3 exporter)
``GET /statusz``          self-contained HTML operator dashboard
========================  =====================================================

Robustness contract (exercised by ``tests/test_server.py``):

- **Backpressure** — at most ``queue_depth`` analysis units may be
  queued or running; a request that would exceed it is refused with
  ``429`` and a ``Retry-After`` hint instead of growing an unbounded
  queue.
- **Deadlines** — every analysis request carries a deadline
  (``deadline_ms`` in the body, defaulting to the server-wide setting);
  expiry answers ``504`` while the already-submitted work is left to
  drain in the pool.
- **Body/header limits and read timeouts** — enforced by the framing
  layer (:mod:`repro.server.http11`).
- **Graceful drain** — :meth:`PatchitPyServer.shutdown` (wired to
  SIGTERM/SIGINT by the daemon) stops accepting, lets in-flight
  requests finish up to ``drain_timeout_s``, persists every open cache,
  and only then stops the loop.

Observability is threaded through the existing layer, not re-invented:
each request runs against a fresh per-request :class:`ScanMetrics`
snapshot that is merged into the server-lifetime collector (the same
associative fold the process-pool scanner uses), every response carries
an ``X-Patchitpy-Trace-Id`` (honouring a caller-supplied ``X-Trace-Id``
so IDE plugins can correlate their own logs), and ``/metrics`` is the
PR 2/3 Prometheus exporter over the lifetime collector plus
point-in-time server gauges.  PR 8 adds the latency layer: every
request's wall time lands in a per-endpoint ``LatencyHistogram`` on the
lifetime collector (scraped as proper Prometheus histogram families)
*and* in a :class:`~repro.observability.histogram.RollingWindow` so
``/statusz`` can answer "p99 over the last minute" without request
history; ``--access-log`` emits one structured JSON line per request.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import re
import sys
import threading
import time
import uuid
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.core.cache import ResultStore, ScanCache, hash_source
from repro.core.engine import PatchitPy
from repro.core.project import ProjectScanner
from repro.core.review import ReviewError, review
from repro.core.sarif import review_to_sarif
from repro.observability.collector import ScanMetrics, clock
from repro.observability.exporters import to_prometheus
from repro.observability.histogram import RollingWindow
from repro.observability.trace import TraceRecorder
from repro.server.statusz import render_statusz
from repro.server.http11 import (
    ChunkedResponse,
    HttpError,
    Request,
    Response,
    read_request,
    write_chunked_response,
    write_response,
)
from repro.types import Finding

__all__ = ["BackgroundServer", "PatchitPyServer", "ServerConfig"]

_Handler = Callable[[Request], Awaitable[Response]]

#: Shape a caller-supplied ``X-Trace-Id`` must match to be honoured —
#: anything else (empty, over-long, control characters that could forge
#: log lines) falls back to a server-generated id.
_TRACE_ID_OK = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclass
class ServerConfig:
    """Tunables for one :class:`PatchitPyServer` instance.

    ``jobs`` sizes the analysis pool: 1 keeps a single worker thread
    (the event loop stays responsive while regex work runs), >1 fans
    snippets out over a process pool when the engine is picklable (regex
    matching is CPU-bound, so threads would be GIL-bound) and falls back
    to threads otherwise.  ``queue_depth`` bounds queued-plus-running
    analysis units; ``default_deadline_ms`` applies when a request does
    not carry its own (0 disables).
    """

    host: str = "127.0.0.1"
    port: int = 8753
    unix_socket: Optional[str] = None
    jobs: int = 1
    queue_depth: int = 64
    default_deadline_ms: float = 30_000.0
    max_body_bytes: int = 2 * 1024 * 1024
    io_timeout_s: float = 30.0
    idle_timeout_s: float = 120.0
    drain_timeout_s: float = 10.0
    access_log: bool = False
    #: Rolling-SLO-window geometry: ``window_slots`` ring slots of
    #: ``window_interval_s`` seconds each (default 60 × 5 s = 5 minutes
    #: of look-back for the /statusz rates and percentiles).
    window_interval_s: float = 5.0
    window_slots: int = 60
    #: Directory of the cross-process shared snippet-result cache (the
    #: fleet's content-addressed tier, ``docs/fleet.md``).  When set, the
    #: server opens a :class:`ResultStore` there: every ``/v1/analyze``
    #: and ``/v1/batch`` snippet is keyed by its SHA-256 digest, hits skip
    #: the detect pass entirely, and misses are written through before
    #: the reply so sibling workers can serve them.
    shared_cache_dir: Optional[str] = None


# One engine per pool worker, installed by the initializer so the 85
# compiled rules are unpickled once per worker, not once per snippet —
# the same discipline ProjectScanner uses for tree scans.
_WORKER_ENGINE: Optional[PatchitPy] = None


def _pool_init(pickled_engine: bytes) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = pickle.loads(pickled_engine)
    _WORKER_ENGINE.warmup()


def _pool_analyze(source: str, patch: bool) -> Tuple[dict, dict]:
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    return analyze_payload(_WORKER_ENGINE, source, patch)


def analyze_payload(
    engine: PatchitPy,
    source: str,
    patch: bool,
    trace: Optional[TraceRecorder] = None,
) -> Tuple[dict, dict]:
    """Run detect(+patch) and shape the JSON payload for one snippet.

    Returns ``(payload, metrics_snapshot_dict)``; the snapshot travels
    as plain data so the result crosses the process-pool pickle boundary
    cheaply and the caller merges it into the lifetime collector.  The
    ``patches`` list is rendered against the *submitted* source (spans
    anchored to it) so IDE clients can apply the edits verbatim; the
    fully patched text additionally lands in ``patched_source``.

    With the engine's verifier on (the default), patches the verifier
    reverted are filtered out of ``patches`` — a client must never apply
    an edit the verifier refused to ship — and every examined patch's
    ruling appears in ``patch_verdicts``, with ``patches_reverted`` and
    the aggregate ``verified`` flag alongside.
    """
    metrics = ScanMetrics()
    findings = engine.detect(source, metrics=metrics, trace=trace)
    payload: dict = {
        "vulnerable": bool(findings),
        "findings": [f.to_dict() for f in findings],
    }
    if patch:
        _apply_patch_fields(engine, source, findings, payload, metrics, trace)
    if trace is not None and trace.enabled:
        payload["trace_events"] = list(trace.events)
    return payload, metrics.to_dict()


def _apply_patch_fields(
    engine: PatchitPy,
    source: str,
    findings: List[Finding],
    payload: dict,
    metrics: ScanMetrics,
    trace: Optional[TraceRecorder] = None,
) -> None:
    """Render the patch-mode payload fields for already-detected findings."""
    if findings:
        result = engine.patch(source, findings, metrics=metrics, trace=trace)
        reverted_keys = {v.trigger_key for v in result.verdicts if v.reverted}
        rendered = engine.render_patches(source, findings, trace=trace)
        # canonical Patch wire shape (repro.types.Patch.to_dict), shared
        # with the plain-JSON exporter
        payload["patches"] = [
            p.to_dict() for p in rendered if p.trigger_key not in reverted_keys
        ]
        payload["patched_source"] = result.patched
        payload["patches_applied"] = len(result.applied)
        payload["unpatchable"] = len(result.unpatchable)
        payload["patch_verdicts"] = [v.to_dict() for v in result.verdicts]
        payload["patches_reverted"] = sum(1 for v in result.verdicts if v.reverted)
        payload["verified"] = result.verified
    else:
        payload["patches"] = []
        payload["patched_source"] = source
        payload["patches_applied"] = 0
        payload["unpatchable"] = 0
        payload["patch_verdicts"] = []
        payload["patches_reverted"] = 0
        payload["verified"] = True


def cached_payload(
    engine: PatchitPy, store: ResultStore, digest: str, source: str, patch: bool
) -> Tuple[Optional[Tuple[dict, dict]], float]:
    """Shape the analyze payload from the shared tier — no detect.

    Returns ``(payload, snapshot)`` or ``None`` on a miss, and the
    lookup's wall time.  Patch rendering, when asked for, runs against
    the submitted source so the edits anchor to it exactly as a cold
    analysis would; ``from_cache`` marks the payload as a hit.
    """
    started = clock()
    entry = store.lookup(digest)
    spent = clock() - started
    if entry is None:
        return None, spent
    metrics = ScanMetrics()
    payload: dict = {
        "vulnerable": bool(entry.findings),
        "findings": [f.to_dict() for f in entry.findings],
        "from_cache": True,
    }
    if patch:
        _apply_patch_fields(engine, source, entry.findings, payload, metrics)
    return (payload, metrics.to_dict()), spent


def _publish(store: ResultStore, digest: str, payload: dict) -> Tuple[bool, float]:
    """Write one analyzed snippet through to the shared tier; returns
    whether it was published, and the wall time that took."""
    started = clock()
    findings = [Finding.from_dict(raw) for raw in payload["findings"]]
    stored = store.store(digest, findings)
    return stored, clock() - started


class PatchitPyServer:
    """A warm-engine scan daemon over asyncio (see module docstring)."""

    def __init__(
        self,
        engine: Optional[PatchitPy] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.engine = engine if engine is not None else PatchitPy()
        self.config = config if config is not None else ServerConfig()
        #: Server-lifetime metrics — per-request snapshots merge in here.
        self.metrics = ScanMetrics()
        #: Rolling SLO windows for /statusz (rates + recent percentiles).
        self.window = RollingWindow(
            interval_s=self.config.window_interval_s,
            slots=self.config.window_slots,
        )
        self._caches: Dict[Path, ScanCache] = {}
        #: The cross-process shared snippet cache (fleet tier), or None.
        self._snippet_store: Optional[ResultStore] = None
        self._pool: Optional[Executor] = None
        self._pool_kind = "none"
        self._uses_process_pool = False
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._started_at = 0.0
        self._pending = 0  # queued-or-running analysis units (backpressure)
        self._inflight = 0  # HTTP requests currently being handled
        self._conn_tasks: set = set()  # connection handler tasks, for drain
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self.draining = False
        self._routes: Dict[Tuple[str, str], _Handler] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/v1/metrics.json"): self._handle_metrics_json,
            ("GET", "/statusz"): self._handle_statusz,
            ("POST", "/v1/analyze"): self._handle_analyze,
            ("POST", "/v1/batch"): self._handle_batch,
            ("POST", "/v1/scan"): self._handle_scan,
            ("POST", "/v1/review"): self._handle_review,
        }

    # ----------------------------------------------------------- lifecycle

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port (``None`` before start / on unix sockets)."""
        if self._asyncio_server is None or self.config.unix_socket:
            return None
        sockets = self._asyncio_server.sockets or []
        return sockets[0].getsockname()[1] if sockets else None

    async def start(self) -> "PatchitPyServer":
        """Warm the engine, build the pool, and bind the listener."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self.engine.warmup()
        if self.config.shared_cache_dir:
            self._snippet_store = ResultStore(
                Path(self.config.shared_cache_dir), self.engine.rules.fingerprint()
            )
        self._pool, self._pool_kind = self._build_pool()
        if self.config.unix_socket:
            self._asyncio_server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_socket
            )
        else:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
        self._started_at = time.monotonic()
        return self

    def _build_pool(self) -> Tuple[Executor, str]:
        jobs = max(1, self.config.jobs)
        if jobs > 1 and self._engine_picklable():
            pool = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_pool_init,
                initargs=(pickle.dumps(self.engine),),
            )
            self._uses_process_pool = True
            return pool, "process"
        return ThreadPoolExecutor(max_workers=jobs), "thread"

    def _engine_picklable(self) -> bool:
        try:
            pickle.dumps(self.engine)
            return True
        except Exception:
            return False

    async def wait_stopped(self) -> None:
        """Block until :meth:`shutdown` has fully drained the server."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, persist.

        Idempotent — SIGTERM followed by SIGINT (or a test calling it
        twice) runs the drain once.
        """
        if self.draining:
            return
        self.draining = True
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        assert self._idle is not None and self._stopped is not None
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            pass  # drain budget spent; abandon stragglers
        # In-flight requests are done (or abandoned); what remains are
        # idle keep-alive connections parked in read_request.  Cancel
        # them so no handler task outlives the loop.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        for cache in self._caches.values():
            cache.close()
        if self._snippet_store is not None:
            self._snippet_store.close()
        self._stopped.set()

    # ---------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cfg = self.config
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, cfg.max_body_bytes, cfg.idle_timeout_s, cfg.io_timeout_s
                    )
                except HttpError as error:
                    await write_response(writer, Response.from_error(error), False)
                    break
                if request is None:
                    break
                supplied = request.headers.get("x-trace-id", "")
                if _TRACE_ID_OK.match(supplied):
                    trace_id = supplied
                else:
                    trace_id = uuid.uuid4().hex[:16]
                started = clock()
                self._inflight += 1
                assert self._idle is not None
                self._idle.clear()
                try:
                    response = await self._dispatch(request)
                except HttpError as error:
                    response = Response.from_error(error)
                except Exception as error:  # noqa: BLE001 - must answer 500
                    response = Response.from_error(
                        HttpError(500, f"internal error: {error}")
                    )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                keep = request.keep_alive and not self.draining
                if isinstance(response, ChunkedResponse):
                    # Streaming: the head goes out now, the chunks as the
                    # producer yields them; accounting runs after the last
                    # chunk so the recorded duration covers the stream.
                    try:
                        await write_chunked_response(
                            writer,
                            response,
                            keep,
                            extra_headers={"X-Patchitpy-Trace-Id": trace_id},
                        )
                    except (ConnectionError, OSError):
                        self._account(request, response, trace_id, clock() - started)
                        break
                    self._account(request, response, trace_id, clock() - started)
                    if not keep:
                        break
                    continue
                self._account(request, response, trace_id, clock() - started)
                try:
                    await write_response(
                        writer,
                        response,
                        keep,
                        extra_headers={"X-Patchitpy-Trace-Id": trace_id},
                    )
                except (ConnectionError, OSError):
                    break
                if not keep:
                    break
        except asyncio.CancelledError:
            pass  # drain cancelled an idle keep-alive connection
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    def _endpoint_label(self, request: Request) -> str:
        """A bounded-cardinality endpoint label for histograms/windows.

        Known routes label as their path; anything else (typo'd paths,
        scanners probing the port) collapses into ``other`` so a hostile
        client cannot mint unbounded label values.
        """
        if any(path == request.path for _, path in self._routes):
            return request.path
        return "other"

    def _account(
        self, request: Request, response: Response, trace_id: str, seconds: float
    ) -> None:
        """Fold one request into the lifetime collector, the rolling SLO
        windows, and (when enabled) the structured access log."""
        m = self.metrics
        m.count("server_requests")
        m.count(f"server_responses_{response.status // 100}xx")
        m.add_time("server_request_time_s", seconds)
        endpoint = self._endpoint_label(request)
        m.observe("server_request_seconds/" + endpoint, seconds)
        phases: Dict[str, float] = getattr(response, "phases", None) or {}
        for phase, spent in phases.items():
            m.observe("phase_seconds/" + phase, spent)
        window = self.window
        window.count("requests/" + endpoint)
        window.observe("latency/" + endpoint, seconds)
        window.count(f"responses/{response.status // 100}xx")
        if response.status in (429, 504):
            window.count(f"responses/{response.status}")
        if self.config.access_log:
            record: Dict[str, Any] = {
                "trace_id": trace_id,
                "method": request.method,
                "path": request.path,
                "status": response.status,
                "bytes": len(response.body),
                "duration_ms": round(seconds * 1000.0, 3),
            }
            for phase, spent in sorted(phases.items()):
                record[phase + "_ms"] = round(spent * 1000.0, 3)
            record.update(getattr(response, "access", None) or {})
            print(json.dumps(record, sort_keys=True), file=sys.stderr)

    async def _dispatch(self, request: Request) -> Response:
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if any(path == request.path for _, path in self._routes):
                raise HttpError(405, f"method {request.method} not allowed")
            raise HttpError(404, f"no such endpoint: {request.path}")
        if self.draining and request.path.startswith("/v1/"):
            raise HttpError(503, "server is draining", headers={"Retry-After": "1"})
        handler_started = clock()
        response = await handler(request)
        # Response is a plain dataclass, so handlers hang phase timings
        # off it (``phases``) for _account to fold; the handler phase is
        # always present, queue_wait only where a handler measured one.
        phases = getattr(response, "phases", None)
        if phases is None:
            phases = {}
            response.phases = phases  # type: ignore[attr-defined]
        phases.setdefault("handler", clock() - handler_started)
        return response

    # ------------------------------------------------------------- workers

    def _acquire_slots(self, units: int) -> None:
        """Reserve ``units`` queue slots or refuse with 429."""
        depth = self.config.queue_depth
        if units > depth:
            raise HttpError(
                429,
                f"request needs {units} analysis slot(s) but the queue depth "
                f"is {depth}",
                headers={"Retry-After": "1"},
            )
        if self._pending + units > depth:
            self.metrics.count("server_backpressure_rejections")
            raise HttpError(
                429,
                f"analysis queue is full ({self._pending}/{depth} slots in use)",
                headers={"Retry-After": "1"},
            )
        self._pending += units

    def _submit_analysis(self, source: str, patch: bool) -> "asyncio.Future":
        """One snippet onto the analysis pool."""
        loop = asyncio.get_running_loop()
        if self._uses_process_pool:
            return loop.run_in_executor(self._pool, _pool_analyze, source, patch)
        return loop.run_in_executor(
            self._pool, analyze_payload, self.engine, source, patch
        )

    async def _run_unit(self, source: str, patch: bool) -> Tuple[dict, dict]:
        """One snippet through the shared tier and the pool (slot held).

        A miss is published to the tier *before* this returns, so once a
        reply carries a verdict every sibling worker can hit it.  Tier
        calls run on the default executor, timed as the unit's
        ``snippet_cache_time_s``; a failed publish only counts as
        ``snippet_cache_write_errors``.  The slot frees when the unit
        ends or is cancelled.
        """
        try:
            store = self._snippet_store
            if store is None:
                return await self._submit_analysis(source, patch)
            loop = asyncio.get_running_loop()
            digest = hash_source(source)
            hit, cache_s = await loop.run_in_executor(
                None, cached_payload, self.engine, store, digest, source, patch
            )
            if hit is not None:
                self.metrics.count("cache_hits")
                self.metrics.count("snippet_cache_hits")
                payload, snapshot = hit
            else:
                self.metrics.count("cache_misses")
                self.metrics.count("snippet_cache_misses")
                payload, snapshot = await self._submit_analysis(source, patch)
                stored, publish_s = await loop.run_in_executor(
                    None, _publish, store, digest, payload
                )
                cache_s += publish_s
                if not stored:
                    self.metrics.count("snippet_cache_write_errors")
            snapshot["timers"]["snippet_cache_time_s"] = cache_s
            return payload, snapshot
        finally:
            self._release_slot()

    def _release_slot(self) -> None:
        self._pending = max(0, self._pending - 1)

    def _deadline_s(self, body: dict) -> Optional[float]:
        raw = body.get("deadline_ms", self.config.default_deadline_ms)
        try:
            deadline_ms = float(raw)
        except (TypeError, ValueError):
            raise HttpError(400, f"deadline_ms must be a number, got {raw!r}")
        return deadline_ms / 1000.0 if deadline_ms > 0 else None

    @staticmethod
    def _require_source(payload: dict, where: str = "request") -> str:
        source = payload.get("source")
        if not isinstance(source, str):
            raise HttpError(400, f"{where} must carry a string 'source' field")
        return source

    # ------------------------------------------------------------ handlers

    async def _handle_healthz(self, request: Request) -> Response:
        status = "draining" if self.draining else "ok"
        from repro import __version__

        return Response.json_response(
            {
                "status": status,
                "version": __version__,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "rules": len(self.engine.rules),
                "pool": self._pool_kind,
                "jobs": max(1, self.config.jobs),
                "queue_depth": self.config.queue_depth,
                "queued": self._pending,
                "inflight": self._inflight,
                "requests_total": self.metrics.counters.get("server_requests", 0),
                "open_caches": len(self._caches),
                "shared_cache": self._snippet_store is not None,
            },
            status=503 if self.draining else 200,
        )

    async def _handle_metrics(self, request: Request) -> Response:
        gauges = {
            "server_uptime_seconds": time.monotonic() - self._started_at,
            "server_inflight_requests": float(self._inflight),
            "server_queued_units": float(self._pending),
            "server_queue_capacity": float(self.config.queue_depth),
            "server_open_caches": float(len(self._caches)),
        }
        return Response.text_response(to_prometheus(self.metrics, extra_gauges=gauges))

    async def _handle_metrics_json(self, request: Request) -> Response:
        """The lifetime collector as mergeable JSON — the fleet's feed.

        ``/metrics`` is for Prometheus scrapes; this endpoint returns the
        :meth:`ScanMetrics.to_dict` snapshot (histograms included) so the
        fleet router can fold per-worker collectors with the exact
        associative merge and re-export fleet-wide quantiles that match
        what a single process would have reported.
        """
        return Response.json_response(
            {
                "metrics": self.metrics.to_dict(),
                "gauges": {
                    "server_uptime_seconds": time.monotonic() - self._started_at,
                    "server_inflight_requests": float(self._inflight),
                    "server_queued_units": float(self._pending),
                    "server_queue_capacity": float(self.config.queue_depth),
                    "server_open_caches": float(len(self._caches)),
                },
                "pool": self._pool_kind,
                "draining": self.draining,
            }
        )

    async def _handle_statusz(self, request: Request) -> Response:
        return Response.html_response(render_statusz(self))

    async def _handle_analyze(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        source = self._require_source(body)
        patch = bool(body.get("patch", False))
        want_trace = bool(body.get("trace", False))
        deadline = self._deadline_s(body)
        started = clock()

        if want_trace:
            # Traced analysis runs inline on the loop's default executor:
            # the recorder's event buffer must come back with the result,
            # and the trace is a debugging surface, not the hot path.
            self._acquire_slots(1)
            recorder = TraceRecorder()
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                None, analyze_payload, self.engine, source, patch, recorder
            )
            future.add_done_callback(lambda _f: self._release_slot())
        else:
            self._acquire_slots(1)
            future = self._run_unit(source, patch)
        try:
            payload, snapshot = await self._await_deadline(future, deadline)
        except asyncio.TimeoutError:
            raise HttpError(
                504, f"analysis missed its deadline of {deadline * 1000.0:g}ms"
            )
        self.metrics.merge(ScanMetrics.from_dict(snapshot))
        elapsed = clock() - started
        payload["duration_ms"] = round(elapsed * 1000.0, 3)
        response = Response.json_response(payload)
        # Queue wait = elapsed wall minus the work the engine and the
        # shared tier accounted for in their own timers.  An idle pool
        # makes this ~0; a saturated one makes it the time the snippet
        # sat behind other units.
        timers = snapshot.get("timers", {})
        work_s = sum(
            timers.get(name, 0.0)
            for name in (
                "detect_time_s", "patch_time_s", "verify_time_s", "snippet_cache_time_s"
            )
        )
        phases = {"queue_wait": max(0.0, elapsed - work_s)}
        if "snippet_cache_time_s" in timers:
            phases["cache"] = timers["snippet_cache_time_s"]
        response.phases = phases  # type: ignore[attr-defined]
        return response

    async def _handle_batch(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise HttpError(400, "batch requests need a non-empty 'items' list")
        patch = bool(body.get("patch", False))
        stream = bool(body.get("stream", False))
        deadline = self._deadline_s(body)
        started = clock()

        sources: List[str] = []
        ids: List[Any] = []
        for index, item in enumerate(items):
            if not isinstance(item, dict):
                raise HttpError(400, f"items[{index}] must be a JSON object")
            sources.append(self._require_source(item, where=f"items[{index}]"))
            ids.append(item.get("id", index))

        self._acquire_slots(len(sources))
        futures = [
            asyncio.ensure_future(self._run_unit(source, patch)) for source in sources
        ]
        if stream:
            return self._stream_batch(ids, futures, deadline, started)
        gathered = asyncio.gather(*futures, return_exceptions=True)
        try:
            outcomes = await self._await_deadline(gathered, deadline)
        except asyncio.TimeoutError:
            gathered.cancel()
            raise HttpError(
                504,
                f"batch of {len(sources)} missed its deadline of "
                f"{deadline * 1000.0:g}ms",
            )

        results: List[dict] = []
        failed = 0
        for item_id, outcome in zip(ids, outcomes):
            if isinstance(outcome, BaseException):
                failed += 1
                results.append({"id": item_id, "error": str(outcome)})
                continue
            payload, snapshot = outcome
            self.metrics.merge(ScanMetrics.from_dict(snapshot))
            payload["id"] = item_id
            results.append(payload)
        return Response.json_response(
            {
                "results": results,
                "count": len(results),
                "failed": failed,
                "duration_ms": round((clock() - started) * 1000.0, 3),
            }
        )

    def _stream_batch(
        self,
        ids: List[Any],
        futures: List["asyncio.Future"],
        deadline: Optional[float],
        started: float,
    ) -> ChunkedResponse:
        """``/v1/batch`` with ``"stream": true`` — NDJSON as work finishes.

        Each completed item becomes one newline-terminated JSON line the
        moment its analysis lands (completion order, not submission
        order — clients correlate by ``id``), followed by a final
        ``{"done": true, ...}`` summary line.  A missed deadline turns
        every still-pending item into an error line instead of failing
        the whole response: by then the head and earlier results are
        already on the wire.
        """

        async def produce() -> "asyncio.AsyncIterator[bytes]":  # pragma: no branch
            loop = asyncio.get_running_loop()
            pending: Dict["asyncio.Future", Any] = dict(zip(futures, ids))
            deadline_at = None if deadline is None else loop.time() + deadline
            count = 0
            failed = 0
            while pending:
                timeout = (
                    None if deadline_at is None else max(0.0, deadline_at - loop.time())
                )
                done, _ = await asyncio.wait(
                    set(pending), timeout=timeout, return_when=asyncio.FIRST_COMPLETED
                )
                if not done:  # deadline expired with work still queued
                    for future, item_id in pending.items():
                        future.cancel()
                        count += 1
                        failed += 1
                        line = {
                            "id": item_id,
                            "error": (
                                "batch item missed its deadline of "
                                f"{(deadline or 0.0) * 1000.0:g}ms"
                            ),
                        }
                        yield (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
                    self.metrics.count("server_stream_deadline_drops", len(pending))
                    break
                for future in done:
                    item_id = pending.pop(future)
                    count += 1
                    try:
                        payload, snapshot = future.result()
                    except BaseException as error:  # noqa: BLE001 - per-item error line
                        failed += 1
                        line = {"id": item_id, "error": str(error)}
                    else:
                        self.metrics.merge(ScanMetrics.from_dict(snapshot))
                        payload["id"] = item_id
                        line = payload
                    yield (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
            summary = {
                "done": True,
                "count": count,
                "failed": failed,
                "duration_ms": round((clock() - started) * 1000.0, 3),
            }
            yield (json.dumps(summary, sort_keys=True) + "\n").encode("utf-8")

        return ChunkedResponse(chunks=produce())

    async def _handle_scan(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        raw_root = body.get("root")
        if not isinstance(raw_root, str) or not raw_root:
            raise HttpError(400, "scan requests need a string 'root' field")
        root = Path(raw_root)
        if not root.is_dir():
            raise HttpError(400, f"scan root is not a directory: {root}")
        jobs = max(1, int(body.get("jobs", 1)))
        use_cache = bool(body.get("use_cache", True))
        deadline = self._deadline_s(body)
        started = clock()

        collector = ScanMetrics()
        scanner = ProjectScanner(engine=self.engine, metrics=collector)
        cache = self._cache_for(root) if use_cache else None

        def run_scan():
            return scanner.scan(root, jobs=jobs, processes=False, cache=cache)

        # Tree scans run on the loop's default thread executor, not the
        # analysis pool: a scan inside a process-pool worker could not
        # itself fan out, and one scan must not starve snippet analyses.
        self._acquire_slots(1)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, run_scan)
        future.add_done_callback(lambda _f: self._release_slot())
        try:
            report = await self._await_deadline(future, deadline)
        except asyncio.TimeoutError:
            raise HttpError(
                504, f"scan missed its deadline of {deadline * 1000.0:g}ms"
            )
        self.metrics.merge(collector)
        response = Response.json_response(
            {
                "root": str(report.root),
                "files_scanned": report.scanned_count,
                "vulnerable_files": len(report.vulnerable_files),
                "total_findings": report.total_findings,
                "findings_by_cwe": report.findings_by_cwe(),
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "files": [
                    {
                        "path": str(result.path),
                        "findings": [f.to_dict() for f in result.findings],
                        "error": result.error,
                        "from_cache": result.from_cache,
                    }
                    for result in report.files
                    if result.is_vulnerable or result.error
                ],
                "duration_ms": round((clock() - started) * 1000.0, 3),
            }
        )
        # Cache efficiency travels to the access log with the request.
        response.access = {  # type: ignore[attr-defined]
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
        }
        return response

    async def _handle_review(self, request: Request) -> Response:
        """Diff-aware review: scan only what a change touched.

        Body: ``{"root": ..., "base": ...?, "head": ...?, "diff": ...?,
        "include_preexisting": bool?, "sarif": bool?, "use_cache": bool?,
        "trace": bool?, "deadline_ms": ...?}`` — either ``diff`` (a
        unified diff against the worktree at ``root``) or ``base``
        (optionally with ``head``) git revisions.  The baseline scan is
        served from the server-held open cache for ``root``, so a warm
        repo reviews in milliseconds; per-request metrics fold into the
        lifetime collector and ``trace`` returns the recorder's events,
        exactly as ``/v1/analyze`` does.
        """
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        raw_root = body.get("root")
        if not isinstance(raw_root, str) or not raw_root:
            raise HttpError(400, "review requests need a string 'root' field")
        root = Path(raw_root)
        if not root.is_dir():
            raise HttpError(400, f"review root is not a directory: {root}")
        diff_text = body.get("diff")
        base = body.get("base")
        head = body.get("head")
        if diff_text is None and base is None:
            raise HttpError(
                400, "review requests need either 'diff' or 'base' (+'head')"
            )
        if diff_text is not None and base is not None:
            raise HttpError(400, "pass either 'diff' or git revisions, not both")
        for name, value in (("diff", diff_text), ("base", base), ("head", head)):
            if value is not None and not isinstance(value, str):
                raise HttpError(400, f"'{name}' must be a string")
        include_preexisting = bool(body.get("include_preexisting", False))
        want_sarif = bool(body.get("sarif", False))
        use_cache = bool(body.get("use_cache", True))
        deadline = self._deadline_s(body)
        started = clock()

        collector = ScanMetrics()
        trace = TraceRecorder() if body.get("trace") else None
        cache = self._cache_for(root) if use_cache else None

        def run_review():
            return review(
                root,
                base=base,
                head=head,
                diff_text=diff_text,
                engine=self.engine,
                use_cache=use_cache,
                cache=cache,
                metrics=collector,
                trace=trace,
            )

        # Reviews run on the loop's default thread executor for the same
        # reason tree scans do: they hold the server's open cache and
        # must not starve snippet analyses in the pool.
        self._acquire_slots(1)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, run_review)
        future.add_done_callback(lambda _f: self._release_slot())
        try:
            report = await self._await_deadline(future, deadline)
        except asyncio.TimeoutError:
            raise HttpError(
                504, f"review missed its deadline of {deadline * 1000.0:g}ms"
            )
        except ReviewError as error:
            raise HttpError(400, str(error))
        self.metrics.merge(collector)
        payload = report.to_dict()
        if not include_preexisting:
            payload["findings"] = [
                item for item in payload["findings"]
                if item["status"] != "pre-existing"
            ]
        payload["clean"] = report.clean
        payload["duration_ms"] = round((clock() - started) * 1000.0, 3)
        if want_sarif:
            payload["sarif"] = review_to_sarif(
                report, include_preexisting=include_preexisting
            )
        if trace is not None and trace.enabled:
            payload["trace_events"] = list(trace.events)
        response = Response.json_response(payload)
        response.access = {  # type: ignore[attr-defined]
            "cache_hits": collector.counters.get("cache_hits", 0),
            "cache_misses": collector.counters.get("cache_misses", 0),
        }
        return response

    def _cache_for(self, root: Path) -> ScanCache:
        """The open, shared cache for a scan root (created on first use)."""
        key = root.resolve()
        cache = self._caches.get(key)
        if cache is None or cache.closed:
            cache = ScanCache(key, self.engine.rules.fingerprint())
            self._caches[key] = cache
        return cache

    @staticmethod
    async def _await_deadline(awaitable, deadline_s: Optional[float]):
        if deadline_s is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, timeout=deadline_s)


class BackgroundServer:
    """Run a :class:`PatchitPyServer` on a thread — tests and benchmarks.

    The daemon proper (``patchitpy serve``) owns the main thread; this
    helper is for embedding: it spins the event loop on a daemon thread,
    blocks until the listener is bound, and exposes the address.  Use as
    a context manager::

        with BackgroundServer(PatchitPyServer()) as handle:
            client = ServerClient(port=handle.port)
            ...
    """

    def __init__(self, server: PatchitPyServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> Optional[int]:
        return self.server.port

    @property
    def unix_socket(self) -> Optional[str]:
        return self.server.config.unix_socket

    def start(self) -> "BackgroundServer":
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._startup_error = error
                ready.set()
                return
            ready.set()
            try:
                loop.run_until_complete(self.server.wait_stopped())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="patchitpy-server", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.shutdown(), self._loop)
        try:
            future.result(timeout=timeout)
        except Exception:
            pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
