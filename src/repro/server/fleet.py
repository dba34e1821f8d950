"""``patchitpy fleet`` — a sharded scan fleet behind one front door.

One :class:`PatchitPyServer` saturates at its worker pool; the paper's
throughput story past that point is *horizontal*: N daemon processes,
each with its own warm engine, behind a router that makes the fleet look
like a single server.  This module is that router plus the supervisor
that owns the worker processes.

Design in one paragraph: :class:`FleetRouter` binds the public port and
speaks the exact daemon wire protocol (same endpoints, same JSON shapes,
same 429/503/504 semantics), so every existing client — ``ServerClient``,
the CI smoke scripts, an IDE plugin — points at the fleet unchanged.  It
spawns ``workers`` copies of ``python -m repro.server.daemon --port 0``,
learns each one's port from a port file, health-checks them on an
interval, and restarts the dead with capped exponential backoff.
Requests are routed by **content digest** over a consistent-hash ring
(:class:`~repro.server.router.HashRing`): the same snippet bytes always
land on the same worker, so each worker's in-memory caches stay hot and
disjoint.  All workers additionally share one content-addressed result
cache directory (:class:`~repro.core.cache.ResultStore`, a file per
digest), so when the ring re-routes — a worker died mid-batch — the surviving
worker serves the bytes its dead sibling already scanned as a warm hit
instead of re-analyzing them.  Per-tenant token buckets
(:class:`~repro.server.router.TenantQuotas`) shed abusive load at the
front door with ``429`` + ``Retry-After`` before any worker spends a
queue slot on it.

Observability is fleet-wide: ``/metrics`` folds every worker's
:class:`~repro.observability.collector.ScanMetrics` snapshot into one
exposition with the collector's exact associative merge (histogram
quantiles match what a single process would have reported), plus
router-side ``fleet_*`` families and labeled per-tenant / per-worker
series; ``/statusz`` renders the worker table and routing health as one
HTML page (:mod:`repro.server.fleetz`).

Operational story, tunables, and failure drills: ``docs/fleet.md`` and
``docs/deployment.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import hash_source
from repro.observability.collector import ScanMetrics, clock
from repro.observability.exporters import to_prometheus
from repro.observability.histogram import RollingWindow
from repro.server.client import ServerClient
from repro.server.fleetz import render_fleet_statusz
from repro.server.http11 import (
    ChunkedResponse,
    HttpError,
    Request,
    Response,
    read_request,
    write_chunked_response,
    write_response,
)
from repro.server.router import HashRing, TenantQuotas, tenant_label

__all__ = [
    "BackgroundFleet",
    "FleetConfig",
    "FleetRouter",
    "FleetWorker",
    "build_fleet_parser",
    "config_from_args",
    "main",
]

#: Transport-level failures that mean "this worker did not answer" — the
#: router marks the worker down and retries the request clockwise.
_PROXY_ERRORS = (http.client.HTTPException, ConnectionError, OSError)

#: Keep-alive connections pooled per worker; beyond this, extras close.
_POOL_LIMIT = 8

#: Caller-supplied trace ids the fleet echoes and forwards (same shape
#: the daemon accepts).
_TRACE_ID_OK = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclass
class FleetConfig:
    """Tunables for one :class:`FleetRouter` and its worker processes.

    ``workers`` is the shard count; each worker gets its own ``--jobs``
    analysis pool and ``--queue-depth`` backpressure limit, so total
    fleet capacity is ``workers x jobs`` warm engines.  ``tenant_rate``
    / ``tenant_burst`` shape the per-tenant token buckets (requests per
    second, burst allowance); ``max_tenants`` caps metric-label
    cardinality.  ``run_dir`` holds the port files, worker logs, and
    (unless ``shared_cache_dir`` points elsewhere) the shared cache
    tier; left unset, the router creates and owns a temp directory.
    """

    host: str = "127.0.0.1"
    port: int = 8750
    workers: int = 2
    jobs: int = 1
    queue_depth: int = 64
    shared_cache_dir: Optional[str] = None
    run_dir: Optional[str] = None
    replicas: int = 64
    tenant_rate: float = 50.0
    tenant_burst: float = 200.0
    max_tenants: int = 256
    health_interval_s: float = 0.5
    restart_backoff_s: float = 0.5
    restart_backoff_max_s: float = 30.0
    #: After this long continuously healthy, a worker's backoff resets
    #: to base — a crash loop backs off, a one-off crash stays cheap.
    backoff_reset_s: float = 30.0
    worker_start_timeout_s: float = 60.0
    proxy_timeout_s: float = 60.0
    max_body_bytes: int = 2 * 1024 * 1024
    io_timeout_s: float = 30.0
    idle_timeout_s: float = 120.0
    drain_timeout_s: float = 10.0
    access_log: bool = False
    extended: bool = False
    window_interval_s: float = 5.0
    window_slots: int = 60


class FleetWorker:
    """One supervised daemon process plus its connection pool.

    The router owns the state machine (``starting`` → ``up`` → ``down``
    → ``starting`` …); this class owns the process mechanics: spawning
    ``python -m repro.server.daemon --port 0 --port-file …`` with stdout
    and stderr captured to a per-worker log, learning the bound port
    from the port file, probing ``/healthz``, and pooling keep-alive
    :class:`ServerClient` connections.  Pooled clients are tagged with
    the spawn generation so a connection to a dead incarnation is never
    reused after a respawn rebinds the port.
    """

    def __init__(self, worker_id: str, config: FleetConfig, run_dir: Path) -> None:
        self.worker_id = worker_id
        self.config = config
        self.run_dir = run_dir
        self.port_file = run_dir / f"{worker_id}.port"
        self.log_file = run_dir / f"{worker_id}.log"
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.state = "starting"  # starting | up | down
        self.generation = 0
        self.restarts = 0  # respawns after the initial start
        self.proxied = 0  # requests this worker answered for the router
        self.backoff_s = config.restart_backoff_s
        self.next_restart_at = 0.0
        self.starting_since = 0.0
        self.up_since = 0.0
        self.probe_failures = 0
        self.fail_reason = ""
        self._pool: List[ServerClient] = []
        self._pool_lock = threading.Lock()
        self._log_handle = None

    # ------------------------------------------------------------- process

    def spawn(self) -> None:
        """Start (or restart) the daemon process for this shard."""
        with contextlib.suppress(FileNotFoundError, OSError):
            self.port_file.unlink()
        self.port = None
        self.generation += 1
        self.probe_failures = 0
        cfg = self.config
        cmd = [
            sys.executable,
            "-m",
            "repro.server.daemon",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--port-file",
            str(self.port_file),
            "--jobs",
            str(max(1, cfg.jobs)),
            "--queue-depth",
            str(max(1, cfg.queue_depth)),
        ]
        if cfg.shared_cache_dir:
            cmd += ["--shared-cache", str(cfg.shared_cache_dir)]
        if cfg.extended:
            cmd.append("--extended")
        if cfg.access_log:
            cmd.append("--access-log")
        env = dict(os.environ)
        # The fleet may be launched from an installed console script or a
        # source checkout; either way the child must import `repro`.
        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root if not existing else os.pathsep.join([src_root, existing])
        )
        if self._log_handle is None:
            self._log_handle = open(self.log_file, "ab")
        self.process = subprocess.Popen(
            cmd, stdout=self._log_handle, stderr=self._log_handle, env=env
        )

    def alive(self) -> bool:
        """Whether the daemon process is still running."""
        return self.process is not None and self.process.poll() is None

    def poll_port(self) -> Optional[int]:
        """The port from the port file, once the daemon has bound one."""
        try:
            text = self.port_file.read_text(encoding="utf-8").strip()
            return int(text) if text else None
        except (FileNotFoundError, ValueError, OSError):
            return None

    def probe(self) -> bool:
        """One fresh-connection ``/healthz`` round trip (executor-side)."""
        if self.port is None:
            return False
        try:
            with ServerClient(
                port=self.port, timeout=min(5.0, self.config.proxy_timeout_s)
            ) as client:
                return client.healthz().get("status") == "ok"
        except Exception:  # noqa: BLE001 - any failure is "not healthy"
            return False

    def terminate(self) -> None:
        if self.alive():
            assert self.process is not None
            with contextlib.suppress(OSError):
                self.process.terminate()

    def kill(self) -> None:
        if self.alive():
            assert self.process is not None
            with contextlib.suppress(OSError):
                self.process.kill()

    def close(self) -> None:
        """Release the connection pool and the log handle."""
        self.clear_pool()
        if self._log_handle is not None:
            with contextlib.suppress(OSError):
                self._log_handle.close()
            self._log_handle = None

    # --------------------------------------------------------- connections

    def clear_pool(self) -> None:
        with self._pool_lock:
            stale, self._pool = self._pool, []
        for client in stale:
            client.close()

    def _acquire(self) -> ServerClient:
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
            port = self.port
        if port is None:
            raise ConnectionError(f"worker {self.worker_id} has no bound port")
        client = ServerClient(port=port, timeout=self.config.proxy_timeout_s)
        client.fleet_generation = self.generation  # type: ignore[attr-defined]
        return client

    def _release(self, client: ServerClient) -> None:
        with self._pool_lock:
            same_generation = (
                getattr(client, "fleet_generation", -1) == self.generation
            )
            if (
                self.state == "up"
                and same_generation
                and len(self._pool) < _POOL_LIMIT
            ):
                self._pool.append(client)
                return
        client.close()

    def forward(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, str, bytes]:
        """Proxy one request on a pooled connection (blocking; executor).

        Transport failures close the connection and propagate so the
        router can mark this worker down and re-route; HTTP error
        *statuses* are data, returned to the client verbatim.
        """
        client = self._acquire()
        try:
            result = client.forward(method, path, body=body, headers=headers)
        except Exception:
            client.close()
            raise
        self._release(client)
        self.proxied += 1
        return result


class FleetRouter:
    """The fleet front door: one listener, N supervised daemon shards."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config if config is not None else FleetConfig()
        #: Router-side lifetime metrics (``fleet_*`` families only —
        #: worker families merge in at scrape time, never stored here).
        self.metrics = ScanMetrics()
        self.window = RollingWindow(
            interval_s=self.config.window_interval_s,
            slots=self.config.window_slots,
        )
        self.ring = HashRing(replicas=self.config.replicas)
        self.quotas = TenantQuotas(
            rate=self.config.tenant_rate,
            burst=self.config.tenant_burst,
            max_tenants=self.config.max_tenants,
        )
        self.workers: Dict[str, FleetWorker] = {}
        self.draining = False
        self.run_dir: Optional[Path] = None
        self.shared_cache_dir: Optional[Path] = None
        self._owns_run_dir = False
        self._executor = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._inflight = 0
        self._started_at = 0.0
        self._routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/statusz"): self._handle_statusz,
            ("POST", "/v1/analyze"): self._handle_analyze,
            ("POST", "/v1/batch"): self._handle_batch,
            ("POST", "/v1/scan"): self._handle_scan,
            ("POST", "/v1/review"): self._handle_review,
        }

    # ----------------------------------------------------------- lifecycle

    @property
    def port(self) -> Optional[int]:
        """The bound front-door port (``None`` before start)."""
        if self._asyncio_server is None:
            return None
        sockets = self._asyncio_server.sockets or []
        return sockets[0].getsockname()[1] if sockets else None

    async def start(self) -> "FleetRouter":
        """Spawn the workers, wait for them healthy, bind the listener."""
        from concurrent.futures import ThreadPoolExecutor

        cfg = self.config
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        if cfg.run_dir:
            self.run_dir = Path(cfg.run_dir)
            self.run_dir.mkdir(parents=True, exist_ok=True)
        else:
            self.run_dir = Path(tempfile.mkdtemp(prefix="patchitpy-fleet-"))
            self._owns_run_dir = True
        if cfg.shared_cache_dir:
            self.shared_cache_dir = Path(cfg.shared_cache_dir)
        else:
            self.shared_cache_dir = self.run_dir / "shared-cache"
        self.shared_cache_dir.mkdir(parents=True, exist_ok=True)
        cfg.shared_cache_dir = str(self.shared_cache_dir)

        # Proxy calls block in http.client, so the thread pool — not the
        # event loop — bounds forwarding concurrency.
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, 4 * max(1, cfg.workers)),
            thread_name_prefix="fleet-proxy",
        )
        for index in range(max(1, cfg.workers)):
            worker = FleetWorker(f"w{index}", cfg, self.run_dir)
            self.workers[worker.worker_id] = worker
            worker.spawn()
        await asyncio.gather(
            *(self._await_worker_up(w) for w in self.workers.values())
        )
        if not self.ring.members:
            raise OSError("no fleet worker became healthy before the timeout")

        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        self._started_at = time.monotonic()
        self._supervisor = asyncio.ensure_future(self._supervise())
        return self

    async def _await_worker_up(self, worker: FleetWorker) -> None:
        """Initial-start wait: port file, then a passing health probe."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.worker_start_timeout_s
        while loop.time() < deadline:
            if not worker.alive():
                break
            if worker.port is None:
                worker.port = worker.poll_port()
            if worker.port is not None and await loop.run_in_executor(
                self._executor, worker.probe
            ):
                worker.state = "up"
                worker.up_since = loop.time()
                self.ring.add(worker.worker_id)
                return
            await asyncio.sleep(0.05)
        # Did not come up: leave it "down" so the supervisor keeps trying
        # (unless *no* worker made it, which start() turns into an error).
        worker.kill()
        self._mark_down(worker, "did not become healthy at start")

    async def wait_stopped(self) -> None:
        """Block until :meth:`shutdown` has fully drained the fleet."""
        assert self._stopped is not None, "fleet not started"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Drain in-flight requests, stop the workers, clean the run dir."""
        if self.draining:
            return
        self.draining = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        assert self._idle is not None and self._stopped is not None
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout_s
            )
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        for worker in self.workers.values():
            worker.terminate()
        deadline = time.monotonic() + self.config.drain_timeout_s
        for worker in self.workers.values():
            while worker.alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            worker.kill()
            worker.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._owns_run_dir and self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        self._stopped.set()

    # --------------------------------------------------------- supervision

    def _mark_down(self, worker: FleetWorker, reason: str) -> None:
        """Take a worker out of rotation and schedule its restart."""
        if worker.state == "down":
            return
        worker.state = "down"
        worker.fail_reason = reason
        self.ring.remove(worker.worker_id)
        worker.clear_pool()
        try:
            now = asyncio.get_event_loop().time()
        except RuntimeError:  # pragma: no cover - no loop during teardown
            now = time.monotonic()
        worker.next_restart_at = now + worker.backoff_s
        worker.backoff_s = min(
            self.config.restart_backoff_max_s, worker.backoff_s * 2
        )
        self.metrics.count("fleet_worker_downs")

    def _respawn(self, worker: FleetWorker, now: float) -> None:
        worker.kill()
        worker.spawn()
        worker.restarts += 1
        worker.state = "starting"
        worker.starting_since = now
        self.metrics.count("fleet_worker_restarts")

    async def _supervise(self) -> None:
        """The health/restart loop — one tick per ``health_interval_s``.

        State machine per worker: ``up`` workers are probed (three
        consecutive probe failures, or a process exit, mark them down);
        ``down`` workers respawn once their backoff expires; ``starting``
        workers rejoin the ring after a port file plus a passing probe,
        or go back down if the start budget runs out.  Sustained health
        resets the backoff so one crash stays cheap while a crash loop
        decays to ``restart_backoff_max_s``.
        """
        cfg = self.config
        loop = asyncio.get_running_loop()
        while not self.draining:
            await asyncio.sleep(cfg.health_interval_s)
            if self.draining:
                return
            now = loop.time()
            for worker in self.workers.values():
                if worker.state == "up":
                    if not worker.alive():
                        self._mark_down(worker, "process exited")
                        continue
                    healthy = await loop.run_in_executor(
                        self._executor, worker.probe
                    )
                    if healthy:
                        worker.probe_failures = 0
                        if (
                            worker.backoff_s > cfg.restart_backoff_s
                            and now - worker.up_since >= cfg.backoff_reset_s
                        ):
                            worker.backoff_s = cfg.restart_backoff_s
                    else:
                        worker.probe_failures += 1
                        if worker.probe_failures >= 3:
                            self._mark_down(worker, "failed 3 health probes")
                elif worker.state == "down":
                    if now >= worker.next_restart_at:
                        self._respawn(worker, now)
                elif worker.state == "starting":
                    if worker.port is None:
                        worker.port = worker.poll_port()
                    if worker.port is not None and await loop.run_in_executor(
                        self._executor, worker.probe
                    ):
                        worker.state = "up"
                        worker.up_since = now
                        worker.probe_failures = 0
                        self.ring.add(worker.worker_id)
                        continue
                    if (
                        not worker.alive()
                        or now - worker.starting_since
                        > cfg.worker_start_timeout_s
                    ):
                        worker.kill()
                        self._mark_down(worker, "restart did not become healthy")

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
                        reader,
                        cfg.max_body_bytes,
                        cfg.idle_timeout_s,
                        cfg.io_timeout_s,
                    )
                except HttpError as error:
                    await write_response(writer, Response.from_error(error), False)
                    break
                if request is None:
                    break
                supplied = request.headers.get("x-trace-id", "")
                trace_id = (
                    supplied
                    if _TRACE_ID_OK.match(supplied)
                    else uuid.uuid4().hex[:16]
                )
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
                    try:
                        await write_chunked_response(
                            writer,
                            response,
                            keep,
                            extra_headers={"X-Patchitpy-Trace-Id": trace_id},
                        )
                    except (ConnectionError, OSError):
                        self._account(request, response, clock() - started)
                        break
                    self._account(request, response, clock() - started)
                    if not keep:
                        break
                    continue
                self._account(request, response, clock() - started)
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

    async def _dispatch(self, request: Request):
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if any(path == request.path for _, path in self._routes):
                raise HttpError(405, f"method {request.method} not allowed")
            raise HttpError(404, f"no such endpoint: {request.path}")
        if self.draining and request.path.startswith("/v1/"):
            raise HttpError(503, "fleet is draining", headers={"Retry-After": "1"})
        return await handler(request)

    def _endpoint_label(self, request: Request) -> str:
        if any(path == request.path for _, path in self._routes):
            return request.path
        return "other"

    def _account(self, request: Request, response, seconds: float) -> None:
        m = self.metrics
        m.count("fleet_requests")
        m.count(f"fleet_responses_{response.status // 100}xx")
        m.add_time("fleet_request_time_s", seconds)
        endpoint = self._endpoint_label(request)
        m.observe("fleet_request_seconds/" + endpoint, seconds)
        window = self.window
        window.count("requests/" + endpoint)
        window.observe("latency/" + endpoint, seconds)
        window.count(f"responses/{response.status // 100}xx")
        if response.status in (429, 503, 504):
            window.count(f"responses/{response.status}")

    # -------------------------------------------------------------- proxy

    def _forward_headers(self, request: Request) -> Dict[str, str]:
        headers = {
            "Content-Type": request.headers.get("content-type", "application/json")
        }
        supplied = request.headers.get("x-trace-id", "")
        if _TRACE_ID_OK.match(supplied):
            headers["X-Trace-Id"] = supplied
        return headers

    def _admit(self, request: Request, units: float = 1.0) -> None:
        """Per-tenant quota gate: 429 + Retry-After when over budget."""
        tenant = tenant_label(request.headers.get("x-tenant"))
        admitted, retry_after, label = self.quotas.admit(tenant, units)
        if not admitted:
            self.metrics.count("fleet_quota_rejections")
            raise HttpError(
                429,
                f"tenant {label!r} is over its request quota",
                headers={"Retry-After": str(int(math.ceil(retry_after)))},
            )

    async def _forward(
        self,
        key: str,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, str, bytes, str]:
        """Route ``key`` on the ring and proxy, failing over clockwise.

        A transport failure marks the owner down and retries on the next
        worker the ring would assign after removal — so the failover
        target and the permanent re-hash agree, and the client sees one
        ordinary response.  Only when every worker is down does the
        fleet answer 503.
        """
        loop = asyncio.get_running_loop()
        exclude: set = set()
        for _ in range(max(1, len(self.workers))):
            worker_id = self.ring.route(key, exclude=exclude)
            if worker_id is None:
                break
            worker = self.workers[worker_id]
            try:
                status, content_type, raw = await loop.run_in_executor(
                    self._executor, worker.forward, method, path, body, headers
                )
            except _PROXY_ERRORS:
                self.metrics.count("fleet_proxy_failures")
                self._mark_down(worker, "request forwarding failed")
                exclude.add(worker_id)
                continue
            return status, content_type, raw, worker_id
        raise HttpError(
            503, "no healthy workers available", headers={"Retry-After": "1"}
        )

    async def _proxy(self, request: Request, key: str) -> Response:
        """Forward the request body verbatim; pass the answer through."""
        status, content_type, raw, worker_id = await self._forward(
            key, request.method, request.path, request.body,
            self._forward_headers(request),
        )
        return Response(
            status=status,
            body=raw,
            content_type=content_type,
            headers={"X-Fleet-Worker": worker_id},
        )

    # ------------------------------------------------------------ handlers

    @staticmethod
    def _json_object(request: Request) -> dict:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        return body

    async def _handle_analyze(self, request: Request) -> Response:
        body = self._json_object(request)
        source = body.get("source")
        if not isinstance(source, str):
            raise HttpError(400, "analyze requests must carry a string 'source'")
        self._admit(request, units=1.0)
        # Same digest the result caches use — the ring and the shared
        # cache tier agree on what "the same snippet" means.
        return await self._proxy(request, hash_source(source))

    async def _handle_scan(self, request: Request) -> Response:
        return await self._proxy_rooted(request, "scan")

    async def _handle_review(self, request: Request) -> Response:
        return await self._proxy_rooted(request, "review")

    async def _proxy_rooted(self, request: Request, kind: str) -> Response:
        body = self._json_object(request)
        root = body.get("root")
        if not isinstance(root, str) or not root:
            raise HttpError(400, f"{kind} requests need a string 'root' field")
        self._admit(request, units=1.0)
        # Scans and reviews key by root so one project's incremental
        # cache stays resident on one worker across requests.
        return await self._proxy(request, f"root:{root}")

    async def _handle_batch(self, request: Request):
        body = self._json_object(request)
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise HttpError(400, "batch requests need a non-empty 'items' list")
        patch = bool(body.get("patch", False))
        stream = bool(body.get("stream", False))
        deadline_ms = body.get("deadline_ms")
        started = clock()
        # A batch debits one token per item: a tenant's quota is spent
        # in units of analysis work, not HTTP envelopes.
        self._admit(request, units=float(len(items)))

        headers = self._forward_headers(request)
        jobs: List[Tuple[Any, str, bytes]] = []
        for index, item in enumerate(items):
            if not isinstance(item, dict):
                raise HttpError(400, f"items[{index}] must be a JSON object")
            source = item.get("source")
            if not isinstance(source, str):
                raise HttpError(
                    400, f"items[{index}] must carry a string 'source' field"
                )
            sub: Dict[str, Any] = {"source": source, "patch": patch}
            if deadline_ms is not None:
                sub["deadline_ms"] = deadline_ms
            jobs.append(
                (
                    item.get("id", index),
                    hash_source(source),
                    json.dumps(sub).encode("utf-8"),
                )
            )

        tasks = [
            asyncio.ensure_future(self._batch_item(item_id, key, payload, headers))
            for item_id, key, payload in jobs
        ]
        if stream:
            return self._stream_batch(tasks, started)
        lines = await asyncio.gather(*tasks)
        failed = sum(1 for line in lines if "error" in line)
        return Response.json_response(
            {
                "results": lines,
                "count": len(lines),
                "failed": failed,
                "duration_ms": round((clock() - started) * 1000.0, 3),
            }
        )

    async def _batch_item(
        self, item_id: Any, key: str, payload: bytes, headers: Dict[str, str]
    ) -> dict:
        """One batch item as one routed ``/v1/analyze`` — never raises.

        Items fan out *per digest*, so a single batch spreads over every
        worker that owns a slice of it; failures (worker 4xx/5xx, or the
        whole fleet down) become per-item error entries, matching the
        daemon's own batch shape.
        """
        try:
            status, _, raw, _ = await self._forward(
                key, "POST", "/v1/analyze", payload, headers
            )
        except HttpError as error:
            return {"id": item_id, "error": error.detail}
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return {"id": item_id, "error": "worker answered an undecodable body"}
        if status >= 400:
            detail = (
                decoded.get("error", f"worker answered {status}")
                if isinstance(decoded, dict)
                else f"worker answered {status}"
            )
            return {"id": item_id, "error": detail}
        if isinstance(decoded, dict):
            decoded["id"] = item_id
            return decoded
        return {"id": item_id, "error": "worker answered a non-object body"}

    def _stream_batch(
        self, tasks: List["asyncio.Future"], started: float
    ) -> ChunkedResponse:
        """NDJSON out as items complete anywhere in the fleet."""

        async def produce():
            count = 0
            failed = 0
            for next_done in asyncio.as_completed(tasks):
                line = await next_done
                count += 1
                if "error" in line:
                    failed += 1
                yield (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
            summary = {
                "done": True,
                "count": count,
                "failed": failed,
                "duration_ms": round((clock() - started) * 1000.0, 3),
            }
            yield (json.dumps(summary, sort_keys=True) + "\n").encode("utf-8")

        return ChunkedResponse(chunks=produce())

    # -------------------------------------------------- fleet observability

    def worker_table(self) -> List[Dict[str, Any]]:
        """Per-worker status rows (healthz JSON and /statusz share these)."""
        rows = []
        for worker in self.workers.values():
            rows.append(
                {
                    "id": worker.worker_id,
                    "state": worker.state,
                    "port": worker.port,
                    "pid": worker.process.pid if worker.process else None,
                    "restarts": worker.restarts,
                    "proxied": worker.proxied,
                    "reason": worker.fail_reason if worker.state != "up" else "",
                }
            )
        return rows

    async def _handle_healthz(self, request: Request) -> Response:
        from repro import __version__

        up = sum(1 for w in self.workers.values() if w.state == "up")
        status = "draining" if self.draining else ("ok" if up else "degraded")
        return Response.json_response(
            {
                "status": status,
                "role": "fleet",
                "version": __version__,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "workers": len(self.workers),
                "workers_up": up,
                "worker_table": self.worker_table(),
                "shared_cache_dir": str(self.shared_cache_dir),
                "requests_total": self.metrics.counters.get("fleet_requests", 0),
                "inflight": self._inflight,
            },
            status=503 if self.draining or not up else 200,
        )

    async def _collect_worker_docs(self) -> List[Dict[str, Any]]:
        """Every up worker's ``/v1/metrics.json`` document, in parallel."""
        loop = asyncio.get_running_loop()

        def fetch(worker: FleetWorker) -> Optional[Dict[str, Any]]:
            if worker.state != "up" or worker.port is None:
                return None
            try:
                with ServerClient(
                    port=worker.port, timeout=min(10.0, self.config.proxy_timeout_s)
                ) as client:
                    return client.metrics_json()
            except Exception:  # noqa: BLE001 - a scrape never kills a worker
                return None

        docs = await asyncio.gather(
            *(
                loop.run_in_executor(self._executor, fetch, worker)
                for worker in self.workers.values()
            )
        )
        return [doc for doc in docs if isinstance(doc, dict)]

    def merged_metrics(self, docs: List[Dict[str, Any]]) -> ScanMetrics:
        """Worker collectors + the router's own, one associative merge.

        :meth:`ScanMetrics.merge` is exact for counters, timers, *and*
        histograms (bucket-wise addition), so fleet-wide quantiles are
        what a single process handling all the traffic would report —
        not an average of averages.
        """
        merged = ScanMetrics()
        for doc in docs:
            snapshot = doc.get("metrics")
            if isinstance(snapshot, dict):
                merged.merge(ScanMetrics.from_dict(snapshot))
        merged.merge(self.metrics)
        return merged

    async def _handle_metrics(self, request: Request) -> Response:
        docs = await self._collect_worker_docs()
        merged = self.merged_metrics(docs)
        up = sum(1 for w in self.workers.values() if w.state == "up")
        gauges = {
            "fleet_uptime_seconds": time.monotonic() - self._started_at,
            "fleet_inflight_requests": float(self._inflight),
            "fleet_workers": float(len(self.workers)),
            "fleet_workers_up": float(up),
        }
        for doc in docs:
            for name, value in (doc.get("gauges") or {}).items():
                if isinstance(value, (int, float)) and not name.startswith("server_uptime"):
                    gauges[name] = gauges.get(name, 0.0) + float(value)
        text = to_prometheus(merged, extra_gauges=gauges)
        text += self._labeled_families()
        return Response.text_response(text)

    def _labeled_families(self) -> str:
        """Hand-rendered labeled series the plain exporter cannot emit."""

        def esc(value: str) -> str:
            return (
                value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            )

        out: List[str] = []
        rejections = self.quotas.snapshot_rejections()
        out.append(
            "# HELP patchitpy_fleet_quota_rejections_total Requests shed "
            "by per-tenant quota."
        )
        out.append("# TYPE patchitpy_fleet_quota_rejections_total counter")
        for tenant in sorted(rejections):
            out.append(
                f'patchitpy_fleet_quota_rejections_total{{tenant="{esc(tenant)}"}} '
                f"{rejections[tenant]}"
            )
        out.append("# HELP patchitpy_fleet_worker_up Worker liveness (1 up, 0 not).")
        out.append("# TYPE patchitpy_fleet_worker_up gauge")
        for row in self.worker_table():
            out.append(
                f'patchitpy_fleet_worker_up{{worker="{esc(row["id"])}"}} '
                f"{1 if row['state'] == 'up' else 0}"
            )
        out.append(
            "# HELP patchitpy_fleet_worker_restarts_total Supervisor restarts "
            "per worker."
        )
        out.append("# TYPE patchitpy_fleet_worker_restarts_total counter")
        for row in self.worker_table():
            out.append(
                f'patchitpy_fleet_worker_restarts_total{{worker="{esc(row["id"])}"}} '
                f"{row['restarts']}"
            )
        out.append(
            "# HELP patchitpy_fleet_worker_proxied_total Requests answered "
            "per worker."
        )
        out.append("# TYPE patchitpy_fleet_worker_proxied_total counter")
        for row in self.worker_table():
            out.append(
                f'patchitpy_fleet_worker_proxied_total{{worker="{esc(row["id"])}"}} '
                f"{row['proxied']}"
            )
        return "\n".join(out) + "\n"

    async def _handle_statusz(self, request: Request) -> Response:
        docs = await self._collect_worker_docs()
        return Response.html_response(
            render_fleet_statusz(self, self.merged_metrics(docs))
        )


class BackgroundFleet:
    """Run a :class:`FleetRouter` on a thread — tests and benchmarks.

    Mirrors :class:`~repro.server.app.BackgroundServer`: the event loop
    spins on a daemon thread, ``start`` blocks until the front door is
    bound (which itself waits for every worker's first health pass)::

        with BackgroundFleet(FleetRouter(FleetConfig(port=0))) as fleet:
            client = ServerClient(port=fleet.port)
            ...
    """

    def __init__(self, router: FleetRouter) -> None:
        self.router = router
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> Optional[int]:
        return self.router.port

    def start(self) -> "BackgroundFleet":
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.router.start())
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._startup_error = error
                ready.set()
                return
            ready.set()
            try:
                loop.run_until_complete(self.router.wait_stopped())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="patchitpy-fleet", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=120)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.router.shutdown(), self._loop
        )
        with contextlib.suppress(Exception):
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ------------------------------------------------------------------ CLI


def build_fleet_parser() -> argparse.ArgumentParser:
    """Construct the ``patchitpy fleet`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="patchitpy fleet",
        description=(
            "Run a sharded scan fleet: N supervised daemon workers behind "
            "one front door that consistent-hashes requests by content "
            "digest, shares a cross-worker result cache, enforces "
            "per-tenant quotas, and serves the daemon's exact wire "
            "protocol plus fleet-wide /metrics and /statusz."
        ),
        epilog=(
            "exit codes: 0 = clean shutdown (SIGTERM/SIGINT drain), "
            "2 = fleet could not start"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="front-door bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8750,
        metavar="N",
        help="front-door TCP port (default 8750; 0 picks a free port)",
    )
    parser.add_argument(
        "--workers",
        "-w",
        type=int,
        default=2,
        metavar="N",
        help="daemon shard count; each gets its own warm engine and "
        "loopback port (default 2)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="analysis pool size inside each worker (default 1); fleet "
        "capacity is workers x jobs engines",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="per-worker backpressure limit, passed through to each "
        "daemon (default 64)",
    )
    parser.add_argument(
        "--shared-cache",
        metavar="DIR",
        help="cross-worker result cache directory (default: a "
        "'shared-cache' dir inside --run-dir)",
    )
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        help="directory for port files, per-worker logs, and the default "
        "shared cache (default: a private temp dir, removed on exit)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=64,
        metavar="N",
        help="virtual nodes per worker on the consistent-hash ring "
        "(default 64)",
    )
    parser.add_argument(
        "--tenant-rate",
        type=float,
        default=50.0,
        metavar="R",
        help="per-tenant sustained request budget in requests/second; "
        "batches debit one token per item (default 50)",
    )
    parser.add_argument(
        "--tenant-burst",
        type=float,
        default=200.0,
        metavar="N",
        help="per-tenant burst allowance in tokens (default 200)",
    )
    parser.add_argument(
        "--max-tenants",
        type=int,
        default=256,
        metavar="N",
        help="distinct tenants tracked before overflow shares one "
        "'other' bucket and label (default 256)",
    )
    parser.add_argument(
        "--health-interval-s",
        type=float,
        default=0.5,
        metavar="S",
        help="supervisor tick: health-probe cadence per worker "
        "(default 0.5)",
    )
    parser.add_argument(
        "--restart-backoff-s",
        type=float,
        default=0.5,
        metavar="S",
        help="base delay before restarting a dead worker; doubles per "
        "consecutive failure (default 0.5)",
    )
    parser.add_argument(
        "--restart-backoff-max-s",
        type=float,
        default=30.0,
        metavar="S",
        help="cap on the restart backoff (default 30)",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=2 * 1024 * 1024,
        metavar="N",
        help="largest accepted request body at the front door; bigger "
        "answers 413 (default 2097152)",
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        metavar="S",
        help="on SIGTERM/SIGINT, how long to wait for in-flight requests "
        "and worker shutdown (default 10)",
    )
    parser.add_argument(
        "--access-log",
        action="store_true",
        help="pass --access-log through to every worker daemon",
    )
    parser.add_argument(
        "--extended",
        action="store_true",
        help="workers serve the extended rule catalog instead of the "
        "paper's 85 rules",
    )
    parser.add_argument(
        "--window-interval-s",
        type=float,
        default=5.0,
        metavar="S",
        help="fleet /statusz rolling-window slot width in seconds "
        "(default 5)",
    )
    parser.add_argument(
        "--window-slots",
        type=int,
        default=60,
        metavar="N",
        help="fleet /statusz rolling-window slot count (default 60)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> FleetConfig:
    """Map parsed fleet-mode arguments onto a :class:`FleetConfig`."""
    return FleetConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        jobs=max(1, args.jobs),
        queue_depth=max(1, args.queue_depth),
        shared_cache_dir=args.shared_cache,
        run_dir=args.run_dir,
        replicas=max(1, args.replicas),
        tenant_rate=max(0.0, args.tenant_rate),
        tenant_burst=max(1.0, args.tenant_burst),
        max_tenants=max(1, args.max_tenants),
        health_interval_s=max(0.05, args.health_interval_s),
        restart_backoff_s=max(0.05, args.restart_backoff_s),
        restart_backoff_max_s=max(0.05, args.restart_backoff_max_s),
        max_body_bytes=max(1, args.max_body_bytes),
        drain_timeout_s=max(0.0, args.drain_timeout_s),
        access_log=args.access_log,
        extended=args.extended,
        window_interval_s=max(0.1, args.window_interval_s),
        window_slots=max(1, args.window_slots),
    )


async def _serve(router: FleetRouter) -> None:
    await router.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(router.shutdown())
            )
        except (NotImplementedError, RuntimeError):
            pass
    print(
        f"patchitpy fleet listening on http://{router.config.host}:{router.port} "
        f"({len(router.workers)} workers x jobs={max(1, router.config.jobs)}, "
        f"shared cache {router.shared_cache_dir})",
        file=sys.stderr,
    )
    await router.wait_stopped()


def main(argv: Optional[List[str]] = None) -> int:
    """``patchitpy fleet`` entry point; returns the process exit code."""
    parser = build_fleet_parser()
    args = parser.parse_args(argv)
    router = FleetRouter(config=config_from_args(args))
    try:
        asyncio.run(_serve(router))
    except OSError as error:
        print(f"error: cannot start fleet: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
