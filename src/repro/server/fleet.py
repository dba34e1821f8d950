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
Forwards, probes and scrapes all run on the router's event loop over
asyncio connections, with the client framing of
:mod:`repro.server.http11`; no thread is involved.  Requests are
routed by **content digest** over a consistent-hash ring
(:class:`~repro.server.router.HashRing`): the same snippet bytes always
land on the same worker, so each worker's in-memory caches stay hot and
disjoint.  All workers additionally share one content-addressed result
cache directory (:class:`~repro.core.cache.ResultStore`, a file per
digest), so when the ring re-routes — a worker died mid-batch — the surviving
worker serves the bytes its dead sibling already scanned as a warm hit
instead of re-analyzing them.  The front door reads that tier too: an
unpatched, untraced snippet whose entry is there is answered on the
router's loop from one file read, with the body a worker's hit would
carry, and never makes the round trip to a worker.  Per-tenant token
buckets (:class:`~repro.server.router.TenantQuotas`) shed abusive load
at the front door with ``429`` + ``Retry-After`` before any worker
spends a queue slot on it.

Observability is fleet-wide: ``/metrics`` folds every worker's
:class:`~repro.observability.collector.ScanMetrics` snapshot into one
exposition with the collector's exact associative merge (histogram
quantiles match what a single process would have reported), plus
router-side ``fleet_*`` families and labeled per-tenant / per-worker
series; ``/statusz`` renders the worker table and routing health as one
HTML page (:func:`~repro.server.statusz.render_fleet_statusz`).  The
front door runs the daemon's own request code — connection loop,
dispatch, accounting, access log, drain and body checks — from
:mod:`repro.server.pipeline`.

Operational story, tunables, and failure drills: ``docs/fleet.md`` and
``docs/deployment.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import ResultStore, hash_source
from repro.observability.collector import ScanMetrics, clock
from repro.observability.exporters import to_prometheus
from repro.server.http11 import (
    HttpError,
    Request,
    Response,
    read_response,
    within,
    write_request,
)
from repro.server.pipeline import (
    Background,
    Pipeline,
    add_pipeline_flags,
    batch_items,
    batch_reply,
    batch_stream,
    deadline_s,
    exclude_keys,
    json_object,
    pipeline_argv,
    pipeline_settings,
    require_root,
    require_source,
    run_foreground,
    tier_hit,
)
from repro.server.router import HashRing, TenantQuotas, tenant_label
from repro.server.statusz import render_fleet_statusz

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
#: router marks the worker down and retries the request clockwise.  A
#: refused or reset connection is an ``OSError``; EOF or bad framing in
#: the reply an :class:`~repro.server.http11.UpstreamError` (a
#: ``ConnectionError``); the exchange's deadline an
#: ``asyncio.TimeoutError``, which is not an ``OSError`` before 3.11.
_PROXY_ERRORS = (OSError, asyncio.TimeoutError)

#: Keep-alive connections pooled per worker; beyond this, extras close.
_POOL_LIMIT = 8

#: What ``X-Fleet-Worker`` and the access log's ``worker`` say for a
#: request the router answered from the shared tier itself; worker ids
#: are ``w<index>``, so it never names a worker.
FRONT_DOOR = "front-door"

#: The largest shared-tier entry, in bytes, the front door answers
#: itself.  Turning an entry into a reply costs about 50 ns a byte on a
#: 2-vCPU VM, so a hit holds the router's loop 0.4 ms at most (some 40
#: findings); a larger entry is decoded in a worker's pool, and the
#: front door reads no more of it than this bound and one byte.
_FRONT_DOOR_ENTRY_BYTES = 8 * 1024

#: The shape of a ruleset fingerprint (a SHA-256 hex digest), the only
#: worker-reported value that becomes part of a path the router reads.
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


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
    """One supervised daemon process plus its upstream connections.

    The router owns the state machine (``starting`` → ``up`` → ``down``
    → ``starting`` …); this class owns the process mechanics: spawning
    ``python -m repro.server.daemon --port 0 --port-file …`` with stdout
    and stderr captured to a per-worker log, learning the bound port
    from the port file, probing ``/healthz``, and the router's round
    trips to it over pooled asyncio keep-alive connections, all on the
    router's event loop.  Pooled connections are tagged with the spawn
    generation so a connection to a dead incarnation is never reused
    after a respawn rebinds the port.
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
        #: The ruleset fingerprint this incarnation's last ``/healthz``
        #: reported; ``None`` until one has, and after a respawn.
        self.fingerprint: Optional[str] = None
        self._pool: List[_Upstream] = []
        self._log_handle = None

    # ------------------------------------------------------------- process

    def spawn(self) -> None:
        """Start (or restart) the daemon process for this shard."""
        with contextlib.suppress(FileNotFoundError, OSError):
            self.port_file.unlink()
        self.port = None
        self.fingerprint = None
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
        cmd += pipeline_argv(cfg)
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

    async def probe(self) -> bool:
        """One fresh-connection ``/healthz`` round trip; a healthy answer
        also records the worker's ruleset ``fingerprint``."""
        try:
            _, _, raw = await within(
                self.fetch("/healthz"), min(5.0, self.config.proxy_timeout_s)
            )
            doc = json.loads(raw.decode("utf-8"))
            healthy = doc.get("status") == "ok"
        except Exception:  # noqa: BLE001 - any failure is "not healthy"
            return False
        if healthy:
            fingerprint = doc.get("fingerprint")
            self.fingerprint = (
                fingerprint
                if isinstance(fingerprint, str) and _FINGERPRINT.fullmatch(fingerprint)
                else None
            )
        return healthy

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

    async def close(self) -> None:
        """Close the pooled connections and the log handle."""
        pooled, self._pool = self._pool, []
        for conn in pooled:
            await conn.close()
        if self._log_handle is not None:
            with contextlib.suppress(OSError):
                self._log_handle.close()
            self._log_handle = None

    # --------------------------------------------------------- connections

    def clear_pool(self) -> None:
        pooled, self._pool = self._pool, []
        for conn in pooled:
            conn.writer.close()

    async def _connect(self) -> "_Upstream":
        port, generation = self.port, self.generation
        if port is None:
            raise ConnectionError(f"worker {self.worker_id} has no bound port")
        # The numeric address: no resolver thread.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return _Upstream(reader, writer, generation, f"127.0.0.1:{port}")

    async def fetch(self, path: str) -> Tuple[int, Dict[str, str], bytes]:
        """``GET path`` on a fresh connection, closed after the reply —
        the probes and scrapes, bounded by their caller."""
        conn = await self._connect()
        try:
            await write_request(
                conn.writer, "GET", conn.host, path, {"Connection": "close"}
            )
            return await read_response(conn.reader)
        finally:
            await conn.close()

    async def exchange(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round trip on a pooled keep-alive connection.

        A pooled connection that fails (the worker may have closed it
        while it sat idle) is retried once on a fresh one; a fresh one
        that fails raises for the router's failover.  HTTP error
        *statuses* are data, returned to the client verbatim.
        """
        while self._pool:
            conn = self._pool.pop()
            if conn.generation != self.generation or conn.reader.at_eof():
                conn.writer.close()
                continue
            try:
                return await self._round_trip(conn, method, path, body, headers)
            except OSError:
                break
        return await self._round_trip(
            await self._connect(), method, path, body, headers
        )

    async def _round_trip(
        self,
        conn: "_Upstream",
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            await write_request(conn.writer, method, conn.host, path, headers, body)
            status, reply_headers, raw = await read_response(conn.reader)
        except BaseException:  # failed or cancelled: the framing is lost
            conn.writer.close()
            raise
        if (
            reply_headers.get("connection", "").lower() != "close"
            and self.state == "up"
            and conn.generation == self.generation
            and len(self._pool) < _POOL_LIMIT
        ):
            self._pool.append(conn)
        else:
            conn.writer.close()
        return status, reply_headers, raw


class _Upstream:
    """One connection from the router to a worker, tagged with the spawn
    generation it was opened against."""

    __slots__ = ("reader", "writer", "generation", "host")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        generation: int,
        host: str,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.generation = generation
        self.host = host

    async def close(self) -> None:
        self.writer.close()
        with contextlib.suppress(OSError):
            await self.writer.wait_closed()


class FleetRouter(Pipeline):
    """The fleet front door: one listener, N supervised daemon shards.

    Router-side ``metrics`` hold the ``fleet_*`` families and the cache
    counts of the hits the front door answered itself; worker families
    merge in at scrape time and are never stored here.
    """

    prefix = "fleet"

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        super().__init__(
            config if config is not None else FleetConfig(),
            {
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
                ("GET", "/statusz"): self._handle_statusz,
                ("POST", "/v1/analyze"): self._handle_analyze,
                ("POST", "/v1/batch"): self._handle_batch,
                ("POST", "/v1/scan"): self._handle_rooted,
                ("POST", "/v1/review"): self._handle_rooted,
            },
        )
        self.ring = HashRing(replicas=self.config.replicas)
        self.quotas = TenantQuotas(
            rate=self.config.tenant_rate,
            burst=self.config.tenant_burst,
            max_tenants=self.config.max_tenants,
        )
        self.workers: Dict[str, FleetWorker] = {}
        self.run_dir: Optional[Path] = None
        self.shared_cache_dir: Optional[Path] = None
        self._owns_run_dir = False
        self._forwarding: Optional[asyncio.Semaphore] = None
        self._supervisor: Optional[asyncio.Task] = None
        #: The shared tier under the fingerprint the up workers agree on.
        self._tier: Optional[Tuple[str, ResultStore]] = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> "FleetRouter":
        """Spawn the workers, wait for them healthy, bind the listener."""
        cfg = self.config
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

        # Forwards run on this loop; the semaphore bounds how many are in
        # flight, so a wide batch queues here instead of overrunning the
        # workers' queues.  Made here, not in __init__: before 3.10 an
        # asyncio primitive binds to the loop of the thread that makes it.
        self._forwarding = asyncio.Semaphore(max(8, 4 * max(1, cfg.workers)))
        for index in range(max(1, cfg.workers)):
            worker = FleetWorker(f"w{index}", cfg, self.run_dir)
            self.workers[worker.worker_id] = worker
            worker.spawn()
        await asyncio.gather(
            *(self._await_worker_up(w) for w in self.workers.values())
        )
        if not self.ring.members:
            raise OSError("no fleet worker became healthy before the timeout")

        await self._bind(cfg.host, cfg.port)
        self._supervisor = asyncio.ensure_future(self._supervise())
        return self

    async def _await_worker_up(self, worker: FleetWorker) -> None:
        """Initial-start wait: port file, then a passing health probe."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.worker_start_timeout_s
        while loop.time() < deadline:
            if not worker.alive():
                break
            if await self._try_join(worker, loop.time()):
                return
            await asyncio.sleep(0.05)
        # Did not come up: leave it "down" so the supervisor keeps trying
        # (unless *no* worker made it, which start() turns into an error).
        worker.kill()
        self._mark_down(worker, "did not become healthy at start")

    async def _try_join(self, worker: FleetWorker, now: float) -> bool:
        """Port file, then a passing health probe: the worker joins the ring."""
        if worker.port is None:
            worker.port = worker.poll_port()
        if worker.port is None or not await worker.probe():
            return False
        worker.state = "up"
        worker.up_since = now
        worker.probe_failures = 0
        self.ring.add(worker.worker_id)
        return True

    async def _release(self) -> None:
        """After the drain: stop the workers, clean the run dir."""
        if self._supervisor is not None:
            self._supervisor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor
        for worker in self.workers.values():
            worker.terminate()
        deadline = time.monotonic() + self.config.drain_timeout_s
        for worker in self.workers.values():
            while worker.alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            worker.kill()
            await worker.close()
        if self._owns_run_dir and self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)

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
                    if await worker.probe():
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
                    if await self._try_join(worker, now):
                        continue
                    if (
                        not worker.alive()
                        or now - worker.starting_since
                        > cfg.worker_start_timeout_s
                    ):
                        worker.kill()
                        self._mark_down(worker, "restart did not become healthy")

    # -------------------------------------------------------------- proxy

    def _forward_headers(self, request: Request) -> Dict[str, str]:
        # The id the front door answers with, supplied or generated, so
        # the worker's access log names the same request.
        return {
            "Content-Type": request.headers.get("content-type", "application/json"),
            "X-Trace-Id": request.trace_id,
        }

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
        body: bytes,
        headers: Dict[str, str],
    ) -> Tuple[int, str, bytes, str]:
        """Route ``key`` on the ring and proxy, failing over clockwise.

        The exchange runs on this loop, one of at most
        ``max(8, 4 x workers)`` in flight, and ``proxy_timeout_s`` bounds
        all of it.  A transport failure marks the owner down and retries
        on the next worker the ring would assign after removal — so the
        failover target and the permanent re-hash agree, and the client
        sees one ordinary response.  Only when every worker is down does
        the fleet answer 503.
        """
        assert self._forwarding is not None, "not started"
        exclude: set = set()
        for _ in range(max(1, len(self.workers))):
            worker_id = self.ring.route(key, exclude=exclude)
            if worker_id is None:
                break
            worker = self.workers[worker_id]
            try:
                async with self._forwarding:
                    status, reply_headers, raw = await within(
                        worker.exchange(method, path, body, headers),
                        self.config.proxy_timeout_s,
                    )
            except _PROXY_ERRORS:
                self.metrics.count("fleet_proxy_failures")
                self._mark_down(worker, "request forwarding failed")
                exclude.add(worker_id)
                continue
            worker.proxied += 1
            return status, reply_headers.get("content-type", ""), raw, worker_id
        raise HttpError(
            503, "no healthy workers available", headers={"Retry-After": "1"}
        )

    async def _proxy(self, request: Request, key: str) -> Response:
        """Forward the request body verbatim; pass the answer through."""
        status, content_type, raw, worker_id = await self._forward(
            key, request.method, request.path, request.body,
            self._forward_headers(request),
        )
        return _served_by(
            Response(status=status, body=raw, content_type=content_type), worker_id
        )

    # -------------------------------------------------- the shared tier

    def _tier_store(self) -> Optional[ResultStore]:
        """The shared tier as the workers name it, or ``None`` while the
        front door may not read it.

        It may while at least one worker is up and every up worker
        reported the same fingerprint: during a rolling catalog change
        the workers disagree and every request is forwarded, and with no
        worker up the forward answers 503.
        """
        fingerprints = {
            worker.fingerprint
            for worker in self.workers.values()
            if worker.state == "up"
        }
        if len(fingerprints) != 1 or None in fingerprints:
            return None
        (fingerprint,) = fingerprints
        if self._tier is None or self._tier[0] != fingerprint:
            assert self.shared_cache_dir is not None, "not started"
            self._tier = (fingerprint, ResultStore(self.shared_cache_dir, fingerprint))
        return self._tier[1]

    def _tier_hit(self, key: str) -> Optional[dict]:
        """The body a worker's hit on ``key`` would carry, read from the
        shared tier on this loop, or ``None`` to forward.

        Only an entry of at most :data:`_FRONT_DOOR_ENTRY_BYTES` is
        answered here, so a hit holds the loop every tenant shares for a
        bounded time whatever its entry holds; a larger entry, like a
        miss, goes to a worker, which counts the miss beside the
        analysis and write-through it runs.
        """
        store = self._tier_store()
        if store is None:
            return None
        started = clock()
        payload, metrics = tier_hit(store, key, _FRONT_DOOR_ENTRY_BYTES)
        if payload is None:
            return None
        payload["duration_ms"] = round((clock() - started) * 1000.0, 3)
        metrics.count("fleet_front_door_hits")
        self.metrics.merge(metrics)
        return payload

    # ------------------------------------------------------------ handlers

    async def _handle_analyze(self, request: Request) -> Response:
        body = json_object(request)
        source = require_source(body)
        # the daemon's checks, before quota is spent
        deadline_s(body, 0.0)
        exclude_keys(body)
        self._admit(request, units=1.0)
        # Same digest the result caches use — the ring and the shared
        # cache tier agree on what "the same snippet" means.
        key = hash_source(source)
        if not (body.get("patch", False) or body.get("trace", False)):
            payload = self._tier_hit(key)
            if payload is not None:
                return _served_by(Response.json_response(payload), FRONT_DOOR)
        return await self._proxy(request, key)

    async def _handle_rooted(self, request: Request) -> Response:
        """``/v1/scan`` and ``/v1/review``: route by the body's root."""
        kind = request.path.rpartition("/")[2]  # "scan" or "review"
        root = require_root(json_object(request), kind)
        self._admit(request, units=1.0)
        # Scans and reviews key by root so one project's incremental
        # cache stays resident on one worker across requests.
        return await self._proxy(request, f"root:{root}")

    async def _handle_batch(self, request: Request):
        body = json_object(request)
        # The whole body passes the daemon's checks before quota is spent;
        # each worker then enforces the forwarded deadline per item.
        ids, sources, _ = batch_items(body, 0.0)
        patch = bool(body.get("patch", False))
        stream = bool(body.get("stream", False))
        deadline_ms = body.get("deadline_ms")
        started = clock()
        # A batch debits one token per item: a tenant's quota is spent
        # in units of analysis work, not HTTP envelopes.
        self._admit(request, units=float(len(sources)))

        headers = self._forward_headers(request)
        tasks = []
        for item_id, source in zip(ids, sources):
            sub: Dict[str, Any] = {"source": source, "patch": patch}
            if deadline_ms is not None:
                sub["deadline_ms"] = deadline_ms
            payload = json.dumps(sub).encode("utf-8")
            tasks.append(
                asyncio.ensure_future(
                    self._batch_item(
                        item_id, hash_source(source), payload, headers, patch
                    )
                )
            )
        if not stream:
            return batch_reply(await asyncio.gather(*tasks), started)

        async def completed():  # NDJSON out as items complete anywhere
            for next_done in asyncio.as_completed(tasks):
                yield await next_done

        return batch_stream(completed(), started)

    async def _batch_item(
        self,
        item_id: Any,
        key: str,
        payload: bytes,
        headers: Dict[str, str],
        patch: bool,
    ) -> dict:
        """One batch item as one routed ``/v1/analyze`` — never raises.

        Items fan out *per digest*, so a single batch spreads over every
        worker that owns a slice of it; an unpatched item the shared tier
        holds is answered here, as its ``/v1/analyze`` would be.
        Failures (worker 4xx/5xx, or the whole fleet down) become
        per-item error entries, matching the daemon's own batch shape.
        """
        if not patch:
            line = self._tier_hit(key)
            if line is not None:
                line["id"] = item_id
                return line
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
                    "fingerprint": worker.fingerprint,
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
        timeout = min(10.0, self.config.proxy_timeout_s)

        async def scrape(worker: FleetWorker) -> Any:
            if worker.state != "up" or worker.port is None:
                return None
            try:
                status, _, raw = await within(
                    worker.fetch("/v1/metrics.json"), timeout
                )
                return json.loads(raw.decode("utf-8")) if status < 400 else None
            except Exception:  # noqa: BLE001 - a scrape never kills a worker
                return None

        docs = await asyncio.gather(*(scrape(w) for w in self.workers.values()))
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

        rows = self.worker_table()
        rejections = self.quotas.snapshot_rejections()
        families = (
            ("quota_rejections_total", "counter", "Requests shed by per-tenant quota.",
             "tenant", [(tenant, rejections[tenant]) for tenant in sorted(rejections)]),
            ("worker_up", "gauge", "Worker liveness (1 up, 0 not).",
             "worker", [(row["id"], int(row["state"] == "up")) for row in rows]),
            ("worker_restarts_total", "counter", "Supervisor restarts per worker.",
             "worker", [(row["id"], row["restarts"]) for row in rows]),
            ("worker_proxied_total", "counter", "Requests answered per worker.",
             "worker", [(row["id"], row["proxied"]) for row in rows]),
        )
        out: List[str] = []
        for name, kind, help_text, label, samples in families:
            family = "patchitpy_fleet_" + name
            out.append(f"# HELP {family} {help_text}")
            out.append(f"# TYPE {family} {kind}")
            out.extend(f'{family}{{{label}="{esc(key)}"}} {value}' for key, value in samples)
        return "\n".join(out) + "\n"

    async def _handle_statusz(self, request: Request) -> Response:
        docs = await self._collect_worker_docs()
        return Response.html_response(
            render_fleet_statusz(self, self.merged_metrics(docs))
        )


def _served_by(response: Response, name: str) -> Response:
    """Name who answered — a worker id or :data:`FRONT_DOOR` — in the
    ``X-Fleet-Worker`` header and the front-door access log."""
    response.headers["X-Fleet-Worker"] = name
    response.access = {"worker": name}  # type: ignore[attr-defined]
    return response


class BackgroundFleet(Background):
    """Run a :class:`FleetRouter` on a thread — tests and benchmarks.

    The same harness as :class:`~repro.server.app.BackgroundServer`:
    ``start`` blocks until the front door is bound (which itself waits
    for every worker's first health pass)::

        with BackgroundFleet(FleetRouter(FleetConfig(port=0))) as fleet:
            client = ServerClient(port=fleet.port)
            ...
    """

    def __init__(self, router: FleetRouter) -> None:
        super().__init__(router)
        self.router = router


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
        "--access-log",
        action="store_true",
        help="emit one structured JSON log line per front-door request "
        "(trace id, serving worker) to stderr, and pass --access-log "
        "through to every worker daemon",
    )
    parser.add_argument(
        "--extended",
        action="store_true",
        help="workers serve the extended rule catalog instead of the "
        "paper's 85 rules",
    )
    add_pipeline_flags(parser)
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
        extended=args.extended,
        **pipeline_settings(args),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """``patchitpy fleet`` entry point; returns the process exit code."""
    parser = build_fleet_parser()
    args = parser.parse_args(argv)
    router = FleetRouter(config=config_from_args(args))

    def banner() -> str:
        return (
            f"patchitpy fleet listening on http://{router.config.host}:{router.port} "
            f"({len(router.workers)} workers x jobs={max(1, router.config.jobs)}, "
            f"shared cache {router.shared_cache_dir})"
        )

    return run_foreground(router, "fleet", banner)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
