"""One request pipeline for the scan daemon and the fleet front door.

``patchitpy serve`` (:class:`~repro.server.app.PatchitPyServer`) and
``patchitpy fleet`` (:class:`~repro.server.fleet.FleetRouter`) speak one
wire protocol, so what they do per connection and per request lives
here once, in the :class:`Pipeline` both are built on:

- binding the TCP or unix listener, and the keep-alive loop over
  :func:`~repro.server.http11.read_request`;
- trace-id intake (:data:`SAFE_TOKEN`, the shape an ``X-Tenant`` label
  must match too);
- dispatch: route, ``404``, ``405``, and ``503`` on ``/v1/*`` while
  draining;
- in-flight and idle tracking, and the listener drain;
- accounting: lifetime counters and per-endpoint histograms under the
  front end's metric prefix (``server_`` or ``fleet_``), the rolling
  SLO window, and the JSON access log;
- the JSON-body checks both front ends apply, so a malformed body gets
  the same ``400`` from either, the shared-tier lookup whose hits both
  answer alike, and the ``/v1/batch`` reply shapes (one JSON envelope,
  or NDJSON lines and a summary).

The front ends keep only what is theirs: handlers, the analysis pool
and queue, caches, the supervisor and the proxy.  :class:`Background`
runs either on a thread; :func:`run_foreground` runs either as the
``patchitpy serve`` / ``patchitpy fleet`` process.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import re
import signal
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.observability.collector import ScanMetrics, clock
from repro.observability.histogram import RollingWindow
from repro.server.http11 import (
    ChunkedResponse,
    HttpError,
    Request,
    Response,
    read_request,
    within,
    write_chunked_response,
    write_response,
)

if TYPE_CHECKING:
    from repro.core.cache import ResultStore

__all__ = [
    "Background",
    "Pipeline",
    "SAFE_TOKEN",
    "add_pipeline_flags",
    "batch_items",
    "batch_reply",
    "batch_stream",
    "deadline_s",
    "exclude_keys",
    "json_object",
    "pipeline_argv",
    "pipeline_settings",
    "require_root",
    "require_source",
    "run_foreground",
    "tier_hit",
]

Handler = Callable[[Request], Awaitable[Response]]

#: Shape a caller-supplied ``X-Trace-Id`` or ``X-Tenant`` must match to be
#: honoured — anything else (empty, over-long, control characters that
#: could forge log or exposition lines) falls back to a server default.
SAFE_TOKEN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: After answering a request it could not read (400, 408, 413, 431), how
#: long a connection keeps reading and dropping what the client still
#: sends before it closes.
_LINGER_S = 2.0


class Pipeline:
    """The request pipeline a front end is built on.

    :class:`~repro.server.app.PatchitPyServer` and
    :class:`~repro.server.fleet.FleetRouter` derive from it and keep
    only their own parts.  A subclass passes its ``config`` (framing
    limits, window geometry, ``access_log``, ``drain_timeout_s``) and
    ``routes`` (``(method, path)`` to handler) to ``__init__``, binds
    with :meth:`_bind` at the end of its ``start``, and frees its own
    resources in :meth:`_release`, which :meth:`shutdown` calls once
    requests have drained.
    """

    #: Metric-family prefix (``server_requests``,
    #: ``server_request_seconds/<endpoint>`` …) and 503 wording.
    prefix = "server"
    #: Whether every response carries a ``handler`` phase, folded into
    #: ``phase_seconds/handler``; the fleet leaves it off, so that family
    #: in its merged /metrics stays the workers' own.
    time_handler = False

    def __init__(self, config: Any, routes: Dict[Tuple[str, str], Handler]) -> None:
        self.config = config
        #: Lifetime metrics: the front end's families plus request accounting.
        self.metrics = ScanMetrics()
        #: Rolling SLO windows for /statusz (rates + recent percentiles).
        self.window = RollingWindow(
            interval_s=config.window_interval_s, slots=config.window_slots
        )
        self.draining = False
        self._routes = routes
        self._paths = frozenset(path for _, path in routes)
        self._inflight = 0  # HTTP requests currently being handled
        self._started_at = 0.0
        self._listener: Optional[asyncio.AbstractServer] = None
        self._unix = False
        self._conn_tasks: set = set()  # connection handler tasks, for drain
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None

    # ----------------------------------------------------------- lifecycle

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port (``None`` before start / on unix sockets)."""
        if self._listener is None or self._unix:
            return None
        sockets = self._listener.sockets or []
        return sockets[0].getsockname()[1] if sockets else None

    async def start(self) -> "Pipeline":
        """Prepare the front end, then :meth:`_bind` (each subclass)."""
        raise NotImplementedError

    async def _bind(
        self, host: str, port: int, unix_socket: Optional[str] = None
    ) -> None:
        """Start accepting on ``unix_socket`` when given, else TCP."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._unix = bool(unix_socket)
        if unix_socket:
            self._listener = await asyncio.start_unix_server(
                self._handle_connection, path=unix_socket
            )
        else:
            self._listener = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
        self._started_at = time.monotonic()

    async def wait_stopped(self) -> None:
        """Block until :meth:`shutdown` has fully drained the front end."""
        assert self._stopped is not None, "not started"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, release.

        In-flight requests get up to ``drain_timeout_s``; what remains
        after that are idle keep-alive connections parked in
        ``read_request`` (or abandoned stragglers), cancelled so no
        handler task outlives the loop.  Then :meth:`_release` frees the
        subclass's own resources.  Idempotent — SIGTERM followed by
        SIGINT (or a test calling it twice) runs the drain once.
        """
        if self.draining:
            return
        self.draining = True
        if self._listener is not None:
            self._listener.close()
        assert self._idle is not None and self._stopped is not None
        with contextlib.suppress(asyncio.TimeoutError):
            await within(self._idle.wait(), self.config.drain_timeout_s)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._listener is not None:
            # Only now: from 3.12.1 this waits for every connection to
            # drop, so awaited first it would wait on idle keep-alive
            # clients instead of cancelling them.
            await self._listener.wait_closed()
        await self._release()
        self._stopped.set()

    async def _release(self) -> None:
        """Free the subclass's own resources once requests have drained."""

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
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                supplied = request.headers.get("x-trace-id", "")
                request.trace_id = (
                    supplied if SAFE_TOKEN.match(supplied) else uuid.uuid4().hex[:16]
                )
                started = clock()
                response = await self._respond(request)
                keep = request.keep_alive and not self.draining
                echo = {"X-Patchitpy-Trace-Id": request.trace_id}
                if isinstance(response, ChunkedResponse):
                    # Streaming: the head goes out now, the chunks as the
                    # producer yields them; accounting runs after the last
                    # chunk so the recorded duration covers the stream.
                    try:
                        await write_chunked_response(writer, response, keep, echo)
                    except (ConnectionError, OSError):
                        keep = False
                    self._account(request, response, clock() - started)
                else:
                    self._account(request, response, clock() - started)
                    try:
                        await write_response(writer, response, keep, echo)
                    except (ConnectionError, OSError):
                        keep = False
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

    async def _respond(self, request: Request) -> Response:
        """Dispatch one request; every failure becomes an error response."""
        assert self._idle is not None
        self._inflight += 1
        self._idle.clear()
        try:
            return await self._dispatch(request)
        except HttpError as error:
            return Response.from_error(error)
        except Exception as error:  # noqa: BLE001 - must answer 500
            return Response.from_error(HttpError(500, f"internal error: {error}"))
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _dispatch(self, request: Request) -> Response:
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if request.path in self._paths:
                raise HttpError(405, f"method {request.method} not allowed")
            raise HttpError(404, f"no such endpoint: {request.path}")
        if self.draining and request.path.startswith("/v1/"):
            raise HttpError(
                503, f"{self.prefix} is draining", headers={"Retry-After": "1"}
            )
        if not self.time_handler:
            return await handler(request)
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

    def _account(self, request: Request, response: Response, seconds: float) -> None:
        """Fold one request into the lifetime collector, the rolling SLO
        windows, and (when enabled) the structured access log.

        Known routes label as their path; anything else (typo'd paths,
        scanners probing the port) collapses into ``other`` so a hostile
        client cannot mint unbounded label values.
        """
        m = self.metrics
        prefix = self.prefix
        m.count(prefix + "_requests")
        m.count(f"{prefix}_responses_{response.status // 100}xx")
        m.add_time(prefix + "_request_time_s", seconds)
        endpoint = request.path if request.path in self._paths else "other"
        m.observe(f"{prefix}_request_seconds/{endpoint}", seconds)
        phases: Dict[str, float] = getattr(response, "phases", None) or {}
        for phase, spent in phases.items():
            m.observe("phase_seconds/" + phase, spent)
        window = self.window
        window.count("requests/" + endpoint)
        window.observe("latency/" + endpoint, seconds)
        window.count(f"responses/{response.status // 100}xx")
        if response.status in (429, 503, 504):
            window.count(f"responses/{response.status}")
        if self.config.access_log:
            record: Dict[str, Any] = {
                "trace_id": request.trace_id,
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


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, then drop the client's input until it closes or
    :data:`_LINGER_S` passes.

    Closing a socket that still holds unread input resets the
    connection, and the reset can reach the client before it has read
    the answer, or while it is still sending the body that answer
    refused.
    """
    try:
        writer.write_eof()
        await within(_drop_input(reader), _LINGER_S)
    except (asyncio.TimeoutError, OSError):
        pass


async def _drop_input(reader: asyncio.StreamReader) -> None:
    while await reader.read(65536):
        pass


# ------------------------------------------------------------ request bodies


def json_object(request: Request) -> dict:
    """The request body as a JSON object, or 400."""
    body = request.json()
    if not isinstance(body, dict):
        raise HttpError(400, "request body must be a JSON object")
    return body


def require_source(payload: dict, where: str = "request") -> str:
    """The string ``source`` field of an analyze body or batch item."""
    source = payload.get("source")
    if not isinstance(source, str):
        raise HttpError(400, f"{where} must carry a string 'source' field")
    return source


def require_root(body: dict, kind: str) -> str:
    """The non-empty string ``root`` of a ``scan`` or ``review`` body."""
    root = body.get("root")
    if not isinstance(root, str) or not root:
        raise HttpError(400, f"{kind} requests need a string 'root' field")
    return root


def deadline_s(body: dict, default_ms: float) -> Optional[float]:
    """The body's ``deadline_ms`` in seconds; ``None`` when it is <= 0."""
    raw = body.get("deadline_ms", default_ms)
    try:
        deadline_ms = float(raw)
    except (TypeError, ValueError):
        raise HttpError(400, f"deadline_ms must be a number, got {raw!r}")
    return deadline_ms / 1000.0 if deadline_ms > 0 else None


#: A finding identity (:func:`repro.core.verify.finding_key`): 16
#: lowercase hex digits.
_FINDING_KEY = re.compile(r"[0-9a-f]{16}")


def exclude_keys(body: dict) -> frozenset:
    """The body's ``exclude`` finding keys, which its patch leaves alone."""
    raw = body.get("exclude", [])
    if not isinstance(raw, list) or not all(
        isinstance(key, str) and _FINDING_KEY.fullmatch(key) for key in raw
    ):
        raise HttpError(400, "exclude must be a list of 16-hex-digit finding keys")
    return frozenset(raw)


def batch_items(
    body: dict, default_deadline_ms: float
) -> Tuple[List[Any], List[str], Optional[float]]:
    """A whole ``/v1/batch`` body checked: ``(ids, sources, deadline_s)``."""
    items = body.get("items")
    if not isinstance(items, list) or not items:
        raise HttpError(400, "batch requests need a non-empty 'items' list")
    deadline = deadline_s(body, default_deadline_ms)
    ids: List[Any] = []
    sources: List[str] = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise HttpError(400, f"items[{index}] must be a JSON object")
        sources.append(require_source(item, where=f"items[{index}]"))
        ids.append(item.get("id", index))
    return ids, sources, deadline


def tier_hit(
    store: ResultStore, digest: str, max_bytes: Optional[int] = None
) -> Tuple[Optional[dict], ScanMetrics]:
    """One lookup of ``digest`` in the shared tier: the body of an
    unpatched hit (``None`` on a miss, or when the entry is larger than
    ``max_bytes``) and a collector holding the lookup's wall time
    (``snippet_cache_time_s``) and, on a hit, its counts.

    A daemon's analysis unit and a fleet front door both look up here,
    so their hits answer alike (before ``duration_ms``) and count alike.
    """
    started = clock()
    entry = store.lookup(digest, max_bytes)
    metrics = ScanMetrics()
    metrics.add_time("snippet_cache_time_s", clock() - started)
    if entry is None:
        return None, metrics
    metrics.count("cache_hits")
    metrics.count("snippet_cache_hits")
    payload = {
        "vulnerable": bool(entry.findings),
        "findings": [finding.to_dict() for finding in entry.findings],
        "from_cache": True,
    }
    return payload, metrics


def batch_reply(lines: List[dict], started: float) -> Response:
    """The ``/v1/batch`` answer: every item's line, in submission order,
    and the counts — a line carrying ``error`` counts as failed."""
    return Response.json_response(
        {
            "results": lines,
            "count": len(lines),
            "failed": sum(1 for line in lines if "error" in line),
            "duration_ms": round((clock() - started) * 1000.0, 3),
        }
    )


def batch_stream(lines: AsyncIterator[dict], started: float) -> ChunkedResponse:
    """``/v1/batch`` with ``"stream": true`` — NDJSON as work finishes.

    Each item line becomes one newline-terminated JSON line the moment
    ``lines`` yields it (completion order; clients correlate by ``id``),
    followed by a final ``{"done": true, ...}`` summary line.
    """

    def encode(record: dict) -> bytes:
        return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")

    async def produce() -> AsyncIterator[bytes]:
        count = failed = 0
        async for line in lines:
            count += 1
            failed += "error" in line
            yield encode(line)
        yield encode(
            {
                "done": True,
                "count": count,
                "failed": failed,
                "duration_ms": round((clock() - started) * 1000.0, 3),
            }
        )

    return ChunkedResponse(chunks=produce())


# ------------------------------------------------------------------ running


def add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """The flags for the pipeline's own settings, shared by
    ``patchitpy serve`` and ``patchitpy fleet``."""
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=2 * 1024 * 1024,
        metavar="N",
        help="largest accepted request body; bigger answers 413 "
        "(default 2097152)",
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        metavar="S",
        help="on SIGTERM/SIGINT, how long to wait for in-flight requests "
        "(and a fleet's worker shutdown) before stopping anyway (default 10)",
    )
    parser.add_argument(
        "--window-interval-s",
        type=float,
        default=5.0,
        metavar="S",
        help="rolling SLO window slot width in seconds; /statusz rates and "
        "percentiles aggregate over these slots (default 5)",
    )
    parser.add_argument(
        "--window-slots",
        type=int,
        default=60,
        metavar="N",
        help="number of rolling-window slots; slots x interval bounds the "
        "/statusz look-back (default 60, i.e. 5 minutes)",
    )


def pipeline_settings(args: Any) -> Dict[str, Any]:
    """Config fields from :func:`add_pipeline_flags` and ``--access-log``,
    floored to workable values.

    ``args`` is parsed flags, or a config that holds the same fields.
    """
    return {
        "max_body_bytes": max(1, args.max_body_bytes),
        "drain_timeout_s": max(0.0, args.drain_timeout_s),
        "access_log": args.access_log,
        "window_interval_s": max(0.1, args.window_interval_s),
        "window_slots": max(1, args.window_slots),
    }


def pipeline_argv(config: Any) -> List[str]:
    """The ``patchitpy serve`` flags that give a worker ``config``'s
    :func:`pipeline_settings`, so a fleet's workers share its limits."""
    argv: List[str] = []
    for field, value in pipeline_settings(config).items():
        flag = "--" + field.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    return argv


class Background:
    """Run a daemon or a fleet front door on a thread — for embedding.

    ``target`` is a :class:`~repro.server.app.PatchitPyServer` or a
    :class:`~repro.server.fleet.FleetRouter`.  The event loop spins on a
    daemon thread; :meth:`start` blocks until the listener is bound (for
    a fleet, after every worker's first health pass) and re-raises a
    startup failure.  Use as a context manager.
    """

    def __init__(self, target: Pipeline) -> None:
        self.target = target
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> Optional[int]:
        return self.target.port

    def start(self) -> "Background":
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.target.start())
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._startup_error = error
                ready.set()
                return
            ready.set()
            try:
                loop.run_until_complete(self.target.wait_stopped())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name=f"patchitpy-{type(self.target).__name__}", daemon=True
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
        future = asyncio.run_coroutine_threadsafe(self.target.shutdown(), self._loop)
        with contextlib.suppress(Exception):
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "Background":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def run_foreground(
    target: Pipeline,
    name: str,
    banner: Callable[[], str],
    port_file: Optional[str] = None,
) -> int:
    """Serve ``target`` in this process until SIGTERM/SIGINT drains it.

    Returns the process exit code: ``0`` after a clean (signalled)
    shutdown, ``2`` when ``target`` cannot start.  ``banner`` runs once
    the listener is bound; ``port_file`` then receives the bound port —
    how a supervisor learns the port when ``--port 0`` picked one.
    """

    async def serve() -> None:
        await target.start()
        if port_file and target.port is not None:
            # Written post-bind so a supervisor polling the file always
            # reads a live port; the temp+replace keeps the read atomic.
            path = Path(port_file)
            tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
            tmp.write_text(f"{target.port}\n", encoding="utf-8")
            os.replace(tmp, path)
        loop = asyncio.get_running_loop()
        drains: set = set()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: drains.add(asyncio.ensure_future(target.shutdown()))
                )
            except (NotImplementedError, RuntimeError):
                # Non-main thread or platforms without loop signal support;
                # the embedder stops the target via shutdown() directly.
                pass
        print(banner(), file=sys.stderr)
        await target.wait_stopped()

    try:
        asyncio.run(serve())
    except OSError as error:
        print(f"error: cannot start {name}: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0
