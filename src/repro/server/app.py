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
collector that the event loop merges into the server-lifetime collector
(the same associative fold the process-pool scanner uses).  The worker
hands that collector back itself: by reference from the thread pool,
pickled like the rest of the result across a process pool, never
through a ``to_dict``/``from_dict`` round trip.  Every response carries
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
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.cache import ResultStore, ScanCache, hash_source
from repro.core.engine import PatchitPy
from repro.core.project import ProjectScanner
from repro.core.review import ReviewError, review
from repro.core.sarif import review_to_sarif
from repro.observability.collector import ScanMetrics, clock
from repro.observability.exporters import to_prometheus
from repro.observability.trace import TraceRecorder
from repro.server.http11 import HttpError, Request, Response, within
from repro.server.pipeline import (
    Background,
    Pipeline,
    batch_items,
    batch_reply,
    batch_stream,
    deadline_s,
    exclude_keys,
    json_object,
    require_root,
    require_source,
    tier_hit,
)
from repro.server.statusz import render_statusz
from repro.types import Finding

__all__ = ["BackgroundServer", "PatchitPyServer", "ServerConfig"]

_R = TypeVar("_R")


@dataclass
class ServerConfig:
    """Tunables for one :class:`PatchitPyServer` instance.

    ``jobs`` sizes the analysis pool: 1 keeps a single worker thread,
    and on a loop that owns the main thread each snippet first runs on
    the loop itself under a SIGALRM budget (see
    :meth:`PatchitPyServer._run_unit`); >1 fans snippets out over a
    process pool when the engine is picklable (regex matching is
    CPU-bound, so threads would be GIL-bound) and falls back to threads
    otherwise.  ``queue_depth`` bounds queued-plus-running
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
# the same discipline ProjectScanner uses for tree scans.  With the
# shared tier on, each worker also opens its own ResultStore on the same
# directory: entries are one file per digest, published through temp
# names unique to the process and thread, so writers never collide.
_WORKER_ENGINE: Optional[PatchitPy] = None
_WORKER_STORE: Optional[ResultStore] = None


def _pool_init(pickled_engine: bytes, store_at: Optional[Tuple[str, str]]) -> None:
    global _WORKER_ENGINE, _WORKER_STORE
    # A forked pool process inherits the daemon's signal set-up.  Through
    # the event loop's wakeup fd a signal sent to the child would drain
    # the parent, and the loop's SIGTERM handler would keep the child
    # alive when a broken pool terminates it.  Ctrl-C belongs to the
    # parent, which shuts the pool down itself.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _exit_with_parent(os.getppid())
    _WORKER_ENGINE = pickle.loads(pickled_engine)
    _WORKER_ENGINE.warmup()
    if store_at is not None:
        _WORKER_STORE = ResultStore(Path(store_at[0]), store_at[1])


def _exit_with_parent(parent: int, interval_s: float = 0.25) -> None:
    """End this pool process once ``parent`` is gone (killed, crashed).

    An idle pool process blocks on the call queue, so a check between
    units would never run; a daemon thread polls instead.  A dead parent
    re-parents the child, which changes ``os.getppid()``.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(interval_s)
        os._exit(0)

    threading.Thread(target=watch, name="patchitpy-parent-watch", daemon=True).start()


def _pool_unit(
    source: str, patch: bool, exclude: frozenset
) -> Tuple[dict, ScanMetrics]:
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    return analysis_unit(_WORKER_ENGINE, _WORKER_STORE, source, patch, exclude)


def analyze_payload(
    engine: PatchitPy,
    source: str,
    patch: bool,
    trace: Optional[TraceRecorder] = None,
    exclude: frozenset = frozenset(),
) -> Tuple[dict, ScanMetrics]:
    """Run detect(+patch) and shape the JSON payload for one snippet.

    Returns ``(payload, metrics)``: the request's own collector, which
    the caller merges into the lifetime collector (a process pool
    pickles it with the payload; its tables are plain data).
    ``patched_source`` is the verified patch of the submitted source,
    the text a client ships; ``exclude`` holds finding keys (see
    :func:`repro.core.verify.finding_key`) that patch leaves alone.
    ``patches`` is each remaining finding's first-pass render, spans
    anchored to the submitted source, for display: applying it does not
    give ``patched_source``, which adds later passes, import pruning
    and the verifier's rulings.

    Patches the verifier reverted are filtered out of ``patches``, and
    every examined patch's ruling appears in ``patch_verdicts``, with
    ``patches_reverted`` and the aggregate ``verified`` flag alongside.
    """
    metrics = ScanMetrics()
    findings = engine.detect(source, metrics=metrics, trace=trace)
    payload: dict = {
        "vulnerable": bool(findings),
        "findings": [f.to_dict() for f in findings],
    }
    if patch:
        _apply_patch_fields(engine, source, findings, payload, metrics, trace, exclude)
    if trace is not None and trace.enabled:
        payload["trace_events"] = list(trace.events)
    return payload, metrics


def _apply_patch_fields(
    engine: PatchitPy,
    source: str,
    findings: List[Finding],
    payload: dict,
    metrics: ScanMetrics,
    trace: Optional[TraceRecorder] = None,
    exclude: frozenset = frozenset(),
) -> None:
    """Render the patch-mode payload fields for already-detected findings."""
    if findings:
        result = engine.patch(
            source, findings, metrics=metrics, trace=trace, exclude=exclude
        )
        dropped = exclude | {v.trigger_key for v in result.verdicts if v.reverted}
        # canonical Patch wire shape (repro.types.Patch.to_dict), shared
        # with the plain-JSON exporter; the patch call's own render of
        # the submitted source, so the first pass renders once
        payload["patches"] = [
            p.to_dict() for p in result.rendered if p.trigger_key not in dropped
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


def analysis_unit(
    engine: PatchitPy,
    store: Optional[ResultStore],
    source: str,
    patch: bool,
    exclude: frozenset = frozenset(),
) -> Tuple[dict, ScanMetrics]:
    """One snippet's whole unit of pool work: ``(payload, metrics)``.

    Without a shared tier (``store`` is ``None``) that is
    :func:`analyze_payload`.  With one, the unit is lookup, analysis on
    a miss, and write-through, in that order and on one thread, so a
    reply always means every sibling can hit the entry.  The first two
    are :func:`lookup_and_analyze`, the last :func:`write_through`.
    """
    payload, metrics, miss = lookup_and_analyze(engine, store, source, patch, exclude)
    if miss is not None:
        assert store is not None
        write_through(store, miss, payload, metrics)
    return payload, metrics


def lookup_and_analyze(
    engine: PatchitPy,
    store: Optional[ResultStore],
    source: str,
    patch: bool,
    exclude: frozenset = frozenset(),
) -> Tuple[dict, ScanMetrics, Optional[str]]:
    """A unit before its write-through: ``(payload, metrics, miss)``.

    ``miss`` is the digest a shared-tier miss still has to publish, or
    ``None`` (a hit, or no tier).  A hit shapes the payload from the
    stored findings with no detect; patch rendering, when asked for,
    runs against the submitted source so the edits anchor to it exactly
    as a cold analysis would, and ``from_cache`` marks it.  The hit and
    miss counts and the lookup's wall time (``snippet_cache_time_s``)
    travel in the unit's own collector.
    """
    if store is None:
        return analyze_payload(engine, source, patch, exclude=exclude) + (None,)
    digest = hash_source(source)
    payload, lookup = tier_hit(store, digest)
    if payload is not None:
        if patch:
            findings = [Finding.from_dict(raw) for raw in payload["findings"]]
            _apply_patch_fields(
                engine, source, findings, payload, lookup, exclude=exclude
            )
        return payload, lookup, None
    payload, metrics = analyze_payload(engine, source, patch, exclude=exclude)
    metrics.merge(lookup)
    metrics.count("cache_misses")
    metrics.count("snippet_cache_misses")
    return payload, metrics, digest


def write_through(
    store: ResultStore, digest: str, payload: dict, metrics: ScanMetrics
) -> None:
    """Publish a miss's findings under ``digest``; a failed publish and
    the write's wall time land in ``metrics``."""
    started = clock()
    findings = [Finding.from_dict(raw) for raw in payload["findings"]]
    if not store.store(digest, findings):
        metrics.count("snippet_cache_write_errors")
    metrics.add_time("snippet_cache_time_s", clock() - started)


def _timed(fn: Callable[..., _R], *args: Any) -> Tuple[_R, float]:
    """``fn(*args)`` and the seconds it took, measured where it ran."""
    started = clock()
    result = fn(*args)
    return result, clock() - started


class _Overrun(BaseException):
    """Raised by the SIGALRM handler into an inline unit that ran past
    its budget.  A ``BaseException``, so that no ``except Exception`` on
    the unit's path can swallow it."""


#: Weight of the newest unit in the seconds-per-character estimate.
_PACE_WEIGHT = 0.125


class PatchitPyServer(Pipeline):
    """A warm-engine scan daemon over asyncio (see module docstring)."""

    prefix = "server"
    time_handler = True

    def __init__(
        self,
        engine: Optional[PatchitPy] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.engine = engine if engine is not None else PatchitPy()
        super().__init__(
            config if config is not None else ServerConfig(),
            {
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
                ("GET", "/v1/metrics.json"): self._handle_metrics_json,
                ("GET", "/statusz"): self._handle_statusz,
                ("POST", "/v1/analyze"): self._handle_analyze,
                ("POST", "/v1/batch"): self._handle_batch,
                ("POST", "/v1/scan"): self._handle_scan,
                ("POST", "/v1/review"): self._handle_review,
            },
        )
        self._caches: Dict[Path, ScanCache] = {}
        #: The engine's ruleset fingerprint, computed once at start: it
        #: names the shared tier's object directory and every open cache,
        #: and ``/healthz`` reports it so a fleet front door reads the tier
        #: under the same name.
        self.fingerprint = ""
        #: The cross-process shared snippet cache (fleet tier), or None.
        self._snippet_store: Optional[ResultStore] = None
        self._pool: Optional[Executor] = None
        self._pool_kind = "none"
        self._uses_process_pool = False
        #: ``_pool_init``'s arguments, kept to replace a broken pool.
        self._pool_initargs: Tuple[Any, ...] = ()
        self._pending = 0  # queued-or-running analysis units (backpressure)
        #: Whether analysis units run on the event loop under a SIGALRM
        #: budget before the pool; decided by :meth:`start`.
        self.inline = False
        self._alarm_previous: Any = None  # SIGALRM's disposition before start
        self._unraisable_previous: Any = None  # sys.unraisablehook before start
        self._armed = False  # the alarm may cut the code running now
        #: When the loop's current turn stops granting inline work.
        self._slice_end: Optional[float] = None
        #: Decaying sums of unit seconds and characters (:meth:`_learn`).
        self._pace_seconds = 0.0
        self._pace_chars = 0.0

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> "PatchitPyServer":
        """Warm the engine, build the pool, and bind the listener."""
        self.engine.warmup()
        self.fingerprint = self.engine.rules.fingerprint()
        if self.config.shared_cache_dir:
            self._snippet_store = ResultStore(
                Path(self.config.shared_cache_dir), self.fingerprint
            )
        self._pool, self._pool_kind = self._build_pool()
        cfg = self.config
        await self._bind(cfg.host, cfg.port, cfg.unix_socket)
        self.inline = self._can_run_inline()
        if self.inline:
            self._alarm_previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._unraisable_previous = sys.unraisablehook
            sys.unraisablehook = self._unraisable
        return self

    def _can_run_inline(self) -> bool:
        """Whether units may run on this loop under a SIGALRM budget.

        That takes one analysis slot, a loop on the main thread (the
        only thread a Python signal handler interrupts), a platform with
        ``setitimer``, and SIGALRM at its default disposition: an
        embedder's own handler is never taken over.
        """
        return (
            self.config.jobs <= 1
            and threading.current_thread() is threading.main_thread()
            and hasattr(signal, "setitimer")
            and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
        )

    def _build_pool(self) -> Tuple[Executor, str]:
        jobs = max(1, self.config.jobs)
        pickled = self._pickled_engine() if jobs > 1 else None
        if pickled is None:
            return ThreadPoolExecutor(max_workers=jobs), "thread"
        store = self._snippet_store
        store_at = None
        if store is not None:
            store_at = (str(store.root), self.fingerprint)
        self._pool_initargs = (pickled, store_at)
        self._uses_process_pool = True
        return self._process_pool(), "process"

    def _pickled_engine(self) -> Optional[bytes]:
        """The engine as the pool processes load it; None if it cannot pickle."""
        try:
            return pickle.dumps(self.engine)
        except Exception:
            return None

    def _process_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, self.config.jobs),
            initializer=_pool_init,
            initargs=self._pool_initargs,
        )

    def _replace_pool(self, broken: Executor) -> Executor:
        """The pool to retry on after ``broken`` lost a process.

        The first unit to see the break replaces the pool; units that
        failed with it find the replacement already in place.
        """
        if self._pool is broken:
            broken.shutdown(wait=False)
            self._pool = self._process_pool()
            self.metrics.count("server_pool_restarts")
        assert self._pool is not None
        return self._pool

    async def _release(self) -> None:
        """After the drain: stop the pool and persist every open cache."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self.inline:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._alarm_previous)
            sys.unraisablehook = self._unraisable_previous
        for cache in self._caches.values():
            cache.close()
        if self._snippet_store is not None:
            self._snippet_store.close()

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

    async def _run_unit(
        self,
        source: str,
        patch: bool,
        exclude: frozenset = frozenset(),
        deadline_at: Optional[float] = None,
    ) -> Tuple[dict, ScanMetrics]:
        """One snippet as one :func:`analysis_unit` (slot held).

        An inline server runs the unit on the loop when its estimate
        says the unit fits the budget (:meth:`_budget`), with no thread
        hop; a unit predicted to overrun, or cut by the alarm, runs on
        the pool thread, unless the request's deadline (loop time
        ``deadline_at``) is what ran out: then it raises
        :class:`asyncio.TimeoutError`, as the deadline's own timer
        makes the wait for it do.  Otherwise the unit is one
        submission to the pool: with the shared tier, the lookup and a
        miss's write-through run inside it, beside its analysis.  A
        process pool that lost a process (killed, out of memory) fails
        every unit it held; each is retried once on a fresh pool.  The
        slot frees when the unit ends or is cancelled.
        """
        loop = asyncio.get_running_loop()
        pool = self._pool
        store = self._snippet_store
        try:
            if self.inline:
                budget, deadline_bound = self._budget(loop, deadline_at)
                fits = budget > 0 and len(source) * self._pace() < budget
                if fits:
                    unit = self._inline_unit(budget, source, patch, exclude)
                    if unit is not None:
                        return unit
                if deadline_bound and (fits or budget <= 0):
                    # The deadline ran out on the loop: answer as its
                    # timer would, and start no pool unit.
                    raise asyncio.TimeoutError()
                if budget > 0 and not fits:
                    # The estimate, not a used-up slice, sends it on.
                    self.metrics.count("server_inline_skips")
            if not self._uses_process_pool:
                result, seconds = await loop.run_in_executor(
                    pool, _timed, analysis_unit, self.engine, store, source, patch, exclude
                )
                self._learn(len(source), seconds)
                return result
            try:
                return await loop.run_in_executor(
                    pool, _pool_unit, source, patch, exclude
                )
            except BrokenProcessPool:
                assert pool is not None
                pool = self._replace_pool(pool)
                return await loop.run_in_executor(
                    pool, _pool_unit, source, patch, exclude
                )
        finally:
            self._release_slot()

    def _budget(
        self, loop: asyncio.AbstractEventLoop, deadline_at: Optional[float]
    ) -> Tuple[float, bool]:
        """The seconds an inline unit may run now, and whether the
        request's deadline rather than the loop's slice sets them.

        Each turn of the loop grants inline work one GIL switch interval
        (``sys.getswitchinterval()``), the bound the GIL gives a pool
        thread, however many units the turn runs; the next turn, after
        the loop has polled its sockets, grants a fresh one.
        """
        now = loop.time()
        if self._slice_end is None:
            self._slice_end = now + sys.getswitchinterval()
            loop.call_soon(self._end_slice)
        budget = self._slice_end - now
        if deadline_at is not None and deadline_at - now <= budget:
            return deadline_at - now, True
        return budget, False

    def _end_slice(self) -> None:
        self._slice_end = None

    def _pace(self) -> float:
        """Estimated seconds per character of a unit; 0 before the first."""
        return self._pace_seconds / self._pace_chars if self._pace_chars else 0.0

    def _learn(self, chars: int, seconds: float, overran: bool = False) -> None:
        """Fold one unit's length and time into :meth:`_pace`.

        Decaying sums of seconds and of characters weigh each unit by
        its length, so a snippet's fixed cost does not inflate the rate
        a long document is judged by.  An overrun's time is only a lower
        bound: the estimate rises to at least its rate, so the next unit
        as long goes to the pool instead of paying the budget again.
        """
        self._pace_seconds += _PACE_WEIGHT * (seconds - self._pace_seconds)
        self._pace_chars += _PACE_WEIGHT * (chars - self._pace_chars)
        if overran and chars:
            floor = seconds / chars * self._pace_chars
            self._pace_seconds = max(self._pace_seconds, floor)

    def _inline_unit(
        self, budget: float, source: str, patch: bool, exclude: frozenset
    ) -> Optional[Tuple[dict, ScanMetrics]]:
        """The unit run on the loop under a ``budget``-second alarm, or
        ``None`` when the alarm cut it.

        The alarm covers the tier lookup and the analysis only: a miss
        is published after the alarm is disarmed, so a cut unit never
        publishes and its re-run misses as it did.  Nothing on that
        path holds a lock or catches a ``BaseException``.
        """
        store = self._snippet_store
        started = clock()
        unit = self._under_alarm(
            budget, lookup_and_analyze, self.engine, store, source, patch, exclude
        )
        seconds = clock() - started
        if unit is None:
            self.metrics.count("server_inline_overruns")
            self._learn(len(source), seconds, overran=True)
            return None
        self.metrics.count("server_inline_units")
        self._learn(len(source), seconds)
        payload, metrics, miss = unit
        if miss is not None:
            assert store is not None
            write_through(store, miss, payload, metrics)
        return payload, metrics

    def _under_alarm(
        self, budget: float, fn: Callable[..., _R], *args: Any
    ) -> Optional[_R]:
        """``fn(*args)``, or ``None`` once SIGALRM cuts it after
        ``budget`` seconds.

        The alarm repeats every switch interval until it is disarmed: a
        cut that lands in a finalizer (a weakref callback the unit's
        garbage triggers) is swallowed there, and the next one cuts the
        unit.  Two ticks are that far apart, so one that lands in the
        finally clause below, before it disarms, is the last.
        """
        try:
            try:
                self._armed = True
                # at least a microsecond: a zero timer is no timer
                signal.setitimer(
                    signal.ITIMER_REAL, max(budget, 1e-6), sys.getswitchinterval()
                )
                return fn(*args)
            finally:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Overrun:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            return None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        """SIGALRM: cut the inline unit, if one is running under the alarm."""
        if self._armed:
            raise _Overrun()

    def _unraisable(self, unraisable: Any) -> None:
        """``sys.unraisablehook`` while inline: a cut swallowed by a
        finalizer is no error (the next tick cuts the unit); anything
        else goes to the hook in place before."""
        if not isinstance(unraisable.exc_value, _Overrun):
            self._unraisable_previous(unraisable)

    def _release_slot(self) -> None:
        self._pending = max(0, self._pending - 1)

    def _off_loop(self, fn: Callable[..., Any], *args: Any) -> "asyncio.Future":
        """``fn(*args)`` on the loop's default executor, holding one slot."""
        self._acquire_slots(1)
        future = asyncio.get_running_loop().run_in_executor(None, fn, *args)
        future.add_done_callback(lambda _f: self._release_slot())
        return future

    def _gauges(self) -> Dict[str, float]:
        """Point-in-time server gauges for ``/metrics`` and its JSON twin."""
        return {
            "server_uptime_seconds": time.monotonic() - self._started_at,
            "server_inflight_requests": float(self._inflight),
            "server_queued_units": float(self._pending),
            "server_queue_capacity": float(self.config.queue_depth),
            "server_open_caches": float(len(self._caches)),
        }

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
                "inline": self.inline,
                "jobs": max(1, self.config.jobs),
                "queue_depth": self.config.queue_depth,
                "queued": self._pending,
                "inflight": self._inflight,
                "requests_total": self.metrics.counters.get("server_requests", 0),
                "open_caches": len(self._caches),
                "shared_cache": self._snippet_store is not None,
                "fingerprint": self.fingerprint,
            },
            status=503 if self.draining else 200,
        )

    async def _handle_metrics(self, request: Request) -> Response:
        return Response.text_response(
            to_prometheus(self.metrics, extra_gauges=self._gauges())
        )

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
                "gauges": self._gauges(),
                "pool": self._pool_kind,
                "draining": self.draining,
            }
        )

    async def _handle_statusz(self, request: Request) -> Response:
        return Response.html_response(render_statusz(self))

    async def _handle_analyze(self, request: Request) -> Response:
        body = json_object(request)
        source = require_source(body)
        patch = bool(body.get("patch", False))
        want_trace = bool(body.get("trace", False))
        deadline = deadline_s(body, self.config.default_deadline_ms)
        exclude = exclude_keys(body)
        started = clock()

        if want_trace:
            # Traced analysis runs on the loop's default executor:
            # the recorder's event buffer must come back with the result,
            # and the trace is a debugging surface, not the hot path.
            future = self._off_loop(
                analyze_payload, self.engine, source, patch, TraceRecorder(), exclude
            )
        else:
            self._acquire_slots(1)
            future = self._run_unit(source, patch, exclude, _deadline_at(deadline))
        payload, metrics = await _await_deadline(future, deadline, "analysis")
        self.metrics.merge(metrics)
        elapsed = clock() - started
        payload["duration_ms"] = round(elapsed * 1000.0, 3)
        response = Response.json_response(payload)
        # Queue wait = elapsed wall minus the work the engine and the
        # shared tier accounted for in their own timers.  An idle pool
        # makes this ~0; a saturated one makes it the time the snippet
        # sat behind other units.
        timers = metrics.timers
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
        body = json_object(request)
        ids, sources, deadline = batch_items(body, self.config.default_deadline_ms)
        patch = bool(body.get("patch", False))
        stream = bool(body.get("stream", False))
        started = clock()

        self._acquire_slots(len(sources))
        deadline_at = _deadline_at(deadline)
        futures = [
            asyncio.ensure_future(self._run_unit(source, patch, deadline_at=deadline_at))
            for source in sources
        ]
        if stream:
            return batch_stream(self._stream_lines(ids, futures, deadline), started)
        what = f"batch of {len(sources)}"
        gathered = asyncio.gather(*futures, return_exceptions=True)
        results = await _await_deadline(gathered, deadline, what)
        if any(isinstance(result, asyncio.TimeoutError) for result in results):
            raise _missed(what, deadline)  # an item's deadline ran out inline
        return batch_reply(
            [self._item_line(item_id, f) for item_id, f in zip(ids, futures)], started
        )

    def _item_line(
        self, item_id: Any, future: "asyncio.Future", deadline: Optional[float] = None
    ) -> dict:
        """One finished batch unit as its result line, or its error line."""
        try:
            payload, metrics = future.result()
        except asyncio.TimeoutError:  # its deadline ran out inline
            self.metrics.count("server_stream_deadline_drops")
            return _deadline_line(item_id, deadline)
        except (Exception, asyncio.CancelledError) as error:
            return {"id": item_id, "error": str(error)}
        self.metrics.merge(metrics)
        payload["id"] = item_id
        return payload

    async def _stream_lines(
        self,
        ids: List[Any],
        futures: List["asyncio.Future"],
        deadline: Optional[float],
    ) -> AsyncIterator[dict]:
        """The batch's item lines in completion order, for streaming.

        Clients correlate by ``id``.  A missed deadline turns every
        still-pending item into an error line instead of failing the
        whole response: by then the head and earlier results are
        already on the wire.
        """
        loop = asyncio.get_running_loop()
        pending: Dict["asyncio.Future", Any] = dict(zip(futures, ids))
        deadline_at = None if deadline is None else loop.time() + deadline
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
                    yield _deadline_line(item_id, deadline)
                self.metrics.count("server_stream_deadline_drops", len(pending))
                break
            for future in done:
                yield self._item_line(pending.pop(future), future, deadline)

    async def _handle_scan(self, request: Request) -> Response:
        body = json_object(request)
        root = Path(require_root(body, "scan"))
        if not root.is_dir():
            raise HttpError(400, f"scan root is not a directory: {root}")
        try:
            jobs = max(1, int(body.get("jobs", 1)))
        except (TypeError, ValueError, OverflowError):
            raise HttpError(400, "jobs must be an integer")
        # Threads past the core count buy nothing: the findings do not
        # depend on ``jobs``, and the scan threads share one GIL.
        jobs = min(jobs, os.cpu_count() or 1)
        use_cache = bool(body.get("use_cache", True))
        deadline = deadline_s(body, self.config.default_deadline_ms)
        started = clock()

        collector = ScanMetrics()
        scanner = ProjectScanner(engine=self.engine, metrics=collector)
        cache = self._cache_for(root) if use_cache else None

        def run_scan():
            return scanner.scan(root, jobs=jobs, processes=False, cache=cache)

        # Tree scans run on the loop's default thread executor, not the
        # analysis pool: a scan inside a process-pool worker could not
        # itself fan out, and one scan must not starve snippet analyses.
        report = await _await_deadline(self._off_loop(run_scan), deadline, "scan")
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
        body = json_object(request)
        root = Path(require_root(body, "review"))
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
        deadline = deadline_s(body, self.config.default_deadline_ms)
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
        try:
            report = await _await_deadline(
                self._off_loop(run_review), deadline, "review"
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
            cache = ScanCache(key, self.fingerprint)
            self._caches[key] = cache
        return cache



def _deadline_at(deadline: Optional[float]) -> Optional[float]:
    """The loop time at which a ``deadline`` starting now runs out."""
    return None if deadline is None else asyncio.get_running_loop().time() + deadline


def _missed(what: str, deadline: Optional[float]) -> HttpError:
    return HttpError(504, f"{what} missed its deadline of {(deadline or 0.0) * 1000.0:g}ms")


def _deadline_line(item_id: Any, deadline: Optional[float]) -> dict:
    """A streamed batch item's line once its deadline ran out."""
    return {"id": item_id, "error": _missed("batch item", deadline).detail}


async def _await_deadline(awaitable, deadline: Optional[float], what: str) -> Any:
    """``awaitable``'s result, or 504 once ``deadline`` seconds pass
    (the awaited work is cancelled; pool work already running drains)."""
    if deadline is None:
        return await awaitable
    try:
        return await within(awaitable, deadline)
    except asyncio.TimeoutError:
        raise _missed(what, deadline)


class BackgroundServer(Background):
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
        super().__init__(server)
        self.server = server

    @property
    def unix_socket(self) -> Optional[str]:
        return self.server.config.unix_socket
