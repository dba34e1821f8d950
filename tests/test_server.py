"""Tests for the persistent scan server (``repro.server``).

Every test runs a real :class:`~repro.server.PatchitPyServer` on a
loopback socket and talks to it with the stdlib
:class:`~repro.server.ServerClient` — round-tripping the actual HTTP
framing, not calling handlers directly.  Most run the server's loop on
a :class:`~repro.server.BackgroundServer` thread, where each analysis
unit goes to the pool thread.  The deadline, drain and inline tests
also run it on the main thread (:class:`MainThreadServer`), as
``patchitpy serve`` does, where a ``--jobs 1`` server analyzes on its
loop under a SIGALRM budget.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import threading
import time

import pytest

from repro import (
    BackgroundServer,
    LanguageServer,
    PatchitPy,
    PatchitPyServer,
    ScanMetrics,
    ServerClient,
    ServerConfig,
    ServerError,
    ServerTransport,
)
from repro.core import finding_key
from repro.core.cache import ResultStore, hash_source
from repro.server.daemon import build_serve_parser, config_from_args

VULN = "import pickle\n\ndata = pickle.loads(blob)\napp.run(debug=True)\n"
SAFE = "x = 1\n"


@pytest.fixture(scope="module")
def running_server():
    """One shared warm server for the read-only round-trip tests."""
    server = PatchitPyServer(config=ServerConfig(port=0))
    with BackgroundServer(server) as handle:
        with ServerClient(port=handle.port) as client:
            yield server, client


class SlowEngine(PatchitPy):
    """An engine whose detect stalls — for deadline-expiry tests."""

    def detect(self, source, metrics=None, trace=None):
        time.sleep(0.5)
        return super().detect(source, metrics=metrics, trace=trace)


class MainThreadServer:
    """Serve on the calling (main) thread, as ``patchitpy serve`` does.

    :meth:`run` drives the server's loop here with ``asyncio.run``, so a
    ``--jobs 1`` server analyzes inline, and runs ``body(handle)`` on an
    executor thread, where a test's clients live.  The handle offers what
    a :class:`~repro.server.BackgroundServer` handle does: ``port``,
    ``stop`` and the loop as ``_loop``.
    """

    def __init__(self, server):
        self.server = server
        self._loop = None

    @property
    def port(self):
        return self.server.port

    def run(self, body):
        async def serve():
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            try:
                return await self._loop.run_in_executor(None, body, self)
            finally:
                await self.server.shutdown()

        assert threading.current_thread() is threading.main_thread()
        return asyncio.run(serve())

    def stop(self, timeout=60.0):
        """Drain the server from the body's thread (idempotent)."""
        asyncio.run_coroutine_threadsafe(self.server.shutdown(), self._loop).result(
            timeout
        )


def on_a_loop_thread(server, body):
    """Start ``server`` on a :class:`BackgroundServer` thread, return
    ``body(handle)`` and stop it: every unit goes to the pool."""
    with BackgroundServer(server) as handle:
        return body(handle)


def on_the_main_thread(server, body):
    """The same, with the server's loop on the main thread, where a
    ``--jobs 1`` server runs its units inline."""

    def inline_body(handle):
        assert server.inline is (server.config.jobs == 1)
        return body(handle)

    return MainThreadServer(server).run(inline_body)


class TestEndpointRoundTrips:
    def test_healthz_reports_warm_engine(self, running_server):
        server, client = running_server
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["rules"] == len(server.engine.rules)
        assert health["pool"] == "thread"
        # a loop off the main thread sends every unit to the pool thread
        assert health["inline"] is False
        assert health["queue_depth"] == server.config.queue_depth

    def test_analyze_matches_inprocess_detect(self, running_server):
        server, client = running_server
        payload = client.analyze(VULN)
        expected = server.engine.detect(VULN)
        assert payload["vulnerable"] is True
        assert len(payload["findings"]) == len(expected)
        got_rules = sorted(f["rule_id"] for f in payload["findings"])
        assert got_rules == sorted(f.rule_id for f in expected)

    def test_analyze_safe_snippet(self, running_server):
        _, client = running_server
        payload = client.analyze(SAFE)
        assert payload["vulnerable"] is False
        assert payload["findings"] == []

    def test_analyze_with_patch_matches_engine_patch(self, running_server):
        server, client = running_server
        payload = client.analyze(VULN, patch=True)
        result = server.engine.patch(VULN)
        assert payload["patched_source"] == result.patched
        assert payload["patches_applied"] == len(result.applied)
        assert payload["patches"], "rendered patches travel on the wire"
        for patch in payload["patches"]:
            assert set(patch) >= {"rule_id", "span", "replacement"}

    def test_analyze_trace_returns_events(self, running_server):
        _, client = running_server
        payload = client.analyze(VULN, trace=True)
        kinds = {event["kind"] for event in payload["trace_events"]}
        assert "rule" in kinds

    def test_batch_preserves_ids_and_order(self, running_server):
        _, client = running_server
        payload = client.batch([VULN, SAFE, VULN])
        assert payload["count"] == 3
        assert payload["failed"] == 0
        assert [item["id"] for item in payload["results"]] == [0, 1, 2]
        assert [item["vulnerable"] for item in payload["results"]] == [
            True,
            False,
            True,
        ]

    def test_scan_endpoint_is_incremental_across_requests(self, tmp_path):
        (tmp_path / "bad.py").write_text(VULN)
        (tmp_path / "ok.py").write_text(SAFE)
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                cold = client.scan(str(tmp_path))
                warm = client.scan(str(tmp_path))
        assert cold["files_scanned"] == 2
        assert cold["cache_misses"] == 2 and cold["cache_hits"] == 0
        # second request hits the cache the daemon kept open
        assert warm["cache_hits"] == 2 and warm["cache_misses"] == 0
        assert warm["total_findings"] == cold["total_findings"] >= 1
        # vulnerable files travel with their findings; clean ones do not
        assert [f["path"] for f in warm["files"]] == [str(tmp_path / "bad.py")]

    def test_every_response_carries_a_trace_id(self, running_server):
        _, client = running_server
        conn = client._connection()
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        trace_id = response.getheader("X-Patchitpy-Trace-Id")
        assert trace_id and len(trace_id) == 16


class TestObservabilityEndpoints:
    def _raw(self, client, method, path, headers=None, body=None):
        conn = client._connection()
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response, response.read()

    def test_caller_trace_id_is_echoed(self, running_server):
        _, client = running_server
        response, _ = self._raw(
            client, "GET", "/healthz", headers={"X-Trace-Id": "ide-session.42"}
        )
        assert response.getheader("X-Patchitpy-Trace-Id") == "ide-session.42"

    def test_malformed_trace_id_is_replaced(self, running_server):
        _, client = running_server
        response, _ = self._raw(
            client, "GET", "/healthz", headers={"X-Trace-Id": "bad id with spaces!"}
        )
        echoed = response.getheader("X-Patchitpy-Trace-Id")
        assert echoed != "bad id with spaces!"
        assert len(echoed) == 16

    def test_trace_id_echoed_on_error_responses(self, running_server):
        _, client = running_server
        response, _ = self._raw(
            client, "GET", "/no/such/path", headers={"X-Trace-Id": "err-trace-1"}
        )
        assert response.status == 404
        assert response.getheader("X-Patchitpy-Trace-Id") == "err-trace-1"

    def test_statusz_serves_html_dashboard(self, running_server):
        _, client = running_server
        client.analyze(VULN)  # guarantee at least one datapoint in the window
        response, body = self._raw(client, "GET", "/statusz")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/html")
        html = body.decode("utf-8")
        assert html.startswith("<!doctype html>")
        assert "/v1/analyze" in html
        assert "p95" in html

    def test_client_statusz_helper(self, running_server):
        _, client = running_server
        assert "statusz" in client.statusz()

    def test_metrics_exposes_latency_histogram_families(self, running_server):
        _, client = running_server
        client.analyze(VULN)
        text = client.metrics_text()
        assert "# TYPE patchitpy_server_request_seconds histogram" in text
        assert 'patchitpy_server_request_seconds_bucket{endpoint="/v1/analyze",le="+Inf"}' in text
        assert "patchitpy_server_request_seconds_count" in text
        assert "# TYPE patchitpy_phase_seconds histogram" in text

    def test_access_log_emits_one_json_line_per_request(self, capfd):
        server = PatchitPyServer(config=ServerConfig(port=0, access_log=True))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(VULN, trace_id="log-line-test")
        lines = [
            line
            for line in capfd.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        records = [json.loads(line) for line in lines]
        mine = [r for r in records if r.get("trace_id") == "log-line-test"]
        assert len(mine) == 1
        record = mine[0]
        assert record["method"] == "POST"
        assert record["path"] == "/v1/analyze"
        assert record["status"] == 200
        assert record["bytes"] > 0
        assert record["duration_ms"] >= 0
        assert "handler_ms" in record and "queue_wait_ms" in record

    def test_rolling_window_counts_requests(self, running_server):
        server, client = running_server
        before = server.window.window(300.0).total("requests//v1/analyze")
        client.analyze(SAFE)
        snap = server.window.window(300.0)
        assert snap.total("requests//v1/analyze") == before + 1
        assert snap.quantile("latency//v1/analyze", 0.5) is not None

    def test_window_geometry_is_configurable(self):
        config = ServerConfig(port=0, window_interval_s=1.0, window_slots=7)
        server = PatchitPyServer(config=config)
        assert server.window.slots == 7
        assert server.window.capacity_s == pytest.approx(7.0)


class TestErrorHandling:
    def test_unknown_path_is_404(self, running_server):
        _, client = running_server
        with pytest.raises(ServerError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404

    def test_wrong_method_is_405(self, running_server):
        _, client = running_server
        with pytest.raises(ServerError) as info:
            client._request("GET", "/v1/analyze")
        assert info.value.status == 405

    def test_missing_source_is_400(self, running_server):
        _, client = running_server
        with pytest.raises(ServerError) as info:
            client._request("POST", "/v1/analyze", {"patch": True})
        assert info.value.status == 400
        assert "source" in info.value.payload["error"]

    def test_invalid_json_body_is_400(self, running_server):
        _, client = running_server
        conn = client._connection()
        conn.request(
            "POST",
            "/v1/analyze",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_oversized_body_is_413(self):
        server = PatchitPyServer(config=ServerConfig(port=0, max_body_bytes=64))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.analyze("x = 1\n" * 100)
        assert info.value.status == 413

    def test_scan_of_missing_root_is_400(self, running_server):
        _, client = running_server
        with pytest.raises(ServerError) as info:
            client.scan("/no/such/directory/anywhere")
        assert info.value.status == 400


class TestBackpressure:
    def test_batch_beyond_queue_depth_is_429(self):
        server = PatchitPyServer(config=ServerConfig(port=0, queue_depth=2))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.batch([VULN] * 5)
                # capacity-sized work still goes through afterwards
                ok = client.batch([VULN, SAFE])
                health = client.healthz()
        assert info.value.status == 429
        assert "queue depth" in info.value.payload["error"]
        assert ok["count"] == 2
        assert health["queued"] == 0

    def test_429_when_slots_are_occupied(self):
        server = PatchitPyServer(
            engine=SlowEngine(), config=ServerConfig(port=0, queue_depth=1)
        )
        statuses = []
        with BackgroundServer(server) as handle:

            def occupy():
                with ServerClient(port=handle.port) as inner:
                    inner.analyze(VULN)

            worker = threading.Thread(target=occupy)
            worker.start()
            time.sleep(0.15)  # let the slow request claim the only slot
            with ServerClient(port=handle.port) as client:
                try:
                    client.analyze(SAFE)
                    statuses.append(200)
                except ServerError as error:
                    statuses.append(error.status)
            worker.join()
        assert statuses == [429]

    def test_rejections_are_counted(self):
        server = PatchitPyServer(config=ServerConfig(port=0, queue_depth=1))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError):
                    client.batch([VULN] * 3)
                text = client.metrics_text()
        assert "patchitpy_server_responses_4xx 1" in text


class TestDeadlines:
    #: How a test runs its server (:class:`TestDeadlinesOnTheMainThread`
    #: runs every test again on the main thread).
    serve = staticmethod(on_a_loop_thread)

    def test_deadline_expiry_is_504(self):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                started = time.monotonic()
                with pytest.raises(ServerError) as info:
                    client.analyze(VULN, deadline_ms=50)
                elapsed = time.monotonic() - started
                # the server survives the expiry and keeps answering
                assert client.healthz()["status"] == "ok"
            return info.value.status, elapsed

        status, elapsed = self.serve(server, body)
        assert status == 504
        # answered at the deadline, not when the stalled detect ends
        assert elapsed < 0.5, elapsed

    def test_generous_deadline_succeeds(self):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                return client.analyze(VULN, deadline_ms=30_000)

        assert self.serve(server, body)["vulnerable"] is True

    def test_non_numeric_deadline_is_400(self, running_server):
        _, client = running_server
        with pytest.raises(ServerError) as info:
            client._request("POST", "/v1/analyze", {"source": SAFE, "deadline_ms": "soon"})
        assert info.value.status == 400

    def test_a_pumped_literal_leaves_healthz_responsive(self):
        """An unclosed f-string of 4,000 fields once held the one analysis
        thread, and with it the GIL, for seconds: the request got its 504
        after 3.2 s and ``/healthz`` stalled for 3.1 s."""
        server = PatchitPyServer(config=ServerConfig(port=0, jobs=1))
        source = 'conn.search_s(f"' + "{a} " * 4000
        payload, round_trips = self.serve(
            server, lambda handle: _analyze_while_polling(handle, source, 500)
        )
        assert payload["vulnerable"] is False
        assert round_trips and max(round_trips) < 0.5, max(round_trips)

    def test_a_stalled_unit_leaves_healthz_responsive(self):
        """A unit that stalls 0.5 s runs on the pool thread, not on the
        loop: an inline server's alarm cuts it after one switch interval
        and re-runs it there."""
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))
        payload, round_trips = self.serve(
            server, lambda handle: _analyze_while_polling(handle, VULN, 30_000)
        )
        assert payload["vulnerable"] is True
        assert round_trips and max(round_trips) < 0.25, max(round_trips)


class TestDeadlinesOnTheMainThread(TestDeadlines):
    serve = staticmethod(on_the_main_thread)


def _analyze_while_polling(handle, source, deadline_ms):
    """Analyze ``source`` while a second client polls ``/healthz``:
    ``(payload, health round-trip seconds)``."""
    round_trips = []
    analyzed = threading.Event()

    def poll():
        with ServerClient(port=handle.port) as poller:
            while not analyzed.is_set():
                started = time.monotonic()
                poller.healthz()
                round_trips.append(time.monotonic() - started)

    polling = threading.Thread(target=poll)
    polling.start()
    try:
        with ServerClient(port=handle.port) as client:
            payload = client.analyze(source, deadline_ms=deadline_ms)
    finally:
        analyzed.set()
        polling.join()
    return payload, round_trips


def _pickle_key(engine):
    """The identity of VULN's pickle finding, and VULN's findings."""
    findings = engine.detect(VULN)
    (pickle_finding,) = [f for f in findings if f.cwe_id == "CWE-502"]
    return finding_key(VULN, pickle_finding), findings


class TestExclude:
    """``exclude``: finding keys the verified patch leaves alone."""

    @pytest.mark.parametrize(
        "exclude",
        [
            "c630e7bb37eb9e48",
            {"key": "c630e7bb37eb9e48"},
            None,
            [12],
            ["c630e7bb37eb9e4"],
            ["c630e7bb37eb9e48a"],
            ["C630E7BB37EB9E48"],
            ["c630e7bb37eb9e4g"],
            ["c630e7bb37eb9e48\n"],
        ],
    )
    def test_malformed_exclude_is_400(self, running_server, exclude):
        _, client = running_server
        body = {"source": VULN, "patch": True, "exclude": exclude}
        with pytest.raises(ServerError) as info:
            client._request("POST", "/v1/analyze", body)
        assert info.value.status == 400
        assert "exclude must be a list" in str(info.value)

    def test_excluded_finding_stays_unpatched(self, running_server):
        server, client = running_server
        key, findings = _pickle_key(server.engine)
        payload = client.analyze(VULN, patch=True, exclude=[key])
        expected = server.engine.patch(VULN, findings, exclude=frozenset([key]))
        assert payload["patched_source"] == expected.patched
        assert "pickle.loads(blob)" in payload["patched_source"]
        assert "debug=True" not in payload["patched_source"]
        assert [p["cwe_id"] for p in payload["patches"]] == ["CWE-209"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_tier_hit_honours_exclude(self, tmp_path, jobs):
        server = PatchitPyServer(
            config=ServerConfig(port=0, jobs=jobs, shared_cache_dir=str(tmp_path))
        )
        key, findings = _pickle_key(server.engine)
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                miss = client.analyze(VULN, patch=True)
                hit = client.analyze(VULN, patch=True, exclude=[key])
        assert miss.get("from_cache", False) is False and hit["from_cache"] is True
        assert miss["patched_source"] == server.engine.patch(VULN).patched
        expected = server.engine.patch(VULN, findings, exclude=frozenset([key]))
        assert hit["patched_source"] == expected.patched != miss["patched_source"]


class TestGracefulDrain:
    #: How a test runs its server (:class:`TestGracefulDrainOnTheMainThread`
    #: runs every test again on the main thread).
    serve = staticmethod(on_a_loop_thread)

    def test_inflight_request_completes_during_drain(self):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))
        outcome = {}

        def body(handle):
            def slow_request():
                with ServerClient(port=handle.port) as client:
                    outcome["payload"] = client.analyze(VULN)

            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.15)  # the slow detect is now in flight
            handle.stop()  # SIGTERM path: drain, then stop
            worker.join(timeout=30)

        self.serve(server, body)
        assert outcome["payload"]["vulnerable"] is True
        assert server.draining is True

    def test_drain_does_not_wait_for_idle_keep_alive_clients(self):
        """An idle keep-alive connection is cancelled by the drain, not
        waited on: from Python 3.12.1 the listener's ``wait_closed``
        waits for every connection to drop."""
        server = PatchitPyServer(
            config=ServerConfig(port=0, idle_timeout_s=60.0, drain_timeout_s=1.0)
        )

        def body(handle):
            with ServerClient(port=handle.port) as client:
                client.healthz()  # the connection stays open, idle
                started = time.monotonic()
                handle.stop(timeout=10.0)
                return time.monotonic() - started

        elapsed = self.serve(server, body)
        assert server.draining is True
        assert elapsed < 5.0

    def test_draining_server_refuses_new_analysis(self):
        server = PatchitPyServer(config=ServerConfig(port=0))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                client.analyze(SAFE)
            server.draining = True  # simulate mid-drain arrival
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.analyze(SAFE)
                health = client.healthz()
            server.draining = False
            return info.value.status, health

        status, health = self.serve(server, body)
        assert status == 503
        assert health["status"] == "draining"

    def test_drain_closes_open_caches(self, tmp_path):
        (tmp_path / "bad.py").write_text(VULN)

        def scan(handle):
            with ServerClient(port=handle.port) as client:
                return client.scan(str(tmp_path))

        server = PatchitPyServer(config=ServerConfig(port=0))
        self.serve(server, scan)
        caches = list(server._caches.values())
        assert caches and all(cache.closed for cache in caches)
        # the persisted store makes the next cold scan warm
        warm = self.serve(PatchitPyServer(config=ServerConfig(port=0)), scan)
        assert warm["cache_hits"] == 1


class TestGracefulDrainOnTheMainThread(TestGracefulDrain):
    serve = staticmethod(on_the_main_thread)


class StallingEngine(PatchitPy):
    """An engine whose detect first sleeps ``stall`` seconds."""

    def __init__(self, stall):
        super().__init__()
        self.stall = stall

    def detect(self, source, metrics=None, trace=None):
        time.sleep(self.stall)
        return super().detect(source, metrics=metrics, trace=trace)


class AlwaysInline(PatchitPyServer):
    """A server whose estimate never predicts an overrun: every unit is
    tried on the loop, however often the alarm cuts one."""

    def _pace(self):
        return 0.0


def _reply(payload):
    """A reply without its timing, the one field two runs never share."""
    return {key: value for key, value in payload.items() if key != "duration_ms"}


def _pool_submissions(monkeypatch, server):
    """The functions submitted to ``server``'s analysis pool from now on."""
    submitted = []
    real = asyncio.base_events.BaseEventLoop.run_in_executor

    def counting(loop, executor, func, *args):
        if executor is not None and executor is server._pool:
            submitted.append(func)
        return real(loop, executor, func, *args)

    monkeypatch.setattr(asyncio.base_events.BaseEventLoop, "run_in_executor", counting)
    return submitted


class TestInline:
    """A ``--jobs 1`` server whose loop owns the main thread analyzes on
    the loop under a SIGALRM budget; a unit the alarm cuts re-runs on the
    pool thread, or answers 504 when its deadline is what ran out."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_inline_replies_equal_pool_replies_on_the_corpus(
        self, flat_samples, tmp_path, shared
    ):
        sources = list(dict.fromkeys(sample.source for sample in flat_samples))

        def config(name):
            tier = str(tmp_path / name) if shared else None
            return ServerConfig(port=0, shared_cache_dir=tier)

        def replies(handle):
            # with the shared tier, a miss and then a hit of every sample
            with ServerClient(port=handle.port) as client:
                return [
                    _reply(client.analyze(source, patch=True))
                    for source in sources * (2 if shared else 1)
                ]

        with BackgroundServer(PatchitPyServer(config=config("pool"))) as handle:
            pooled = replies(handle)
        server = PatchitPyServer(config=config("inline"))
        inline = MainThreadServer(server).run(replies)
        assert server.inline
        assert inline == pooled
        if shared:
            assert [r.get("from_cache", False) for r in inline] == [False] * len(
                sources
            ) + [True] * len(sources)
        counters = server.metrics.counters
        assert counters["server_inline_units"] >= len(inline) * 0.9, counters

    @pytest.mark.parametrize("shared", [False, True])
    def test_cut_units_answer_like_the_library(self, flat_samples, tmp_path, shared):
        """At a 100 µs switch interval the alarm cuts most units at some
        random point of their analysis; every reply still equals the
        in-process patch, and the server keeps answering."""
        engine = PatchitPy()
        sources = [s.source for s in flat_samples if engine.detect(s.source)][::4]
        expected = [
            ([f.to_dict() for f in engine.detect(source)], engine.patch(source).patched)
            for source in sources
        ]
        tier = str(tmp_path) if shared else None
        server = AlwaysInline(config=ServerConfig(port=0, shared_cache_dir=tier))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                got = [client.analyze(source, patch=True) for source in sources]
                if shared:  # every cut miss was re-run and published once
                    got += [client.analyze(source, patch=True) for source in sources]
                return got, client.healthz()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            got, health = MainThreadServer(server).run(body)
        finally:
            sys.setswitchinterval(interval)
        assert health["status"] == "ok" and health["inline"] is True
        assert [(r["findings"], r["patched_source"]) for r in got] == expected * (
            2 if shared else 1
        )
        if shared:
            assert all(r["from_cache"] for r in got[len(sources):])
        overruns = server.metrics.counters.get("server_inline_overruns", 0)
        assert overruns > len(sources) / 2, server.metrics.counters

    def test_a_deadline_shorter_than_the_budget_starts_no_pool_unit(
        self, monkeypatch
    ):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))
        submitted = _pool_submissions(monkeypatch, server)

        def body(handle):
            with ServerClient(port=handle.port) as client:
                started = time.monotonic()
                with pytest.raises(ServerError) as info:
                    client.analyze(VULN, deadline_ms=2)
                return info.value.status, time.monotonic() - started

        status, elapsed = MainThreadServer(server).run(body)
        assert status == 504 and elapsed < 0.5, elapsed
        assert submitted == []
        assert server.metrics.counters["server_inline_overruns"] == 1
        assert "server_inline_units" not in server.metrics.counters

    def test_a_batch_whose_deadline_runs_out_inline_is_504(self, monkeypatch):
        # AlwaysInline: the first batch's cuts would send the second's
        # items to the pool thread, as predicted overruns
        server = AlwaysInline(engine=SlowEngine(), config=ServerConfig(port=0))
        submitted = _pool_submissions(monkeypatch, server)

        def body(handle):
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.batch([VULN, SAFE, VULN], deadline_ms=2)
                lines = list(client.batch_stream([VULN, SAFE], deadline_ms=2))
                return info.value, lines, client.healthz()

        error, lines, health = MainThreadServer(server).run(body)
        assert error.status == 504
        assert error.payload["error"] == "batch of 3 missed its deadline of 2ms"
        errors = sorted((line["id"], line["error"]) for line in lines[:-1])
        assert errors == [(i, "batch item missed its deadline of 2ms") for i in (0, 1)]
        assert lines[-1]["done"] is True and lines[-1]["failed"] == 2
        assert submitted == [] and health["queued"] == 0
        assert server.metrics.counters["server_stream_deadline_drops"] == 2

    def test_a_cut_unit_leaves_no_tier_entry(self, tmp_path, monkeypatch):
        """The alarm covers the lookup and the analysis, never the
        write-through: a unit cut by its deadline publishes nothing, and
        a cut unit re-run on the pool misses, so the one publish is the
        re-run's."""
        publishers = []
        real_store = ResultStore.store

        def store(self, digest, findings):
            publishers.append(threading.current_thread() is threading.main_thread())
            return real_store(self, digest, findings)

        monkeypatch.setattr(ResultStore, "store", store)
        engine = StallingEngine(0.05)
        config = ServerConfig(port=0, shared_cache_dir=str(tmp_path))
        server = PatchitPyServer(engine=engine, config=config)
        expired, rerun = "x = eval(a)\n", "y = eval(b)\n"

        def body(handle):
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.analyze(expired, deadline_ms=2)
                assert info.value.status == 504
                return client.analyze(rerun)

        reply = MainThreadServer(server).run(body)
        sibling = ResultStore(tmp_path, engine.rules.fingerprint())
        assert sibling.lookup(hash_source(expired)) is None
        assert reply.get("from_cache", False) is False and reply["vulnerable"]
        assert sibling.lookup(hash_source(rerun)) is not None
        assert publishers == [False]  # one publish, from the pool thread
        assert server.metrics.counters["server_inline_overruns"] == 2

    def test_counts_show_in_metrics_statusz_and_healthz(self):
        server = PatchitPyServer(config=ServerConfig(port=0))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                client.analyze(VULN, patch=True)
                return client.metrics_text(), client.statusz(), client.healthz()

        # The budget is one switch interval. At the default 5 ms a busy
        # host can stretch the first patched analysis (2-3 ms alone) past
        # it, and a cut unit counts as an overrun, not as an inline unit.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.05)
        try:
            text, html, health = MainThreadServer(server).run(body)
        finally:
            sys.setswitchinterval(interval)
        assert "patchitpy_server_inline_units 1" in text
        assert "inline on" in html
        assert "1 unit(s) on the event loop" in html
        assert (health["inline"], health["pool"]) == (True, "thread")

    def test_sigalrm_is_taken_at_default_and_restored(self):
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
        hook = sys.unraisablehook
        server = PatchitPyServer(config=ServerConfig(port=0))
        during = MainThreadServer(server).run(
            lambda handle: (signal.getsignal(signal.SIGALRM), sys.unraisablehook)
        )
        assert server.inline and during == (server._on_alarm, server._unraisable)
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
        assert sys.unraisablehook is hook

    def test_a_cut_swallowed_by_a_finalizer_is_not_reported(self):
        """A tick that lands in a weakref callback is swallowed there and
        reaches the unraisable hook; the next tick cuts the unit, so the
        hook drops it and passes anything else on."""
        from repro.server.app import _Overrun

        server = PatchitPyServer(config=ServerConfig(port=0))
        reported = []
        server._unraisable_previous = reported.append
        swallowed = type("Unraisable", (), {"exc_value": _Overrun()})()
        other = type("Unraisable", (), {"exc_value": ValueError("x")})()
        server._unraisable(swallowed)
        server._unraisable(other)
        assert reported == [other]

    def test_an_embedders_sigalrm_handler_is_never_taken(self):
        def embedders(signum, frame):
            pass

        previous = signal.signal(signal.SIGALRM, embedders)
        try:
            server = PatchitPyServer(config=ServerConfig(port=0))

            def body(handle):
                with ServerClient(port=handle.port) as client:
                    return client.analyze(VULN), client.healthz()

            payload, health = MainThreadServer(server).run(body)
            assert signal.getsignal(signal.SIGALRM) is embedders
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert payload["vulnerable"] is True
        assert (health["inline"], health["pool"]) == (False, "thread")
        assert "server_inline_units" not in server.metrics.counters

    def test_more_than_one_job_keeps_the_process_pool(self):
        server = PatchitPyServer(config=ServerConfig(port=0, jobs=2))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                return client.healthz()

        health = MainThreadServer(server).run(body)
        assert (health["inline"], health["pool"]) == (False, "process")
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL

    def test_a_long_document_goes_straight_to_the_pool(self, flat_samples):
        """A unit longer than the budget covers at the estimated rate
        skips the inline attempt once the estimate has seen one cut."""
        document = "\n".join(s.source for s in flat_samples)[: 64 * 1024]
        server = PatchitPyServer(config=ServerConfig(port=0))

        def body(handle):
            with ServerClient(port=handle.port) as client:
                return [client.analyze(document, patch=True) for _ in range(3)]

        replies = MainThreadServer(server).run(body)
        expected = PatchitPy().patch(document).patched
        assert [r["patched_source"] for r in replies] == [expected] * 3
        counters = server.metrics.counters
        assert counters["server_inline_overruns"] == 1, counters
        assert counters["server_inline_skips"] == 2, counters


    def test_a_used_up_slice_is_no_estimate_skip(self):
        """A batch's items share one loop turn's slice.  At a 100 µs
        switch interval the first item uses it up, inline or cut; the
        rest go to the pool thread with no budget left, which the size
        estimate had no part in, so no skip is counted."""
        server = PatchitPyServer(config=ServerConfig(port=0))
        sources = [VULN, SAFE] * 4

        def body(handle):
            with ServerClient(port=handle.port) as client:
                return client.batch(sources, patch=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            reply = MainThreadServer(server).run(body)
        finally:
            sys.setswitchinterval(interval)
        engine = PatchitPy()
        assert [item["patched_source"] for item in reply["results"]] == [
            engine.patch(source).patched for source in sources
        ]
        counters = server.metrics.counters
        tried = counters.get("server_inline_units", 0) + counters.get(
            "server_inline_overruns", 0
        )
        assert tried == 1, counters
        assert counters.get("server_inline_skips", 0) == 0, counters


class TestMetricsParity:
    def test_server_metrics_match_inprocess_collector(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(VULN)
                text = client.metrics_text()
        collector = ScanMetrics()
        engine = PatchitPy(metrics=collector)
        engine.detect(VULN)
        # the same detect counters the CLI --metrics export would carry
        assert f"patchitpy_detect_calls {collector.counters['detect_calls']}" in text
        assert f"patchitpy_findings {collector.counters['findings']}" in text
        for rule_id in {f.rule_id for f in engine.detect(VULN)}:
            assert f'patchitpy_rule_matches{{rule="{rule_id}"}}' in text

    def test_metrics_carry_server_gauges(self, running_server):
        _, client = running_server
        text = client.metrics_text()
        assert "patchitpy_server_uptime_seconds" in text
        assert "patchitpy_server_queue_capacity" in text
        assert "# TYPE patchitpy_server_uptime_seconds gauge" in text

    def test_batch_metrics_accumulate_per_item(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                client.batch([VULN, VULN, SAFE])
        assert server.metrics.counters["detect_calls"] == 3


class TestProcessPool:
    def test_jobs_gt_one_uses_process_pool(self):
        server = PatchitPyServer(config=ServerConfig(port=0, jobs=2))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                health = client.healthz()
                payload = client.batch([VULN, SAFE, VULN, SAFE])
        assert health["pool"] == "process"
        assert [item["vulnerable"] for item in payload["results"]] == [
            True,
            False,
            True,
            False,
        ]

    def test_unpicklable_engine_falls_back_to_threads(self):
        engine = PatchitPy()
        engine.blocker = threading.Lock()  # unpicklable attribute
        server = PatchitPyServer(engine=engine, config=ServerConfig(port=0, jobs=2))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                assert client.healthz()["pool"] == "thread"
                assert client.analyze(VULN)["vulnerable"] is True


class TestSharedTier:
    """The shared snippet tier (``--shared-cache``) behind analyze/batch."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reply_means_every_sibling_can_hit_the_entry(self, tmp_path, jobs):
        """The write-through completes before the reply goes out: an
        independent store hits every digest right after, with no sleep
        and no poll — from a thread pool or from a process pool whose
        workers open their own store."""
        server = PatchitPyServer(
            config=ServerConfig(port=0, jobs=jobs, shared_cache_dir=str(tmp_path))
        )
        single = "cold_one = pickle.loads(raw)\n"
        items = [f"v{i} = eval(data{i})\n" for i in range(6)] + ["b = 2\n"]
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                sibling = ResultStore(tmp_path, server.engine.rules.fingerprint())
                cold = client.analyze(single)
                after_analyze = sibling.lookup(hash_source(single))
                batch = client.batch(items)
                after_batch = [sibling.lookup(hash_source(s)) for s in items]
        assert cold.get("from_cache", False) is False
        assert after_analyze is not None
        assert len(after_analyze.findings) == len(cold["findings"])
        assert batch["failed"] == 0
        assert not any(item.get("from_cache") for item in batch["results"])
        assert all(entry is not None for entry in after_batch)
        assert [len(entry.findings) for entry in after_batch] == [
            len(item["findings"]) for item in batch["results"]
        ]
        assert server._pool_kind == ("process" if jobs > 1 else "thread")

    def test_a_unit_is_one_pool_submission(self, tmp_path, monkeypatch):
        """Lookup, analysis on a miss and write-through run as one
        submission to the analysis pool; none goes to the default
        executor, for a miss or for a hit."""
        submissions = []
        real = asyncio.base_events.BaseEventLoop.run_in_executor

        def counting(loop, executor, func, *args):
            submissions.append(executor)
            return real(loop, executor, func, *args)

        monkeypatch.setattr(
            asyncio.base_events.BaseEventLoop, "run_in_executor", counting
        )
        server = PatchitPyServer(
            config=ServerConfig(port=0, shared_cache_dir=str(tmp_path))
        )
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                del submissions[:]
                miss = client.analyze(VULN, patch=True)
                after_miss = list(submissions)
                hit = client.analyze(VULN, patch=True)
        assert miss.get("from_cache", False) is False and hit["from_cache"] is True
        assert hit["patched_source"] == miss["patched_source"]
        assert after_miss == [server._pool]
        assert submissions == [server._pool, server._pool]

    def test_cache_phase_is_timed_and_logged(self, tmp_path, capfd):
        server = PatchitPyServer(
            config=ServerConfig(
                port=0, access_log=True, shared_cache_dir=str(tmp_path)
            )
        )
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(VULN, trace_id="cold-miss")
                warm = client.analyze(VULN, trace_id="warm-hit")
                text = client.metrics_text()
        assert warm["from_cache"] is True
        records = {
            record.get("trace_id"): record
            for record in (
                json.loads(line)
                for line in capfd.readouterr().err.splitlines()
                if line.startswith("{")
            )
        }
        for trace_id in ("cold-miss", "warm-hit"):
            record = records[trace_id]
            assert record["cache_ms"] > 0
            # queue_wait no longer absorbs the awaited write-through
            accounted = record["cache_ms"] + record["queue_wait_ms"]
            assert accounted <= record["handler_ms"] + 0.01
        assert 'patchitpy_phase_seconds_count{phase="cache"} 2' in text
        assert "patchitpy_snippet_cache_time_s" in text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_publish_is_counted_and_still_answers(self, tmp_path, jobs):
        engine = PatchitPy()
        # a file where the object directory belongs: every publish fails,
        # whatever the process's privileges
        ResultStore(tmp_path, engine.rules.fingerprint()).objects_dir.write_text("")
        server = PatchitPyServer(
            engine=engine,
            config=ServerConfig(port=0, jobs=jobs, shared_cache_dir=str(tmp_path)),
        )
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                result = client.analyze(VULN)
                text = client.metrics_text()
        assert result["vulnerable"] is True
        assert "patchitpy_snippet_cache_write_errors 1" in text
        assert server._pending == 0


class TestUnixSocket:
    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="platform lacks AF_UNIX"
    )
    def test_round_trip_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "patchitpy.sock")
        server = PatchitPyServer(config=ServerConfig(unix_socket=path))
        with BackgroundServer(server) as handle:
            assert handle.unix_socket == path
            with ServerClient(unix_socket=path) as client:
                assert client.healthz()["status"] == "ok"
                assert client.analyze(VULN)["vulnerable"] is True

    def test_client_requires_exactly_one_transport(self):
        with pytest.raises(ValueError):
            ServerClient(port=1, unix_socket="/tmp/x")
        with pytest.raises(ValueError):
            ServerClient()


class TestServeParser:
    def test_defaults_map_onto_config(self):
        args = build_serve_parser().parse_args([])
        config = config_from_args(args)
        assert config.host == "127.0.0.1"
        assert config.port == 8753
        assert config.jobs == 1
        assert config.queue_depth == 64
        assert config.default_deadline_ms == 30_000.0

    def test_flags_override_defaults(self):
        args = build_serve_parser().parse_args(
            ["--port", "0", "--jobs", "4", "--queue-depth", "8", "--deadline-ms", "0"]
        )
        config = config_from_args(args)
        assert config.port == 0
        assert config.jobs == 4
        assert config.queue_depth == 8
        assert config.default_deadline_ms == 0.0

    def test_cli_dispatches_serve_help(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["serve", "--help"])
        assert info.value.code == 0
        assert "queue-depth" in capsys.readouterr().out


class TestServerTransport:
    def test_language_server_over_http(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                ls = LanguageServer(engine=ServerTransport(client))
                published = ls.did_open("file:///gen.py", VULN)
                actions = ls.code_actions("file:///gen.py")
                local = LanguageServer()
                expected = local.did_open("file:///gen.py", VULN)
        assert published["diagnostics"] == expected["diagnostics"]
        assert len(actions) == 2, "quick fixes come back over the wire"
        assert actions == local.code_actions("file:///gen.py")

    def test_quick_fixes_over_a_daemon_match_in_process_on_the_corpus(
        self, running_server, flat_samples
    ):
        server, client = running_server
        sources = [
            sample.source
            for sample in flat_samples
            if any(f.fixable for f in server.engine.detect(sample.source))
        ][:48]
        assert len(sources) >= 40
        # identical matches share one identity, so one action over the wire too
        sources.append("import hashlib\na = hashlib.md5(x)\nb = hashlib.md5(y)\n")
        local = LanguageServer(engine=server.engine)
        remote = LanguageServer(engine=ServerTransport(client))
        for index, source in enumerate(sources):
            uri = f"file:///corpus/{index}.py"
            remote.did_open(uri, source)
            local.did_open(uri, source)
            assert remote.code_actions(uri) == local.code_actions(uri), uri

    def test_transport_patch_is_the_daemons_verified_patch(self, running_server):
        server, client = running_server
        key, findings = _pickle_key(server.engine)
        result = ServerTransport(client).patch(VULN, findings, exclude=frozenset([key]))
        expected = server.engine.patch(VULN, findings, exclude=frozenset([key]))
        assert result.patched == expected.patched
        assert result.verdicts == expected.verdicts
        assert not hasattr(ServerTransport, "render_patches")

    def test_transport_detect_rebuilds_findings(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                transport = ServerTransport(client)
                remote = transport.detect(VULN)
        local = PatchitPy().detect(VULN)
        assert remote == local  # Finding equality ignores provenance
