"""Tests for the persistent scan server (``repro.server``).

Every test runs a real :class:`~repro.server.PatchitPyServer` on a
loopback socket via :class:`~repro.server.BackgroundServer` and talks to
it with the stdlib :class:`~repro.server.ServerClient` — round-tripping
the actual HTTP framing, not calling handlers directly.
"""

from __future__ import annotations

import json
import socket
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


class TestEndpointRoundTrips:
    def test_healthz_reports_warm_engine(self, running_server):
        server, client = running_server
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["rules"] == len(server.engine.rules)
        assert health["pool"] == "thread"
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
    def test_deadline_expiry_is_504(self):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.analyze(VULN, deadline_ms=50)
                # the server survives the expiry and keeps answering
                assert client.healthz()["status"] == "ok"
        assert info.value.status == 504

    def test_generous_deadline_succeeds(self):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                payload = client.analyze(VULN, deadline_ms=30_000)
        assert payload["vulnerable"] is True

    def test_non_numeric_deadline_is_400(self, running_server):
        _, client = running_server
        with pytest.raises(ServerError) as info:
            client._request("POST", "/v1/analyze", {"source": SAFE, "deadline_ms": "soon"})
        assert info.value.status == 400


class TestGracefulDrain:
    def test_inflight_request_completes_during_drain(self):
        server = PatchitPyServer(engine=SlowEngine(), config=ServerConfig(port=0))
        handle = BackgroundServer(server).start()
        outcome = {}

        def slow_request():
            with ServerClient(port=handle.port) as client:
                outcome["payload"] = client.analyze(VULN)

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.15)  # the slow detect is now in flight
        handle.stop()  # SIGTERM path: drain, then stop
        worker.join(timeout=30)
        assert outcome["payload"]["vulnerable"] is True
        assert server.draining is True

    def test_draining_server_refuses_new_analysis(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(SAFE)
            server.draining = True  # simulate mid-drain arrival
            with ServerClient(port=handle.port) as client:
                with pytest.raises(ServerError) as info:
                    client.analyze(SAFE)
                health = client.healthz()
            server.draining = False
        assert info.value.status == 503
        assert health["status"] == "draining"

    def test_drain_closes_open_caches(self, tmp_path):
        (tmp_path / "bad.py").write_text(VULN)
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                client.scan(str(tmp_path))
            caches = list(server._caches.values())
        assert caches and all(cache.closed for cache in caches)
        # the persisted store makes the next cold scan warm
        reopened = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(reopened) as handle:
            with ServerClient(port=handle.port) as client:
                warm = client.scan(str(tmp_path))
        assert warm["cache_hits"] == 1


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

    def test_reply_means_every_sibling_can_hit_the_entry(self, tmp_path):
        """The write-through completes before the reply goes out: an
        independent store hits every digest right after, with no sleep
        and no poll."""
        server = PatchitPyServer(
            config=ServerConfig(port=0, shared_cache_dir=str(tmp_path))
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

    def test_failed_publish_is_counted_and_still_answers(self, tmp_path):
        engine = PatchitPy()
        # a file where the object directory belongs: every publish fails,
        # whatever the process's privileges
        ResultStore(tmp_path, engine.rules.fingerprint()).objects_dir.write_text("")
        server = PatchitPyServer(
            engine=engine, config=ServerConfig(port=0, shared_cache_dir=str(tmp_path))
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
        assert actions, "quick fixes come back over the wire"
        for action in actions:
            assert action["kind"] == "quickfix"
            assert action["edit"]["changes"]["file:///gen.py"]

    def test_transport_detect_rebuilds_findings(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                transport = ServerTransport(client)
                remote = transport.detect(VULN)
        local = PatchitPy().detect(VULN)
        assert remote == local  # Finding equality ignores provenance
