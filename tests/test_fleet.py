"""Tests for the sharded scan fleet (``repro.server.fleet`` / ``router``).

Two layers, matching the module split:

- pure-logic tests (plus hypothesis properties) on :class:`HashRing`
  and the token-bucket quota machinery — no processes involved;
- the router's forward on its event loop against in-process fake
  workers: every transport failure takes the mark-down and failover
  path, and an HTTP error status is passed through;
- the front door's own shared-tier answers, against the same fakes: it
  reads the tier only while every up worker reports one fingerprint,
  and forwards patch, trace and miss requests;
- end-to-end tests that run a real :class:`FleetRouter` supervising
  real daemon subprocesses via :class:`BackgroundFleet`, and drive it
  through the stdlib :class:`ServerClient` — including the two fleet
  acceptance drills: a worker killed mid-traffic with zero
  client-visible errors, and a cross-worker warm cache hit served from
  the shared tier — and front-door hits whose body is a worker hit's.

The subprocess fleet is expensive to boot (each worker warms a full
engine), so the end-to-end tests share one module-scoped fleet and a
separate test covers the kill/restart drill on its own fleet.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BackgroundFleet, FleetConfig, FleetRouter, ServerClient, ServerError
from repro.core.cache import ResultStore, hash_source
from repro.server.daemon import build_serve_parser
from repro.server.fleet import (
    _FRONT_DOOR_ENTRY_BYTES,
    FRONT_DOOR,
    FleetWorker,
    build_fleet_parser,
    config_from_args,
)
from repro.server.http11 import HttpError, Request, read_request
from repro.server.pipeline import pipeline_argv, pipeline_settings
from repro.server.router import (
    DEFAULT_TENANT,
    HashRing,
    OVERFLOW_TENANT,
    TenantQuotas,
    TokenBucket,
    tenant_label,
)

VULN = "data = pickle.loads(blob)\n"


# --------------------------------------------------------------- hash ring


class TestHashRing:
    def test_routes_deterministically(self):
        ring = HashRing(["w0", "w1", "w2"])
        assert ring.route("some-key") == ring.route("some-key")
        assert len(ring) == 3
        assert "w1" in ring and "w9" not in ring

    def test_empty_ring_routes_nowhere(self):
        assert HashRing().route("anything") is None

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(["w0"])
        assert not ring.add("w0")
        assert ring.add("w1")
        assert ring.remove("w1")
        assert not ring.remove("w1")
        assert ring.members == ("w0",)

    def test_exclude_walks_to_the_next_owner(self):
        ring = HashRing(["w0", "w1"])
        key = "k"
        owner = ring.route(key)
        other = ring.route(key, exclude={owner})
        assert other is not None and other != owner
        assert ring.route(key, exclude={"w0", "w1"}) is None

    def test_exclude_matches_permanent_rehash(self):
        # Failover target == where the key lands once the dead member is
        # actually removed, so a retried request and the steady state agree.
        ring = HashRing(["w0", "w1", "w2"])
        for i in range(50):
            key = f"key-{i}"
            owner = ring.route(key)
            failover = ring.route(key, exclude={owner})
            ring2 = HashRing(["w0", "w1", "w2"])
            ring2.remove(owner)
            assert failover == ring2.route(key)

    def test_distribution_is_not_degenerate(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        counts = {m: 0 for m in ring.members}
        for i in range(2000):
            counts[ring.route(f"key-{i}")] += 1
        # 64 virtual nodes won't be perfectly uniform, but every worker
        # must own a real share (no starved shard).
        assert min(counts.values()) > 2000 * 0.10

    @settings(max_examples=50, deadline=None)
    @given(
        members=st.sets(
            st.text(
                alphabet="abcdefghij0123456789", min_size=1, max_size=8
            ),
            min_size=2,
            max_size=6,
        ),
        keys=st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_removal_moves_only_the_removed_members_keys(
        self, members, keys, seed
    ):
        members = sorted(members)
        ring = HashRing(members)
        removed = members[seed % len(members)]
        before = {key: ring.route(key) for key in keys}
        ring.remove(removed)
        for key, owner in before.items():
            after = ring.route(key)
            if owner == removed:
                assert after != removed
            else:
                assert after == owner

    @settings(max_examples=50, deadline=None)
    @given(
        members=st.sets(
            st.text(
                alphabet="abcdefghij0123456789", min_size=1, max_size=8
            ),
            min_size=1,
            max_size=6,
        ),
        newcomer=st.text(alphabet="klmnopqrs", min_size=1, max_size=8),
        keys=st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=40),
    )
    def test_addition_moves_keys_only_onto_the_newcomer(
        self, members, newcomer, keys
    ):
        ring = HashRing(sorted(members))
        before = {key: ring.route(key) for key in keys}
        ring.add(newcomer)
        for key, owner in before.items():
            after = ring.route(key)
            assert after == owner or after == newcomer


# ------------------------------------------------------- quotas and tenants


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert bucket.take() and bucket.take()
        assert not bucket.take()
        now[0] = 1.0
        assert bucket.take()
        assert not bucket.take()

    def test_retry_after_reflects_the_deficit(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=lambda: now[0])
        for _ in range(4):
            assert bucket.take()
        assert bucket.retry_after_s() == pytest.approx(0.5)
        assert bucket.retry_after_s(4.0) == pytest.approx(2.0)
        # demands beyond burst are clamped to burst, not "never"
        assert bucket.retry_after_s(100.0) == pytest.approx(2.0)

    def test_zero_rate_advertises_a_minute(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=lambda: 0.0)
        assert bucket.take()
        assert bucket.retry_after_s() == 60.0


class TestTenantQuotas:
    def test_tenants_have_independent_buckets(self):
        now = [0.0]
        quotas = TenantQuotas(rate=1.0, burst=1.0, clock=lambda: now[0])
        ok_a, _, _ = quotas.admit("alice")
        ok_a2, retry, _ = quotas.admit("alice")
        ok_b, _, _ = quotas.admit("bob")
        assert ok_a and ok_b and not ok_a2
        assert retry >= 1.0
        assert quotas.snapshot_rejections() == {"alice": 1}

    def test_overflow_tenants_share_one_label(self):
        now = [0.0]
        quotas = TenantQuotas(
            rate=1.0, burst=1.0, max_tenants=2, clock=lambda: now[0]
        )
        assert quotas.admit("t0")[2] == "t0"
        assert quotas.admit("t1")[2] == "t1"
        # third distinct tenant lands in (and is throttled as) "other"
        assert quotas.admit("t2")[2] == OVERFLOW_TENANT
        assert quotas.admit("t3")[2] == OVERFLOW_TENANT
        admitted, _, label = quotas.admit("t4")
        assert label == OVERFLOW_TENANT and not admitted

    def test_tenant_label_validation(self):
        assert tenant_label("team-a.prod") == "team-a.prod"
        assert tenant_label(None) == DEFAULT_TENANT
        assert tenant_label("") == DEFAULT_TENANT
        assert tenant_label("bad tenant\n") == DEFAULT_TENANT
        assert tenant_label("x" * 65) == DEFAULT_TENANT


# ------------------------------------------------------------- CLI parser


class TestFleetParser:
    def test_defaults_map_onto_config(self):
        args = build_fleet_parser().parse_args([])
        cfg = config_from_args(args)
        assert cfg.workers == 2
        assert cfg.port == 8750
        assert cfg.tenant_rate == 50.0
        assert cfg.shared_cache_dir is None

    def test_floors_are_enforced(self):
        args = build_fleet_parser().parse_args(
            ["--workers", "0", "--jobs", "-3", "--tenant-burst", "0"]
        )
        cfg = config_from_args(args)
        assert cfg.workers == 1
        assert cfg.jobs == 1
        assert cfg.tenant_burst == 1.0

    def test_workers_get_the_pipeline_settings(self):
        args = build_fleet_parser().parse_args(
            ["--max-body-bytes", "4194304", "--window-slots", "0", "--access-log"]
        )
        assert pipeline_argv(config_from_args(args)) == [
            "--max-body-bytes", "4194304",
            "--drain-timeout-s", "10.0",
            "--access-log",
            "--window-interval-s", "5.0",
            "--window-slots", "1",
        ]
        flags = build_serve_parser().parse_args(pipeline_argv(config_from_args(args)))
        assert pipeline_settings(flags) == pipeline_settings(config_from_args(args))

    def test_cli_lists_fleet_subcommand(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        (subcommands,) = (
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "fleet" in subcommands.choices
        helptext = parser.format_help()
        assert "fleet" in helptext


# --------------------------------------------- forwarding on the event loop

GOOD_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 3\r\n\r\n{}\n"
)

#: How a fake worker answers a forwarded request: ``None`` stalls until
#: the router gives up, bytes are written as they are and the connection
#: closed.
WORKER_FAILURES = {
    "stalls": None,
    "closes without a reply": b"",
    "malformed status line": b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
    "no content-length": b"HTTP/1.1 200 OK\r\n\r\n{}",
    "body cut short": b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}",
}


async def _serve(reply):
    """A one-reply-per-request loopback peer (see ``WORKER_FAILURES``)."""

    async def handle(reader, writer):
        try:
            while await read_request(reader, 1 << 20, 5.0, 5.0) is not None:
                if reply is None:
                    await reader.read()  # until the router hangs up
                    break
                writer.write(reply)
                await writer.drain()
                if reply is not GOOD_REPLY:
                    break
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _forward_via(tmp_path, first_port: int, second_port: int):
    """Forward one request whose key the ring gives to w0 (at
    ``first_port``); w1 (at ``second_port``) is the failover."""
    router = FleetRouter(FleetConfig(port=0, workers=2, proxy_timeout_s=0.5))
    router._forwarding = asyncio.Semaphore(8)  # what start() makes
    for worker_id, port in (("w0", first_port), ("w1", second_port)):
        worker = FleetWorker(worker_id, router.config, tmp_path)
        worker.port, worker.state = port, "up"
        router.workers[worker_id] = worker
        router.ring.add(worker_id)
    key = next(f"k{i}" for i in range(1000) if router.ring.route(f"k{i}") == "w0")
    started = time.monotonic()
    try:
        result = await router._forward(key, "POST", "/v1/analyze", b"{}", {})
    finally:
        for worker in router.workers.values():
            await worker.close()
    return router, result, time.monotonic() - started


class TestForwardOnTheLoop:
    @pytest.mark.parametrize("failure", sorted(WORKER_FAILURES) + ["refuses"])
    def test_transport_failure_marks_down_and_fails_over(self, tmp_path, failure):
        async def go():
            good, good_port = await _serve(GOOD_REPLY)
            bad = None
            if failure == "refuses":
                bad_port = _closed_port()
            else:
                bad, bad_port = await _serve(WORKER_FAILURES[failure])
            try:
                return await _forward_via(tmp_path, bad_port, good_port)
            finally:
                for server in (good, bad):
                    if server is not None:
                        server.close()

        router, (status, content_type, raw, worker_id), elapsed = asyncio.run(go())
        assert (status, content_type, raw, worker_id) == (
            200, "application/json", b"{}\n", "w1"
        )
        assert router.workers["w0"].state == "down"
        assert router.workers["w0"].fail_reason == "request forwarding failed"
        assert router.metrics.counters["fleet_proxy_failures"] == 1
        assert router.workers["w1"].proxied == 1
        assert elapsed < 0.5 + 1.0  # the stall is cut at proxy_timeout_s

    def test_http_error_status_is_data_not_a_failover(self, tmp_path):
        error = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 3\r\n\r\n{}\n"

        async def go():
            failing, failing_port = await _serve(error)
            good, good_port = await _serve(GOOD_REPLY)
            try:
                return await _forward_via(tmp_path, failing_port, good_port)
            finally:
                failing.close()
                good.close()

        router, (status, _, raw, worker_id), _ = asyncio.run(go())
        assert (status, raw, worker_id) == (500, b"{}\n", "w0")
        assert router.workers["w0"].state == "up"
        assert "fleet_proxy_failures" not in router.metrics.counters

    def test_every_worker_failing_answers_503(self, tmp_path):
        async def go():
            return await _forward_via(tmp_path, _closed_port(), _closed_port())

        with pytest.raises(HttpError) as excinfo:
            asyncio.run(go())
        assert excinfo.value.status == 503


# ------------------------------------------- answers from the shared tier

#: The fingerprint the fake workers below report; the tier is written
#: under it.
TIER_FINGERPRINT = "a" * 64


async def _analyze_via_fakes(tmp_path, workers, body):
    """``/v1/analyze`` with ``body`` at a router whose workers are fakes
    answering ``GOOD_REPLY``; ``workers`` holds each one's ``(state,
    fingerprint)``.  The shared tier at ``tmp_path`` is the router's."""
    good, port = await _serve(GOOD_REPLY)
    router = FleetRouter(FleetConfig(port=0, workers=len(workers)))
    router._forwarding = asyncio.Semaphore(8)  # what start() makes
    router.shared_cache_dir = tmp_path
    for index, (state, fingerprint) in enumerate(workers):
        worker = FleetWorker(f"w{index}", router.config, tmp_path)
        worker.port, worker.state, worker.fingerprint = port, state, fingerprint
        router.workers[worker.worker_id] = worker
        if state == "up":
            router.ring.add(worker.worker_id)
    request = Request("POST", "/v1/analyze", {}, {}, json.dumps(body).encode())
    try:
        return router, await router._handle_analyze(request)
    finally:
        for worker in router.workers.values():
            await worker.close()
        good.close()


@pytest.fixture
def tier(tmp_path, engine):
    """A shared tier holding VULN's findings under ``TIER_FINGERPRINT``."""
    findings = engine.detect(VULN)
    assert findings
    assert ResultStore(tmp_path, TIER_FINGERPRINT).store(hash_source(VULN), findings)
    return tmp_path, findings


class TestFrontDoorTier:
    def test_agreeing_workers_let_the_front_door_answer(self, tier):
        tmp_path, findings = tier
        up = ("up", TIER_FINGERPRINT)
        router, response = asyncio.run(
            _analyze_via_fakes(tmp_path, [up, up], {"source": VULN})
        )
        assert response.headers["X-Fleet-Worker"] == FRONT_DOOR
        assert response.access == {"worker": FRONT_DOOR}
        body = json.loads(response.body)
        assert body.pop("duration_ms") >= 0
        assert body == {
            "vulnerable": True,
            "findings": [finding.to_dict() for finding in findings],
            "from_cache": True,
        }
        counters = router.metrics.counters
        for name in ("cache_hits", "snippet_cache_hits", "fleet_front_door_hits"):
            assert counters[name] == 1, name
        assert "cache_misses" not in counters  # the worker counts misses
        assert [w.proxied for w in router.workers.values()] == [0, 0]

    @pytest.mark.parametrize(
        "workers",
        [
            [("up", TIER_FINGERPRINT), ("up", "b" * 64)],  # rolling change
            [("up", TIER_FINGERPRINT), ("up", None)],  # not reported yet
            [("up", "b" * 64), ("down", TIER_FINGERPRINT)],  # another name
        ],
        ids=["disagree", "unreported", "other-fingerprint"],
    )
    def test_no_single_fingerprint_means_forward(self, tier, workers):
        tmp_path, _ = tier
        router, response = asyncio.run(
            _analyze_via_fakes(tmp_path, workers, {"source": VULN})
        )
        assert response.body == b"{}\n"  # the fake worker's answer
        assert response.headers["X-Fleet-Worker"] in {"w0", "w1"}
        assert "fleet_front_door_hits" not in router.metrics.counters

    def test_a_down_worker_does_not_veto(self, tier):
        tmp_path, _ = tier
        workers = [("up", TIER_FINGERPRINT), ("down", "b" * 64)]
        _, response = asyncio.run(
            _analyze_via_fakes(tmp_path, workers, {"source": VULN})
        )
        assert response.headers["X-Fleet-Worker"] == FRONT_DOOR

    @pytest.mark.parametrize(
        "body",
        [
            {"source": VULN, "patch": True},
            {"source": VULN, "trace": True},
            {"source": "never_stored = 1\n"},
        ],
        ids=["patch", "trace", "miss"],
    )
    def test_patch_trace_and_miss_are_forwarded(self, tier, body):
        tmp_path, _ = tier
        up = ("up", TIER_FINGERPRINT)
        router, response = asyncio.run(_analyze_via_fakes(tmp_path, [up, up], body))
        assert response.body == b"{}\n"
        assert sum(w.proxied for w in router.workers.values()) == 1
        assert "fleet_front_door_hits" not in router.metrics.counters

    def test_an_entry_over_the_bound_is_forwarded(self, tier, engine):
        """A hit holds the router's loop for a bounded time: an entry
        with more findings than the bound allows is decoded by a worker."""
        tmp_path, findings = tier
        source = "many_findings = 1\n"
        store = ResultStore(tmp_path, TIER_FINGERPRINT)
        assert store.store(hash_source(source), findings * 200)
        assert Path(store.path_for(hash_source(source))).stat().st_size > (
            _FRONT_DOOR_ENTRY_BYTES
        )
        up = ("up", TIER_FINGERPRINT)
        router, response = asyncio.run(
            _analyze_via_fakes(tmp_path, [up, up], {"source": source})
        )
        assert response.body == b"{}\n"
        assert sum(w.proxied for w in router.workers.values()) == 1
        assert "fleet_front_door_hits" not in router.metrics.counters

    def test_no_worker_up_is_503_not_a_hit(self, tier):
        tmp_path, _ = tier
        down = ("down", TIER_FINGERPRINT)
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(_analyze_via_fakes(tmp_path, [down, down], {"source": VULN}))
        assert excinfo.value.status == 503


# ----------------------------------------------------------- live fleet


@pytest.fixture(scope="module")
def running_fleet():
    """One shared 2-worker fleet for the read-mostly round-trip tests."""
    config = FleetConfig(
        port=0,
        workers=2,
        tenant_rate=10_000.0,
        tenant_burst=10_000.0,
        health_interval_s=0.2,
        restart_backoff_s=0.2,
        max_body_bytes=4 * 1024 * 1024,
    )
    router = FleetRouter(config)
    with BackgroundFleet(router) as fleet:
        with ServerClient(port=fleet.port) as client:
            yield router, client


class TestFleetRoundTrips:
    def test_healthz_reports_the_worker_table(self, running_fleet):
        router, client = running_fleet
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["role"] == "fleet"
        assert doc["workers"] == 2 and doc["workers_up"] == 2
        states = {row["id"]: row["state"] for row in doc["worker_table"]}
        assert states == {"w0": "up", "w1": "up"}

    def test_analyze_round_trips_through_a_worker(self, running_fleet):
        router, client = running_fleet
        result = client.analyze(VULN)
        assert result["vulnerable"] is True
        assert result["findings"]

    def test_analyze_repeat_is_a_cache_hit(self, running_fleet):
        router, client = running_fleet
        source = "repeat_hit = pickle.loads(raw)\n"
        cold = client.analyze(source)
        warm = client.analyze(source)
        assert cold.get("from_cache", False) is False
        assert warm.get("from_cache") is True
        assert warm["findings"] == cold["findings"]

    def test_batch_fans_out_and_keeps_ids(self, running_fleet):
        router, client = running_fleet
        sources = [f"v{i} = eval(data{i})" for i in range(6)] + ["x = 1\n"]
        result = client.batch(sources)
        assert result["count"] == 7 and result["failed"] == 0
        by_id = {entry["id"]: entry for entry in result["results"]}
        assert sorted(by_id) == list(range(7))
        assert by_id[0]["vulnerable"] is True
        assert by_id[6]["vulnerable"] is False
        # per-digest routing spread the batch over both workers
        proxied = [row["proxied"] for row in router.worker_table()]
        assert all(count > 0 for count in proxied)

    def test_batch_stream_yields_items_then_summary(self, running_fleet):
        router, client = running_fleet
        lines = list(client.batch_stream(["a = eval(x)", "b = 2\n"]))
        summary = lines[-1]
        assert summary["done"] is True
        assert summary["count"] == 2 and summary["failed"] == 0
        ids = {line["id"] for line in lines[:-1]}
        assert ids == {0, 1}

    def test_a_body_past_the_default_limit_reaches_a_worker(self, running_fleet):
        """The workers take the fleet's 4 MiB body limit: a 3 MiB review
        gets the worker's 400 for its missing root, not a 413."""
        router, client = running_fleet
        with pytest.raises(ServerError) as excinfo:
            client.review("/no/such/directory/anywhere", diff="x" * (3 * 1024 * 1024))
        assert excinfo.value.status == 400
        assert "not a directory" in excinfo.value.payload["error"]

    def test_worker_errors_pass_through_verbatim(self, running_fleet):
        router, client = running_fleet
        with pytest.raises(ServerError) as excinfo:
            client.analyze(source=None)  # type: ignore[arg-type]
        assert excinfo.value.status == 400

    def test_unknown_route_is_404_and_wrong_method_405(self, running_fleet):
        router, client = running_fleet
        status, _, _ = client.forward("GET", "/nope")
        assert status == 404
        status, _, _ = client.forward("GET", "/v1/analyze")
        assert status == 405

    def test_metrics_merges_workers_and_adds_fleet_families(self, running_fleet):
        router, client = running_fleet
        client.analyze("m = pickle.loads(metrics_probe)\n")
        text = client.metrics_text()
        # worker-side families survived the merge
        assert "patchitpy_server_requests" in text
        assert "patchitpy_detect_time_s" in text
        # router-side families and labeled series are appended
        assert "patchitpy_fleet_requests" in text
        assert 'patchitpy_fleet_worker_up{worker="w0"} 1' in text
        assert 'patchitpy_fleet_worker_up{worker="w1"} 1' in text
        assert "patchitpy_fleet_worker_proxied_total" in text
        assert "patchitpy_fleet_workers_up 2" in text

    def test_statusz_renders_the_fleet_page(self, running_fleet):
        router, client = running_fleet
        html = client.statusz()
        assert "patchitpy fleet" in html
        assert "w0" in html and "w1" in html
        assert "/metrics" in html

    def test_fleet_worker_header_names_the_shard(self, running_fleet):
        router, client = running_fleet
        source = "hdr = pickle.loads(blob)\n"
        expected = router.ring.route(hash_source(source))
        conn_status, _, _ = client.forward(
            "POST",
            "/v1/analyze",
            body=json.dumps({"source": source}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert conn_status == 200
        # route() is deterministic, so the ring names the serving shard
        assert expected in {"w0", "w1"}


def _post(port, path, payload):
    """One raw POST: ``(status, response headers, decoded body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), json.loads(response.read())
    finally:
        conn.close()


def _proxied(router) -> int:
    return sum(row["proxied"] for row in router.worker_table())


def _without_duration(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if key != "duration_ms"}


class TestFrontDoorHits:
    def test_hit_body_is_the_worker_hit_body_on_the_corpus(
        self, running_fleet, flat_samples, engine
    ):
        router, client = running_fleet
        with_findings = [s.source for s in flat_samples if engine.detect(s.source)]
        without = [s.source for s in flat_samples if not engine.detect(s.source)]
        assert with_findings and without
        sources = with_findings[:6] + without[:3]
        port = router.port
        for source in sources:
            status, headers, cold = _post(port, "/v1/analyze", {"source": source})
            assert status == 200 and headers["X-Fleet-Worker"] in router.workers
            if cold.get("from_cache"):
                continue  # an earlier sample with the same text wrote it
            # a worker asked directly gives its own hit on the stored entry
            worker = router.workers[headers["X-Fleet-Worker"]]
            with ServerClient(port=worker.port) as direct:
                at_worker = direct.analyze(source)
            status, headers, at_front = _post(port, "/v1/analyze", {"source": source})
            assert status == 200 and headers["X-Fleet-Worker"] == FRONT_DOOR
            assert at_worker["from_cache"] is True
            assert _without_duration(at_front) == _without_duration(at_worker)
            assert at_front["findings"] == cold["findings"]

    def test_patch_trace_miss_and_batch_misses_are_forwarded(self, running_fleet):
        router, client = running_fleet
        hot = "forward_probe = pickle.loads(blob)\n"
        client.analyze(hot)  # written through
        hits = router.metrics.counters.get("fleet_front_door_hits", 0)
        proxied = _proxied(router)
        assert client.analyze(hot)["from_cache"] is True
        assert _proxied(router) == proxied
        for options in ({"patch": True}, {"trace": True}):
            reply = client.analyze(hot, **options)
            assert reply["findings"]
            assert _proxied(router) == proxied + 1, options
            proxied += 1
        assert "from_cache" not in client.analyze("forward_miss = eval(x)\n")
        assert _proxied(router) == proxied + 1
        proxied += 1
        # a batch answers its held items at the front door, forwards the rest
        batch = client.batch([hot, "forward_batch_0 = eval(a)", "forward_batch_1 = 1"])
        assert batch["failed"] == 0
        assert [line.get("from_cache", False) for line in batch["results"]] == [
            True, False, False,
        ]
        assert _proxied(router) == proxied + 2
        proxied += 2
        patched = client.batch([hot], patch=True)
        assert patched["results"][0]["patched_source"] != hot
        assert _proxied(router) == proxied + 1
        assert router.metrics.counters["fleet_front_door_hits"] == hits + 2

    def test_a_truncated_entry_is_forwarded_and_repaired(self, running_fleet):
        router, client = running_fleet
        source = "truncated_probe = pickle.loads(blob)\n"
        cold = client.analyze(source)
        store = router._tier_store()
        assert store is not None
        entry = Path(store.path_for(hash_source(source)))
        whole = entry.read_bytes()
        entry.write_bytes(whole[: len(whole) // 2])
        proxied = _proxied(router)
        status, headers, repaired = _post(router.port, "/v1/analyze", {"source": source})
        assert status == 200 and headers["X-Fleet-Worker"] in router.workers
        assert _proxied(router) == proxied + 1
        assert "from_cache" not in repaired  # the worker re-analyzed it
        assert repaired["findings"] == cold["findings"]
        assert entry.read_bytes() == whole  # and wrote it through again
        status, headers, hit = _post(router.port, "/v1/analyze", {"source": source})
        assert headers["X-Fleet-Worker"] == FRONT_DOOR and hit["from_cache"] is True

    def test_a_large_entry_is_answered_by_a_worker(self, running_fleet):
        router, client = running_fleet
        source = "".join(f"large_{i} = pickle.loads(blob)\n" for i in range(60))
        cold = client.analyze(source)
        store = router._tier_store()
        assert store is not None
        size = Path(store.path_for(hash_source(source))).stat().st_size
        assert size > _FRONT_DOOR_ENTRY_BYTES
        proxied = _proxied(router)
        status, headers, hit = _post(router.port, "/v1/analyze", {"source": source})
        assert status == 200 and headers["X-Fleet-Worker"] in router.workers
        assert _proxied(router) == proxied + 1
        assert hit["from_cache"] is True and hit["findings"] == cold["findings"]

    def test_front_door_hits_reach_merged_metrics(self, running_fleet):
        router, client = running_fleet
        source = "metrics_hit = pickle.loads(blob)\n"
        client.analyze(source)
        assert client.analyze(source)["from_cache"] is True
        text = client.metrics_text()
        assert "patchitpy_fleet_front_door_hits" in text
        assert "Cache (lifetime)" in client.statusz()


class TestFleetQuotas:
    def test_quota_exhaustion_answers_429_with_tenant_metrics(self):
        config = FleetConfig(
            port=0,
            workers=1,
            tenant_rate=0.0,  # no refill: the burst is the whole budget
            tenant_burst=2.0,
            health_interval_s=0.2,
        )
        router = FleetRouter(config)
        with BackgroundFleet(router) as fleet:
            with ServerClient(port=fleet.port, tenant="team-a") as client:
                assert client.analyze("x = 1\n")["vulnerable"] is False
                assert "vulnerable" in client.analyze("y = 2\n")
                with pytest.raises(ServerError) as excinfo:
                    client.analyze("z = 3\n")
                assert excinfo.value.status == 429
                assert "team-a" in str(excinfo.value.payload.get("error", ""))
                text = client.metrics_text()
                assert (
                    'patchitpy_fleet_quota_rejections_total{tenant="team-a"} 1'
                    in text
                )
                # anonymous traffic has its own untouched bucket
                with ServerClient(port=fleet.port) as anon:
                    assert "vulnerable" in anon.analyze("w = 4\n")

    def test_batch_debits_one_token_per_item(self):
        config = FleetConfig(
            port=0,
            workers=1,
            tenant_rate=0.0,
            tenant_burst=3.0,
            health_interval_s=0.2,
        )
        with BackgroundFleet(FleetRouter(config)) as fleet:
            with ServerClient(port=fleet.port, tenant="bulk") as client:
                with pytest.raises(ServerError) as excinfo:
                    client.batch(["a = 1\n"] * 4)
                assert excinfo.value.status == 429
                result = client.batch(["b = 2\n"] * 3)
                assert result["count"] == 3


class TestFleetFailover:
    def test_worker_kill_rehashes_with_zero_client_errors(self):
        """The headline drill: kill a worker mid-traffic; every client
        request still succeeds, the survivor serves the dead worker's
        snippets from the shared cache tier, and the supervisor brings
        the worker back."""
        config = FleetConfig(
            port=0,
            workers=2,
            tenant_rate=10_000.0,
            tenant_burst=10_000.0,
            health_interval_s=0.2,
            restart_backoff_s=0.2,
        )
        router = FleetRouter(config)
        with BackgroundFleet(router) as fleet:
            with ServerClient(port=fleet.port) as client:
                probe = "victim_owned = pickle.loads(wire_bytes)\n"
                owner = router.ring.route(hash_source(probe))
                cold = client.analyze(probe)
                assert cold["findings"]
                assert cold.get("from_cache", False) is False

                victim = router.workers[owner]
                assert victim.process is not None
                victim.process.kill()

                # Immediately re-request, patched so that the front door
                # cannot answer it from the tier: the router must fail
                # over to the survivor without surfacing any error to the
                # client...
                failover = client.analyze(probe, patch=True)
                assert failover["findings"] == cold["findings"]
                # ...and the survivor serves bytes it never scanned itself
                # as a warm hit from the shared tier.
                assert failover.get("from_cache") is True

                # a batch spanning both shards also fully succeeds
                batch = client.batch(
                    [probe] + [f"k{i} = eval(v{i})" for i in range(4)]
                )
                assert batch["failed"] == 0

                # the supervisor restarts the victim with backoff
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if router.workers[owner].state == "up":
                        break
                    time.sleep(0.2)
                assert router.workers[owner].state == "up"
                assert router.workers[owner].restarts >= 1
                assert client.healthz()["workers_up"] == 2

                text = client.metrics_text()
                assert "patchitpy_fleet_proxy_failures" in text
                assert "patchitpy_fleet_worker_restarts_total" in text

    def test_all_workers_dead_answers_503_with_retry_after(self):
        config = FleetConfig(
            port=0,
            workers=1,
            tenant_rate=10_000.0,
            tenant_burst=10_000.0,
            health_interval_s=0.2,
            restart_backoff_s=5.0,  # keep it down for the duration
        )
        router = FleetRouter(config)
        with BackgroundFleet(router) as fleet:
            with ServerClient(port=fleet.port) as client:
                held = "held = pickle.loads(blob)\n"
                client.analyze(held)  # in the shared tier now
                assert client.analyze(held)["from_cache"] is True
                worker = router.workers["w0"]
                assert worker.process is not None
                worker.process.kill()
                with pytest.raises(ServerError) as excinfo:
                    client.analyze("x = 1\n")
                assert excinfo.value.status == 503
                # with no worker up, the front door answers nothing itself
                assert router.workers["w0"].state == "down"
                with pytest.raises(ServerError) as excinfo:
                    client.analyze(held)
                assert excinfo.value.status == 503


class TestForwardingBound:
    def test_wide_batch_never_overruns_a_worker_queue(self):
        """Forwards in flight stay bounded at max(8, 4 x workers): a
        40-item batch against queue_depth=8 workers answers every item,
        streamed or not, instead of shedding the overflow with 429."""
        config = FleetConfig(
            port=0,
            workers=2,
            queue_depth=8,
            tenant_rate=10_000.0,
            tenant_burst=10_000.0,
            health_interval_s=0.2,
        )
        plain = [f"wide_{i} = pickle.loads(blob_{i})\n" for i in range(40)]
        streamed = [f"streamed_{i} = pickle.loads(blob_{i})\n" for i in range(40)]
        with BackgroundFleet(FleetRouter(config)) as fleet:
            with ServerClient(port=fleet.port) as client:
                reply = client.batch(plain)
                lines = list(client.batch_stream(streamed))
        errors = [line for line in reply["results"] if "error" in line]
        assert reply["count"] == 40 and reply["failed"] == 0, errors[:3]
        summary = lines[-1]
        errors = [line for line in lines[:-1] if "error" in line]
        assert summary["count"] == 40 and summary["failed"] == 0, errors[:3]

    def test_routing_starts_no_proxy_thread(self, running_fleet, tmp_path):
        router, client = running_fleet
        (tmp_path / "app.py").write_text(VULN)
        client.analyze("threadless = pickle.loads(raw)\n")
        client.batch([f"t{i} = eval(x{i})" for i in range(4)])
        client.scan(str(tmp_path))
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("fleet-proxy")], names
