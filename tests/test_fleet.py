"""Tests for the sharded scan fleet (``repro.server.fleet`` / ``router``).

Two layers, matching the module split:

- pure-logic tests (plus hypothesis properties) on :class:`HashRing`
  and the token-bucket quota machinery — no processes involved;
- end-to-end tests that run a real :class:`FleetRouter` supervising
  real daemon subprocesses via :class:`BackgroundFleet`, and drive it
  through the stdlib :class:`ServerClient` — including the two fleet
  acceptance drills: a worker killed mid-traffic with zero
  client-visible errors, and a cross-worker warm cache hit served from
  the shared tier.

The subprocess fleet is expensive to boot (each worker warms a full
engine), so the end-to-end tests share one module-scoped fleet and a
separate test covers the kill/restart drill on its own fleet.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BackgroundFleet, FleetConfig, FleetRouter, ServerClient, ServerError
from repro.core.cache import hash_source
from repro.server.fleet import build_fleet_parser, config_from_args
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

                # Immediately re-request: the router must fail over to the
                # survivor without surfacing any error to the client...
                failover = client.analyze(probe)
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
                worker = router.workers["w0"]
                assert worker.process is not None
                worker.process.kill()
                with pytest.raises(ServerError) as excinfo:
                    client.analyze("x = 1\n")
                assert excinfo.value.status == 503
