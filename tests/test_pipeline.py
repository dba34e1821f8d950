"""Tests for the request pipeline the daemon and the fleet share.

``repro.server.pipeline`` runs the connection loop, trace ids,
dispatch, accounting, the access log and the body checks for both
``patchitpy serve`` and the ``patchitpy fleet`` front door.  These tests
pin what sharing it buys on the wire:

- the same malformed body gets the same status and the same ``error``
  text from a daemon and from a fleet;
- the trace id a fleet answers with is the one its worker logs, and
  each front-door request leaves one access-log line naming its worker;
- a fleet batch is validated in full before it spends tenant quota;
- a ``/v1/scan`` ``jobs`` that is not an integer is a 400, not a 500.
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path

import pytest

from repro import (
    BackgroundFleet,
    BackgroundServer,
    FleetConfig,
    FleetRouter,
    PatchitPyServer,
    ServerClient,
    ServerConfig,
    ServerError,
)

SNIPPET = "data = pickle.loads(blob)\n"


def _exchange(port, method, path, body=None, headers=None):
    """One raw round trip: ``(status, response headers, decoded body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), json.loads(raw or b"{}")
    finally:
        conn.close()


@pytest.fixture(scope="module")
def daemon():
    server = PatchitPyServer(config=ServerConfig(port=0))
    with BackgroundServer(server) as handle:
        yield server, handle.port


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A 1-worker fleet logging at the front door and in the worker."""
    run_dir = tmp_path_factory.mktemp("fleet-run")
    config = FleetConfig(
        port=0,
        workers=1,
        run_dir=str(run_dir),
        access_log=True,
        tenant_rate=10_000.0,
        tenant_burst=10_000.0,
        health_interval_s=0.2,
    )
    with BackgroundFleet(FleetRouter(config)) as handle:
        yield run_dir, handle.port


def _worker_log_records(run_dir: Path, worker: str, trace_id: str, count: int):
    """The worker's access-log records for ``trace_id``, once ``count`` landed."""
    log = run_dir / f"{worker}.log"
    deadline = time.monotonic() + 10
    while True:
        records = [
            json.loads(line)
            for line in log.read_text(encoding="utf-8").splitlines()
            if line.startswith("{")
        ]
        mine = [r for r in records if r.get("trace_id") == trace_id]
        if len(mine) >= count or time.monotonic() > deadline:
            return mine
        time.sleep(0.05)


class TestWireParity:
    def test_same_malformed_bodies_get_the_same_answer(self, daemon, fleet, tmp_path):
        _, daemon_port = daemon
        _, fleet_port = fleet
        root = str(tmp_path)
        cases = [
            ("POST", "/v1/analyze", {"source": 5}, 400),
            ("POST", "/v1/analyze", [1, 2], 400),
            ("POST", "/v1/analyze", b"{not json", 400),
            ("POST", "/v1/analyze", {"source": SNIPPET, "deadline_ms": "soon"}, 400),
            ("POST", "/v1/batch", {"items": []}, 400),
            ("POST", "/v1/batch", {"items": ["x = 1\n"]}, 400),
            ("POST", "/v1/batch", {"items": [{"id": 1}]}, 400),
            (
                "POST",
                "/v1/batch",
                {"items": [{"source": SNIPPET}], "deadline_ms": "soon"},
                400,
            ),
            ("POST", "/v1/scan", {"root": ""}, 400),
            ("POST", "/v1/scan", {"root": root, "jobs": "x"}, 400),
            ("POST", "/v1/review", {"root": root}, 400),
            ("GET", "/v1/nope", None, 404),
            ("GET", "/v1/analyze", None, 405),
        ]
        for method, path, body, status in cases:
            raw = body if isinstance(body, bytes) or body is None else json.dumps(body)
            answers = [
                _exchange(port, method, path, raw)[::2]
                for port in (daemon_port, fleet_port)
            ]
            (daemon_status, daemon_doc), (fleet_status, fleet_doc) = answers
            where = f"{method} {path} {body!r}"
            assert daemon_status == fleet_status == status, where
            assert daemon_doc["error"] == fleet_doc["error"], where


class TestFleetTraceIds:
    def test_generated_trace_id_reaches_the_worker_log(self, fleet):
        run_dir, port = fleet
        status, headers, _ = _exchange(
            port, "POST", "/v1/analyze", json.dumps({"source": SNIPPET})
        )
        assert status == 200
        trace_id = headers["X-Patchitpy-Trace-Id"]
        records = _worker_log_records(run_dir, headers["X-Fleet-Worker"], trace_id, 1)
        assert [r["path"] for r in records] == ["/v1/analyze"]

    def test_every_batch_item_carries_the_trace_id(self, fleet):
        run_dir, port = fleet
        items = [{"source": f"v{i} = eval(data{i})\n"} for i in range(2)]
        status, headers, doc = _exchange(
            port, "POST", "/v1/batch", json.dumps({"items": items})
        )
        assert status == 200 and doc["failed"] == 0
        trace_id = headers["X-Patchitpy-Trace-Id"]
        records = _worker_log_records(run_dir, "w0", trace_id, 2)
        assert [r["path"] for r in records] == ["/v1/analyze"] * 2

    def test_front_door_logs_one_line_per_request(self, fleet, capfd):
        _, port = fleet
        capfd.readouterr()  # drop lines logged before this test
        _, headers, _ = _exchange(
            port,
            "POST",
            "/v1/analyze",
            json.dumps({"source": SNIPPET}),
            {"X-Trace-Id": "front-door.1"},
        )
        assert headers["X-Patchitpy-Trace-Id"] == "front-door.1"
        lines = [
            json.loads(line)
            for line in capfd.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        mine = [r for r in lines if r.get("trace_id") == "front-door.1"]
        assert len(mine) == 1
        assert mine[0]["path"] == "/v1/analyze" and mine[0]["status"] == 200
        assert mine[0]["worker"] == headers["X-Fleet-Worker"]


class TestFleetBatchQuota:
    def test_rejected_batches_spend_no_quota(self):
        config = FleetConfig(
            port=0,
            workers=1,
            tenant_rate=0.0,  # no refill: the burst is the whole budget
            tenant_burst=3.0,
            health_interval_s=0.2,
        )
        bad_item = {"items": [{"source": "a = 1\n"}, {"id": 9}, {"source": "b = 2\n"}]}
        bad_deadline = {
            "items": [{"source": "c = 3\n"}] * 3,
            "deadline_ms": "soon",
        }
        with BackgroundFleet(FleetRouter(config)) as handle:
            with ServerClient(port=handle.port, tenant="bulk") as client:
                for body in (bad_item, bad_deadline):
                    with pytest.raises(ServerError) as excinfo:
                        client._request("POST", "/v1/batch", body)
                    assert excinfo.value.status == 400
                result = client.batch(["d = 4\n"] * 3)
        assert result["count"] == 3 and result["failed"] == 0


class TestScanJobs:
    def test_jobs_must_be_an_integer(self, daemon, tmp_path):
        server, port = daemon
        (tmp_path / "app.py").write_text(SNIPPET)
        root = json.dumps(str(tmp_path)).encode()
        before = server.metrics.counters.get("server_responses_5xx", 0)
        for jobs in (b'"x"', b"null", b"[1]", b"1e400"):
            body = b'{"root": %s, "jobs": %s}' % (root, jobs)
            status, _, doc = _exchange(port, "POST", "/v1/scan", body)
            assert (status, doc["error"]) == (400, "jobs must be an integer"), jobs
        assert server.metrics.counters.get("server_responses_5xx", 0) == before
        # integers and numeric strings keep their coercion
        body = b'{"root": %s, "jobs": "2", "use_cache": false}' % root
        status, _, doc = _exchange(port, "POST", "/v1/scan", body)
        assert status == 200 and doc["files_scanned"] == 1
