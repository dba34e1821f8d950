"""HTTP/1.1 framing (``repro.server.http11``), server and client side.

A request gets two deadlines: ``idle_timeout_s`` for its first line and
one ``io_timeout_s`` for everything after it.  These tests drive the
parser directly over an in-memory stream, and the shared connection
loop (:class:`~repro.server.pipeline.Pipeline`, which the daemon and the
fleet front door both run) over a real socket.  The client side
(:func:`~repro.server.http11.read_response`, which the fleet router's
forwards read worker replies with) must turn every reply it cannot use
into the router's failover error class, within the exchange's deadline,
and never hand back a partial body.
"""

from __future__ import annotations

import asyncio
import select
import socket
import time
from dataclasses import dataclass

import pytest

from repro.server.fleet import _PROXY_ERRORS, FleetConfig, FleetWorker
from repro.server.http11 import (
    MAX_HEADER_BYTES,
    HttpError,
    Response,
    UpstreamError,
    read_request,
    read_response,
    write_request,
    write_response,
)
from repro.server.pipeline import Background, Pipeline

REQUEST = (
    b"POST /v1/analyze HTTP/1.1\r\n"
    b"Host: localhost\r\n"
    b"Content-Type: application/json\r\n"
    b"X-Trace-Id: abc\r\n"
    b"Content-Length: 13\r\n"
    b"\r\n"
    b'{"source": 1}'
)


def _run(coro):
    return asyncio.run(coro)


async def _trickle(reader: asyncio.StreamReader, chunks, interval_s: float) -> None:
    for chunk in chunks:
        reader.feed_data(chunk)
        await asyncio.sleep(interval_s)


async def _read_while_feeding(chunks, interval_s, idle_timeout_s=5.0, io_timeout_s=0.5):
    """``read_request`` against a stream fed ``chunks`` at ``interval_s``;
    returns ``(outcome, elapsed_s)`` where outcome is the request, None,
    or the raised :class:`HttpError`."""
    reader = asyncio.StreamReader()
    feeder = asyncio.ensure_future(_trickle(reader, chunks, interval_s))
    started = time.monotonic()
    try:
        outcome = await read_request(reader, 1024, idle_timeout_s, io_timeout_s)
    except HttpError as error:
        outcome = error
    elapsed = time.monotonic() - started
    feeder.cancel()
    await asyncio.gather(feeder, return_exceptions=True)
    return outcome, elapsed


class TestReadDeadlines:
    def test_buffered_request_parses(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(REQUEST)
            reader.feed_eof()
            return await read_request(reader, 1024, 5.0, 5.0)

        request = _run(go())
        assert request.method == "POST" and request.path == "/v1/analyze"
        assert request.headers["x-trace-id"] == "abc"
        assert request.body == b'{"source": 1}'

    def test_trickled_headers_hit_one_deadline(self):
        # One header line every 0.15 s, each well inside io_timeout_s:
        # a per-line timeout would wait for all 20 (3 s); the request's
        # single deadline answers 408 after about 0.5 s.
        head = [b"GET /healthz HTTP/1.1\r\n"] + [b"X-Drip: 1\r\n"] * 20
        outcome, elapsed = _run(_read_while_feeding(head, 0.15, io_timeout_s=0.5))
        assert isinstance(outcome, HttpError), outcome
        assert outcome.status == 408
        assert outcome.detail == "timed out reading request headers"
        assert elapsed < 1.5

    def test_stalled_body_answers_408(self):
        chunks = [b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 10\r\n\r\n", b"{\"s"]
        outcome, elapsed = _run(_read_while_feeding(chunks, 0.05, io_timeout_s=0.3))
        assert isinstance(outcome, HttpError), outcome
        assert outcome.status == 408
        assert outcome.detail == "timed out reading request body"
        assert elapsed < 1.5

    def test_trickled_body_hits_the_same_deadline(self):
        chunks = [b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 40\r\n\r\n"]
        chunks += [b"x"] * 40
        outcome, _ = _run(_read_while_feeding(chunks, 0.05, io_timeout_s=0.5))
        assert isinstance(outcome, HttpError) and outcome.status == 408
        assert outcome.detail == "timed out reading request body"

    def test_idle_connection_closes_silently(self):
        outcome, elapsed = _run(_read_while_feeding([], 0.0, idle_timeout_s=0.2))
        assert outcome is None
        assert elapsed < 1.5

    def test_bare_crlf_then_silence_closes_silently(self):
        outcome, _ = _run(_read_while_feeding([b"\r\n"], 0.0, io_timeout_s=0.2))
        assert outcome is None

    def test_limits_keep_their_answers(self):
        async def parse(raw: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            try:
                return await read_request(reader, 8, 5.0, 5.0)
            except HttpError as error:
                return error

        too_big = _run(parse(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"))
        assert (too_big.status, too_big.detail) == (
            413, "request body of 9 bytes exceeds limit 8"
        )
        long_line = _run(parse(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"))
        assert (long_line.status, long_line.detail) == (431, "request line too long")
        fat_head = _run(parse(b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"a" * 17000 + b"\r\n\r\n"))
        assert (fat_head.status, fat_head.detail) == (431, "request headers too large")
        bad = _run(parse(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n"))
        assert bad.status == 400 and bad.detail.startswith("malformed header line")
        cut = _run(parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"))
        assert (cut.status, cut.detail) == (400, "connection closed mid-body")

    def test_at_most_two_wait_for_per_request(self, monkeypatch):
        calls = []
        real_wait_for = asyncio.wait_for

        def counting_wait_for(awaitable, timeout):
            calls.append(timeout)
            return real_wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(REQUEST)
            reader.feed_eof()
            return await read_request(reader, 1024, 5.0, 5.0)

        assert _run(go()).body == b'{"source": 1}'
        assert len(calls) <= 2


# --------------------------------------------------- through the connection loop


@dataclass
class _Config:
    max_body_bytes: int = 1024
    io_timeout_s: float = 0.5
    idle_timeout_s: float = 0.4
    drain_timeout_s: float = 1.0
    access_log: bool = False
    window_interval_s: float = 5.0
    window_slots: int = 4


class _Echo(Pipeline):
    """The smallest front end: the shared pipeline plus one route."""

    def __init__(self) -> None:
        super().__init__(_Config(), {("GET", "/ping"): self._ping})

    async def _ping(self, request) -> Response:
        return Response.json_response({"ok": True})

    async def start(self) -> "_Echo":
        await self._bind("127.0.0.1", 0)
        return self


@pytest.fixture()
def echo_port():
    with Background(_Echo()) as handle:
        yield handle.port


def _read_all(sock: socket.socket, limit_s: float) -> bytes:
    sock.settimeout(limit_s)
    data = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return data
        data += chunk


class TestConnectionLoop:
    def test_trickled_head_gets_408_and_the_connection_closes(self, echo_port):
        # One header line every 0.1 s against io_timeout_s = 0.5: the
        # request's one deadline answers 408 long before the 4 s trickle
        # ends.
        with socket.create_connection(("127.0.0.1", echo_port)) as sock:
            started = time.monotonic()
            sock.sendall(b"GET /ping HTTP/1.1\r\n")
            for _ in range(40):
                readable, _, _ = select.select([sock], [], [], 0.1)
                if readable:
                    break
                try:
                    sock.sendall(b"X-Drip: 1\r\n")
                except OSError:
                    break
            reply = _read_all(sock, 5.0)
            elapsed = time.monotonic() - started
        assert reply.startswith(b"HTTP/1.1 408 "), reply
        assert b"timed out reading request headers" in reply
        assert elapsed < 2.5

    def test_stalled_body_gets_408(self, echo_port):
        with socket.create_connection(("127.0.0.1", echo_port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\nContent-Length: 20\r\n\r\nabc")
            reply = _read_all(sock, 5.0)
        assert reply.startswith(b"HTTP/1.1 408 "), reply
        assert b"timed out reading request body" in reply

    def test_refused_body_still_gets_its_413(self, echo_port):
        # The body is far larger than the socket buffers, so the client
        # is still sending it when the 413 goes out: closing on unread
        # input would reset the connection and lose the answer.
        body = b"x" * (16 * 1024 * 1024)
        with socket.create_connection(("127.0.0.1", echo_port)) as sock:
            head = b"POST /ping HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            sock.sendall(head)
            sock.sendall(body)
            reply = _read_all(sock, 5.0)
        assert reply.startswith(b"HTTP/1.1 413 "), reply

    def test_idle_keep_alive_connection_closes_silently(self, echo_port):
        with socket.create_connection(("127.0.0.1", echo_port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\n\r\n")
            sock.settimeout(5.0)
            first = b""
            while not first.endswith(b'{"ok": true}\n'):
                first += sock.recv(4096)
            assert first.startswith(b"HTTP/1.1 200 ")
            started = time.monotonic()
            rest = _read_all(sock, 5.0)
            elapsed = time.monotonic() - started
        assert rest == b""  # closed with no response bytes
        assert elapsed < 2.0


# ------------------------------------------------------ client side: replies


async def _read_reply(chunks, eof: bool, timeout_s: float = 0.3):
    """``read_response`` over a stream holding ``chunks`` (then EOF when
    ``eof``), under ``timeout_s`` as the fleet bounds an exchange;
    returns ``(outcome, elapsed_s)``, outcome the reply or the raised
    error."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    started = time.monotonic()
    try:
        outcome = await asyncio.wait_for(read_response(reader), timeout_s)
    except Exception as error:  # noqa: BLE001 - the test inspects it
        outcome = error
    return outcome, time.monotonic() - started


def _reply(headers: bytes, body: bytes = b"", status: bytes = b"HTTP/1.1 200 OK"):
    return status + b"\r\n" + headers + b"\r\n" + body


OK_REPLY = _reply(
    b"Content-Type: application/json\r\nContent-Length: 12\r\n", b'{"ok": true}'
)
EMPTY = b"Content-Length: 0\r\n"
PAD = b"X-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n"

#: Reply bytes on the stream, and whether EOF follows them.
UNUSABLE_REPLIES = {
    "eof before a reply": ([], True),
    "truncated head": ([b"HTTP/1.1 200 OK\r\nContent-Len"], True),
    "malformed status line": ([_reply(EMPTY, status=b"HTTP/1.1 OK")], True),
    "non-http status line": ([_reply(EMPTY, status=b"ICY 200 OK")], True),
    "four-digit status": ([_reply(EMPTY, status=b"HTTP/1.1 2000 OK")], True),
    "non-ascii status digits": ([_reply(EMPTY, status=b"HTTP/1.1 2\xb20 OK")], True),
    "malformed header line": ([_reply(b"no colon\r\n" + EMPTY)], True),
    "missing content-length": ([_reply(b"Content-Type: text/plain\r\n", b"ok")], True),
    "negative content-length": ([_reply(b"Content-Length: -1\r\n")], True),
    "non-numeric content-length": ([_reply(b"Content-Length: 1e3\r\n")], True),
    "signed content-length": ([_reply(b"Content-Length: +2\r\n", b"ok")], True),
    "body cut short": ([_reply(b"Content-Length: 10\r\n", b"abc")], True),
    "head over MAX_HEADER_BYTES": ([_reply(PAD + EMPTY)], True),
    "head over the stream limit": ([b"HTTP/1.1 200 OK\r\n" + PAD * 5], False),
    "stalled before a reply": ([], False),
    "stalled mid-head": ([b"HTTP/1.1 200 OK\r\n"], False),
    "stalled mid-body": ([_reply(b"Content-Length: 10\r\n", b"abc")], False),
}


class TestReadResponse:
    def test_reply_parses_and_the_next_one_follows(self):
        outcome, _ = _run(_read_reply([OK_REPLY, OK_REPLY], True))
        status, headers, body = outcome
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert body == b'{"ok": true}'

        async def two():
            reader = asyncio.StreamReader()
            reader.feed_data(OK_REPLY + OK_REPLY)
            reader.feed_eof()
            return [await read_response(reader), await read_response(reader)]

        first, second = _run(two())
        assert first == second

    @pytest.mark.parametrize("case", sorted(UNUSABLE_REPLIES))
    def test_unusable_reply_is_a_transport_failure(self, case):
        chunks, eof = UNUSABLE_REPLIES[case]
        outcome, elapsed = _run(_read_reply(chunks, eof, timeout_s=0.3))
        # the router's failover class, never a (partial) reply tuple
        assert isinstance(outcome, _PROXY_ERRORS), (case, outcome)
        if eof or "stream limit" in case:
            assert isinstance(outcome, UpstreamError), (case, outcome)
        assert elapsed < 1.5, (case, elapsed)

    def test_request_framing_round_trips_through_the_server_parser(self):
        async def go():
            reader = asyncio.StreamReader()

            class _Sink:
                def write(self, data):
                    reader.feed_data(data)

                async def drain(self):
                    return None

            await write_request(
                _Sink(), "POST", "127.0.0.1:1", "/v1/analyze",
                {"Content-Type": "application/json", "X-Trace-Id": "t1"}, b'{"a": 1}',
            )
            reader.feed_eof()
            return await read_request(reader, 1024, 5.0, 5.0)

        request = _run(go())
        assert (request.method, request.path) == ("POST", "/v1/analyze")
        assert request.headers["host"] == "127.0.0.1:1"
        assert request.headers["x-trace-id"] == "t1"
        assert request.body == b'{"a": 1}'


# ------------------------------------------- client side: pooled connections


async def _fake_worker(keep_alive: bool):
    """A loopback peer that answers every request ``{"n": <count>}``,
    saying ``Connection: close`` (and closing) unless ``keep_alive``;
    ``served`` collects ``(request, client port)``."""
    served = []

    async def handle(reader, writer):
        client_port = writer.get_extra_info("peername")[1]
        try:
            while True:
                request = await read_request(reader, 1 << 20, 5.0, 5.0)
                if request is None:
                    break
                served.append((request, client_port))
                reply = Response.json_response({"n": len(served)})
                await write_response(writer, reply, keep_alive)
                if not keep_alive:
                    break
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], served


def _worker_at(port: int, tmp_path) -> FleetWorker:
    worker = FleetWorker("w0", FleetConfig(), tmp_path)
    worker.port, worker.state = port, "up"
    return worker


class TestUpstreamPool:
    @pytest.mark.parametrize("keep_alive", [True, False])
    def test_connection_close_reply_is_relayed_and_not_pooled(
        self, tmp_path, keep_alive
    ):
        async def go():
            server, port, served = await _fake_worker(keep_alive)
            worker = _worker_at(port, tmp_path)
            try:
                first = await worker.exchange("POST", "/v1/analyze", b"{}", {})
                pooled = len(worker._pool)
                second = await worker.exchange("POST", "/v1/analyze", b"{}", {})
            finally:
                await worker.close()
                server.close()
            return first, pooled, second, len(served)

        first, pooled, second, served = _run(go())
        assert first[0] == 200 and first[2] == b'{"n": 1}\n'
        assert second[0] == 200 and second[2] == b'{"n": 2}\n'
        assert served == 2
        assert pooled == (1 if keep_alive else 0)
        if not keep_alive:
            assert first[1]["connection"] == "close"

    def test_stale_pooled_connection_is_retried_once_on_a_fresh_one(self, tmp_path):
        async def go():
            server, port, served = await _fake_worker(True)
            worker = _worker_at(port, tmp_path)
            try:
                await worker.exchange("GET", "/a", b"", {})
                # the pooled connection dies before its reader sees EOF,
                # so the next exchange fails on it and must retry
                worker._pool[0].writer.transport.abort()
                reply = await worker.exchange("GET", "/b", b"", {})
            finally:
                await worker.close()
                server.close()
            return reply, [request.path for request, _ in served]

        reply, paths = _run(go())
        assert reply[0] == 200
        assert paths == ["/a", "/b"]

    def test_respawned_worker_never_gets_an_old_generation_connection(self, tmp_path):
        async def go():
            server, port, served = await _fake_worker(True)
            worker = _worker_at(port, tmp_path)
            try:
                await worker.exchange("GET", "/a", b"", {})
                old = worker._pool[0]
                worker.generation += 1  # what spawn() does on a respawn
                await worker.exchange("GET", "/b", b"", {})
                pooled_old = any(conn is old for conn in worker._pool)
            finally:
                await worker.close()
                server.close()
            return pooled_old, old.writer.is_closing(), [port for _, port in served]

        pooled_old, closed, client_ports = _run(go())
        assert not pooled_old and closed
        assert client_ports[0] != client_ports[1]  # /b went out on a new connection
