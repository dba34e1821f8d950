"""Request framing deadlines (``repro.server.http11.read_request``).

A request gets two deadlines: ``idle_timeout_s`` for its first line and
one ``io_timeout_s`` for everything after it.  These tests drive the
parser directly over an in-memory stream, and the shared connection
loop (:class:`~repro.server.pipeline.Pipeline`, which the daemon and the
fleet front door both run) over a real socket.
"""

from __future__ import annotations

import asyncio
import select
import socket
import time
from dataclasses import dataclass

import pytest

from repro.server.http11 import HttpError, Response, read_request
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
