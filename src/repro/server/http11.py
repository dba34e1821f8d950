"""Minimal HTTP/1.1 framing over asyncio streams.

The scan daemon deliberately does not use ``http.server`` (blocking, one
thread per connection) or any third-party framework (the repository is
stdlib-only by contract).  What a JSON-over-HTTP analyzer service needs
from HTTP is small and this module implements exactly that:

- request parsing (request line, headers, ``Content-Length`` bodies)
  with hard limits — header size, body size, and one read deadline per
  request — so a slow or hostile client cannot pin a connection open or
  balloon memory;
- :func:`within`, the one deadline idiom of the request path (framing,
  pipeline, handlers and the fleet's forwards): a timer on the task
  already waiting, so a deadline spawns no asyncio Task;
- response serialization with correct ``Content-Length`` framing and
  explicit keep-alive control;
- chunked *response* streaming (:class:`ChunkedResponse` /
  :func:`write_chunked_response`) so ``/v1/batch`` can emit per-item
  results as they complete instead of buffering the whole batch;
- a typed :class:`HttpError` that handlers raise and the connection loop
  turns into the matching status response;
- the client side, for the fleet router's forwards to its workers:
  :func:`write_request` and :func:`read_response`, which frames a
  ``Content-Length`` reply or raises :class:`UpstreamError`.

No chunked *request* bodies, no TLS, no HTTP/2: the daemon sits on
loopback or a unix socket behind whatever real ingress the deployment
already has (see ``docs/server.md``).
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Dict, List, Optional, Tuple, TypeVar
from urllib.parse import parse_qsl, urlsplit

#: Reason phrases for every status the daemon emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_REQUEST_LINE_BYTES = 8 * 1024
MAX_HEADER_BYTES = 16 * 1024

_T = TypeVar("_T")


async def within(awaitable: Awaitable[_T], seconds: float) -> _T:
    """``awaitable``'s result, or :class:`asyncio.TimeoutError` once
    ``seconds`` pass, with the awaited work cancelled.

    From Python 3.11 this is ``asyncio.timeout``: a timer that cancels
    the task already waiting, so the work runs in that task and no Task
    is spawned for it (``wait_for`` spawns one before 3.12).  Before
    3.11, and for a non-positive bound, it is ``wait_for`` itself, so a
    non-positive bound times out at once without starting a coroutine,
    as it always has.
    """
    if sys.version_info >= (3, 11) and seconds > 0:
        async with asyncio.timeout(seconds):
            return await awaitable
    return await asyncio.wait_for(awaitable, seconds)


class HttpError(Exception):
    """A protocol- or handler-level failure with an HTTP status.

    ``detail`` lands in the JSON error body; ``headers`` (e.g.
    ``Retry-After`` on 429) are merged into the response.
    """

    def __init__(
        self,
        status: int,
        detail: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = dict(headers or {})


class UpstreamError(ConnectionError):
    """A reply the client side cannot use: cut short or framed wrong.

    A :class:`ConnectionError`, because that is what it means to a
    proxy: the connection's framing is lost, so it is closed, never
    reused, and the request fails over like any other transport failure.
    """


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    #: The id the response echoes as ``X-Patchitpy-Trace-Id``, set by
    #: the request pipeline before dispatch.
    trace_id: str = ""

    def json(self) -> Any:
        """The body decoded as JSON (400 on undecodable/invalid input)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "request body is not valid JSON")

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class Response:
    """One HTTP response ready to serialize."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json_response(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        """A JSON body response (sorted keys, trailing newline)."""
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body, headers=dict(headers or {}))

    @classmethod
    def text_response(cls, text: str, status: int = 200) -> "Response":
        """A plain-text response (the ``/metrics`` exposition format)."""
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    @classmethod
    def html_response(cls, html: str, status: int = 200) -> "Response":
        """An HTML body response (the ``/statusz`` dashboard)."""
        return cls(
            status=status,
            body=html.encode("utf-8"),
            content_type="text/html; charset=utf-8",
        )

    @classmethod
    def from_error(cls, error: HttpError) -> "Response":
        """The JSON error body for a raised :class:`HttpError`."""
        return cls.json_response(
            {"error": error.detail, "status": error.status},
            status=error.status,
            headers=error.headers,
        )


@dataclass
class ChunkedResponse:
    """A streaming response: head now, body chunks as they are produced.

    ``chunks`` is an async iterator of byte strings; each non-empty item
    becomes one ``Transfer-Encoding: chunked`` frame on the wire, so a
    client sees results the moment the producer yields them.  ``body``
    stays empty — it exists so accounting code written against
    :class:`Response` (``len(response.body)``) keeps working.
    """

    chunks: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "application/x-ndjson"
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
    idle_timeout_s: float,
    io_timeout_s: float,
) -> Optional[Request]:
    """Parse one request off the stream.

    Returns ``None`` on a clean close (EOF before any bytes of a new
    request, or an idle keep-alive connection timing out) — the caller
    just drops the connection.  Anything malformed or over-limit raises
    :class:`HttpError`, which the caller answers before closing:
    408 for a client that stalls mid-request, 413/431 for over-limit
    payloads/headers, 400 for unparseable framing.

    Two deadlines cover a request: ``idle_timeout_s`` for its first
    line, then one ``io_timeout_s`` for everything after it — headers
    and body together — so a client trickling header lines cannot hold
    the connection open past it.  Both are :func:`within` timers on the
    connection's own task: reading a request spawns no Task.
    """
    try:
        line = await within(reader.readline(), idle_timeout_s)
    except asyncio.TimeoutError:
        return None  # idle keep-alive connection: close without a response
    if not line:
        return None  # EOF between requests
    reading = ["request line"]
    try:
        return await within(
            _read_rest(reader, line, max_body_bytes, reading), io_timeout_s
        )
    except asyncio.TimeoutError:
        if reading[0] == "request line":
            return None  # a bare CRLF between requests, then silence
        raise HttpError(408, f"timed out reading {reading[0]}")


async def _read_rest(
    reader: asyncio.StreamReader,
    line: bytes,
    max_body_bytes: int,
    reading: List[str],
) -> Optional[Request]:
    """The request after its first line, naming in ``reading[0]`` the
    part being read, for the caller's 408."""
    if not line.strip():
        # a bare CRLF between requests: the request line follows
        line = await reader.readline()
        if not line.strip():
            return None
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise HttpError(431, "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol version {version!r}")

    reading[0] = "request headers"
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HttpError(400, "connection closed mid-headers")
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(431, "request headers too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()

    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length")
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > max_body_bytes:
        raise HttpError(
            413, f"request body of {length} bytes exceeds limit {max_body_bytes}"
        )
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(400, "chunked request bodies are not supported")

    body = b""
    if length:
        reading[0] = "request body"
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body")

    path, query = _split_target(target)
    return Request(
        method=method.upper(), path=path, query=query, headers=headers, body=body
    )


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    parts = urlsplit(target)
    return parts.path or "/", dict(parse_qsl(parts.query))


async def write_response(
    writer: asyncio.StreamWriter,
    response: Response,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Serialize ``response`` onto the stream and flush it."""
    reason = REASONS.get(response.status, "Unknown")
    headers = {
        "Content-Type": response.content_type,
        "Content-Length": str(len(response.body)),
        "Connection": "keep-alive" if keep_alive else "close",
        **response.headers,
        **(extra_headers or {}),
    }
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    # One write, so the reply leaves in one segment and a client reads
    # head and body with one wakeup.
    head_bytes = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
    writer.write(head_bytes + response.body)
    await writer.drain()


async def write_chunked_response(
    writer: asyncio.StreamWriter,
    response: ChunkedResponse,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> int:
    """Stream a :class:`ChunkedResponse` onto the wire; returns body bytes.

    The head goes out before the first chunk is awaited, so a client
    blocked on slow analysis still sees headers (and its trace id)
    immediately.  Chunked framing self-delimits, so keep-alive works the
    same as with ``Content-Length`` responses.  Empty chunks are skipped:
    a zero-length frame would terminate the stream early.
    """
    reason = REASONS.get(response.status, "Unknown")
    headers = {
        "Content-Type": response.content_type,
        "Transfer-Encoding": "chunked",
        "Connection": "keep-alive" if keep_alive else "close",
        **response.headers,
        **(extra_headers or {}),
    }
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()
    sent = 0
    async for chunk in response.chunks:
        if not chunk:
            continue
        writer.write(f"{len(chunk):X}\r\n".encode("latin-1") + chunk + b"\r\n")
        sent += len(chunk)
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()
    return sent


# ------------------------------------------------------------------ client


async def write_request(
    writer: asyncio.StreamWriter,
    method: str,
    host: str,
    target: str,
    headers: Dict[str, str],
    body: bytes = b"",
) -> None:
    """Send one request, head and body in a single write, and flush it.

    ``Host`` and ``Content-Length`` are added here; ``headers`` carries
    the rest.
    """
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    for name, value in headers.items():
        head += f"{name}: {value}\r\n"
    head += f"Content-Length: {len(body)}\r\n\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Read one ``Content-Length``-framed reply: ``(status, headers, body)``.

    The client side of :func:`write_response`, for the fleet router's
    forwards.  Header names come back lower-cased, and the body only
    once all of it has arrived.  EOF before or inside the reply, a
    malformed status or header line, a head over
    :data:`MAX_HEADER_BYTES`, and a missing, negative or non-numeric
    ``Content-Length`` raise :class:`UpstreamError`.  No deadline here:
    the caller bounds the whole exchange.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        where = "mid-head" if error.partial else "before a reply"
        raise UpstreamError(f"connection closed {where}") from None
    except asyncio.LimitOverrunError:
        raise UpstreamError("reply head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise UpstreamError("reply head too large")
    status_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    version, _, rest = status_line.partition(" ")
    code = rest[:3]
    if not (
        version.startswith("HTTP/1.")
        and code.isascii()
        and code.isdigit()
        and len(code) == 3
        and rest[3:4] in ("", " ")
    ):
        raise UpstreamError(f"malformed status line {status_line!r}")
    headers: Dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise UpstreamError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "")
    if not (length.isascii() and length.isdigit()):
        raise UpstreamError(f"malformed Content-Length {length!r}")
    try:
        body = await reader.readexactly(int(length))
    except asyncio.IncompleteReadError:
        raise UpstreamError("connection closed mid-body") from None
    return int(code), headers, body
