"""A minimal asyncio HTTP/1.1 server: routes, JSON, and server-sent events.

The serving plane must live inside the stdlib (the reproduction adds no
dependencies), must share one event loop with the datagram transports
and the simulation pacing task, and needs exactly four content shapes:
HTML, plain text, JSON, and an SSE stream.  That is a small enough
surface to implement directly on :func:`asyncio.start_server` — each
connection carries one request (``Connection: close``), handlers are
coroutines returning a :class:`Response`, and an SSE handler returns a
:class:`EventStream` whose async iterator the connection loop drains
until the client goes away.

This is not a general web server: no keep-alive, no chunked request
bodies, no TLS.  It is the smallest correct carrier for ``/metrics``
scrapes, the dashboard, and the alert API.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..errors import ServeError

#: Request head (request line + headers) size bound, bytes.
MAX_HEAD_BYTES = 16384

#: Request body size bound, bytes (the alert API posts tiny payloads).
MAX_BODY_BYTES = 65536

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """One query parameter (last occurrence wins)."""
        return self.query.get(name, default)


@dataclass
class Response:
    """One complete response: status, content type, body."""

    status: int = 200
    content_type: str = "text/plain; charset=utf-8"
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def text(cls, body: str, status: int = 200) -> "Response":
        return cls(status=status, body=body.encode("utf-8"))

    @classmethod
    def html(cls, body: str, status: int = 200) -> "Response":
        return cls(
            status=status,
            content_type="text/html; charset=utf-8",
            body=body.encode("utf-8"),
        )

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "Response":
        return cls(
            status=status,
            content_type="application/json",
            body=(json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        head = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        head += [f"{name}: {value}" for name, value in self.headers.items()]
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + self.body


class EventStream:
    """A server-sent-events response: an async iterator of SSE frames.

    ``source`` yields already-formatted frames (see :func:`sse_frame`);
    the connection loop writes each as it arrives and stops when the
    client disconnects or the iterator ends.
    """

    content_type = "text/event-stream"

    def __init__(self, source: AsyncIterator[bytes]) -> None:
        self.source = source

    def encode_head(self) -> bytes:
        return (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )


def sse_frame(data: object, event: Optional[str] = None,
              id: Optional[str] = None) -> bytes:
    """Format one server-sent-events frame.

    ``data`` may be a string (multi-line strings become one ``data:``
    line per line, per the SSE wire format) or any JSON-able object,
    which is serialized compactly.  The returned bytes end with the
    blank line that terminates a frame.
    """
    if not isinstance(data, str):
        data = json.dumps(data, sort_keys=True, separators=(",", ":"))
    lines = []
    if event is not None:
        if "\n" in event or "\r" in event:
            raise ServeError(f"SSE event name may not span lines: {event!r}")
        lines.append(f"event: {event}")
    if id is not None:
        lines.append(f"id: {id}")
    for part in data.split("\n"):
        lines.append(f"data: {part}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


#: Handler signature: request -> Response or EventStream.
Handler = Callable[[Request], Awaitable[object]]


class HttpServer:
    """Route table plus the asyncio connection loop."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._routes: Dict[Tuple[str, str], Handler] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        #: Requests served, by status code (observability for tests).
        self.served: Dict[int, int] = {}

    def route(self, method: str, path: str, handler: Handler) -> None:
        """Bind a handler to an exact (method, path)."""
        key = (method.upper(), path)
        if key in self._routes:
            raise ServeError(f"route {key} already registered")
        self._routes[key] = handler

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port); the server must be started."""
        if self._server is None:
            raise ServeError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ephemeral ``port=0``)."""
        return self.address[1]

    async def start(self) -> "HttpServer":
        if self._server is not None:
            raise ServeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        return self

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # start_server does not manage handler-task lifetimes: cancel any
        # connection still in flight (e.g. an SSE stream mid-drain) so
        # shutdown never leaks tasks into the caller's loop teardown.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -- connection handling ----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            request = await self._read_request(reader)
            if request is None:
                await self._write_response(writer, Response.text("bad request", 400))
                return
            handler = self._routes.get((request.method, request.path))
            if handler is None:
                if any(path == request.path for _, path in self._routes):
                    await self._write_response(
                        writer, Response.text("method not allowed", 405)
                    )
                else:
                    await self._write_response(
                        writer, Response.text("not found", 404)
                    )
                return
            try:
                result = await handler(request)
            except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
                await self._write_response(
                    writer, Response.text("internal error", 500)
                )
                return
            if isinstance(result, EventStream):
                await self._write_stream(writer, result)
            else:
                await self._write_response(writer, result)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Cancelled by stop(): finish cleanly rather than ending the
            # task CANCELLED, which asyncio.streams logs as an error.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Request]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return None
        if len(head) > MAX_HEAD_BYTES:
            return None
        try:
            text = head.decode("ascii")
        except UnicodeDecodeError:
            return None
        request_line, _, header_block = text.partition("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return None
        method, target = parts[0].upper(), parts[1]
        try:
            split = urlsplit(target)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            return None
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        headers: Dict[str, str] = {}
        for line in header_block.strip().split("\r\n"):
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                return None
            if n < 0 or n > MAX_BODY_BYTES:
                return None
            body = await reader.readexactly(n)
        return Request(
            method=method, path=split.path or "/", query=query,
            headers=headers, body=body,
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        self.served[response.status] = self.served.get(response.status, 0) + 1
        writer.write(response.encode())
        await writer.drain()

    async def _write_stream(
        self, writer: asyncio.StreamWriter, stream: EventStream
    ) -> None:
        self.served[200] = self.served.get(200, 0) + 1
        writer.write(stream.encode_head())
        await writer.drain()
        async for frame in stream.source:
            writer.write(frame)
            await writer.drain()


async def http_get(
    host: str, port: int, path: str, method: str = "GET"
) -> Tuple[int, Dict[str, str], bytes]:
    """One-shot HTTP client: ``(status, headers, body)``.

    Sized for tests, the CLI's self-probe, and the serving benchmark —
    one request per connection, which matches the server's
    ``Connection: close`` behaviour.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\nConnection: close\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("ascii", "replace").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = await reader.read()
        length = headers.get("content-length")
        if length is not None:
            body = body[: int(length)]
        return status, headers, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
