"""The asyncio HTTP carrier: parsing, routing, SSE frame format."""

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.serve import EventStream, HttpServer, Response, http_get, sse_frame


def run(coro):
    return asyncio.run(coro)


# -- SSE frame formatting ----------------------------------------------------


def test_sse_frame_plain_string():
    assert sse_frame("hello") == b"data: hello\n\n"


def test_sse_frame_multiline_data_splits_per_spec():
    frame = sse_frame("line one\nline two")
    assert frame == b"data: line one\ndata: line two\n\n"


def test_sse_frame_json_payload_is_compact_and_sorted():
    frame = sse_frame({"b": 2, "a": 1}, event="tick", id="7")
    assert frame == b'event: tick\nid: 7\ndata: {"a":1,"b":2}\n\n'


def test_sse_frame_event_name_may_not_span_lines():
    with pytest.raises(ServeError, match="span lines"):
        sse_frame("x", event="evil\nname")


def test_sse_frame_ends_with_blank_line():
    # The blank line is the frame terminator; without it no client
    # dispatches the event.
    assert sse_frame({"a": 1}).endswith(b"\n\n")


# -- server ------------------------------------------------------------------


async def _with_server(routes, check):
    server = HttpServer()
    for method, path, handler in routes:
        server.route(method, path, handler)
    await server.start()
    try:
        host, port = server.address
        await check(server, host, port)
    finally:
        await server.stop()


def test_ephemeral_port_bound_and_exposed():
    async def check(server, host, port):
        assert host == "127.0.0.1"
        assert port > 0
        assert server.port == port

    run(_with_server([], check))


def test_address_before_start_raises():
    server = HttpServer()
    with pytest.raises(ServeError, match="not started"):
        server.address


def test_duplicate_route_rejected():
    server = HttpServer()

    async def handler(request):
        return Response.text("x")

    server.route("GET", "/x", handler)
    with pytest.raises(ServeError, match="already registered"):
        server.route("GET", "/x", handler)


def test_request_routing_and_statuses():
    async def hello(request):
        return Response.json({"who": request.param("who", "world")})

    async def boom(request):
        raise RuntimeError("handler bug")

    async def check(server, host, port):
        status, headers, body = await http_get(host, port, "/hello?who=repro")
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {"who": "repro"}

        status, _, _ = await http_get(host, port, "/nope")
        assert status == 404
        status, _, _ = await http_get(host, port, "/hello", method="POST")
        assert status == 405
        status, _, _ = await http_get(host, port, "/boom")
        assert status == 500
        assert server.served[200] == 1
        assert server.served[404] == 1
        assert server.served[405] == 1
        assert server.served[500] == 1

    run(_with_server(
        [("GET", "/hello", hello), ("GET", "/boom", boom)], check
    ))


def test_malformed_request_line_is_400():
    request_lines = [
        b"NONSENSE",
        b"GET http://[::1/metrics HTTP/1.1",  # urlsplit: invalid IPv6 URL
    ]

    async def check(server, host, port):
        for count, request_line in enumerate(request_lines, 1):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request_line + b"\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400 Bad Request" in head, request_line
            assert server.served == {400: count}
            writer.close()

    run(_with_server([], check))


def test_event_stream_drains_to_client():
    async def frames():
        yield sse_frame({"n": 1}, event="tick")
        yield sse_frame({"n": 2}, event="tick")

    async def stream(request):
        return EventStream(frames())

    async def check(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"text/event-stream" in head
        one = await reader.readuntil(b"\n\n")
        two = await reader.readuntil(b"\n\n")
        assert b'{"n":1}' in one
        assert b'{"n":2}' in two
        writer.close()

    run(_with_server([("GET", "/stream", stream)], check))


def test_stop_cancels_inflight_streams():
    async def frames():
        yield sse_frame("first")
        await asyncio.sleep(3600)  # stream that never ends on its own

    async def stream(request):
        return EventStream(frames())

    async def scenario():
        server = HttpServer()
        server.route("GET", "/stream", stream)
        await server.start()
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\n\n")
        # stop() must cancel the hung stream handler, not hang itself.
        await asyncio.wait_for(server.stop(), timeout=5.0)
        writer.close()

    run(scenario())
