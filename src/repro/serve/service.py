"""The live thermal service: one simulation, one event loop, many clients.

:class:`ThermalService` hosts a :class:`~repro.cluster.simulation.
ClusterSimulation` and serves its state over HTTP while the simulation
runs.  Two loops share one process without threads:

* the **simulation loop** is the :mod:`repro.kernel` event kernel,
  advanced in chunks of ticks by an asyncio task (:meth:`serve`) —
  real-time-paced (``pace`` simulated seconds per wall second) or
  free-running (``pace=0``, yield between chunks);
* the **I/O loop** is asyncio: the HTTP routes below, the SSE broadcast,
  and (optionally) the sensor and admd UDP endpoints all interleave
  with the simulation chunks, so a scrape never blocks a tick.  A
  free-running service yields to the loop once per chunk, so each
  event-loop turn a connection needs waits up to one chunk: a
  ``/metrics`` scrape needs 4-5 turns on the server side (accept, read,
  respond, close), and 11-14 in all with an HTTP client in the same
  process.  A paced service that falls behind runs chunks back to back
  until it catches up.

Routes::

    GET  /                   streaming HTML dashboard
    GET  /dashboard.txt      text dashboard (repro top frame + alerts)
    GET  /metrics            Prometheus text exposition of the registry
    GET  /healthz            liveness probe
    GET  /stream             server-sent events: tick + alert frames
    GET  /api/status         service + simulation summary
    GET  /api/series         recent per-machine Fig11/12 series
    GET  /api/alerts         alert states and incident history
    POST /api/alerts/ack     acknowledge a firing alert

The service only *reads* simulation state between ticks, so a run with
the service attached is tick-for-tick byte-identical to the same run
without it (the golden-trace test under ``tests/serve`` pins this).
"""

from __future__ import annotations

import asyncio
import time as _time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..cluster.simulation import ClusterSimulation, TickRecord
from ..errors import ServeError
from ..telemetry import Telemetry
from ..telemetry.exposition import CONTENT_TYPE_LATEST, to_prometheus
from . import dashboard
from .alerts import AlertEngine, default_rules
from .http import EventStream, HttpServer, Request, Response, sse_frame

#: Default simulated seconds between frames (matches the simulation's
#: telemetry sample period, so SSE and the event stream stay in step).
FRAME_EVERY = 5.0

#: Wall-clock ceiling between pacing checks, seconds.
PACE_INTERVAL = 0.25

#: Columns ``/dashboard.txt?width=`` accepts.
TEXT_WIDTHS = range(20, 501)


def _frame_of(record: TickRecord, alerts: List[dict]) -> Dict[str, object]:
    """One JSON-able dashboard frame from a tick record."""
    return {
        "time": record.time,
        "offered_rate": record.offered_rate,
        "dropped_rate": record.dropped_rate,
        "active_servers": record.active_servers,
        "servers": {
            name: {
                "state": server.state,
                "cpu_temperature": server.cpu_temperature,
                "disk_temperature": server.disk_temperature,
                "weight": server.weight,
                "connections": server.connections,
            }
            for name, server in record.servers.items()
        },
        "alerts": alerts,
    }


class ThermalService:
    """HTTP/SSE/alerting plane over one hosted cluster simulation."""

    def __init__(
        self,
        simulation: ClusterSimulation,
        alerts: Optional[AlertEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        history: int = 720,
        title: str = "repro serve",
    ) -> None:
        if history <= 0:
            raise ServeError(f"history must be positive, got {history!r}")
        self.simulation = simulation
        # /metrics serves the simulation's registry when the simulation
        # was built with telemetry; otherwise the service keeps its own
        # registry so the serve-plane metrics always exist.  Construct
        # the simulation with ``telemetry=Telemetry()`` for full depth.
        self.telemetry = (
            simulation.telemetry if simulation.telemetry.enabled
            else Telemetry()
        )
        self.alerts = alerts if alerts is not None else AlertEngine(
            default_rules(
                threshold=simulation.config.high("cpu"),
                clear_below=simulation.config.low("cpu"),
            ),
            telemetry=self.telemetry,
        )
        self.title = title
        #: Recent frames for /api/series and late-joining dashboards.
        self.frames: Deque[Dict[str, object]] = deque(maxlen=history)
        self._subscribers: Set[asyncio.Queue] = set()
        self.http = HttpServer(host=host, port=port)
        self._route_all()
        self.done = False
        self._tel_frames = self.telemetry.counter(
            "serve_frames_total", help="Dashboard frames broadcast.",
        )
        self._tel_scrapes = self.telemetry.counter(
            "serve_scrapes_total", help="/metrics scrapes served.",
        )
        self._tel_subscribers = self.telemetry.gauge(
            "serve_stream_subscribers", help="Live SSE subscribers.",
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port) of the HTTP plane."""
        return self.http.address

    @property
    def port(self) -> int:
        """The actually-bound HTTP port (useful with ephemeral ``port=0``)."""
        return self.http.port

    async def start(self) -> "ThermalService":
        """Bind the HTTP plane (the simulation does not advance yet)."""
        await self.http.start()
        return self

    async def stop(self) -> None:
        """Close the HTTP plane and end every SSE stream."""
        for queue in list(self._subscribers):
            queue.put_nowait(None)
        await self.http.stop()

    async def __aenter__(self) -> "ThermalService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- simulation driving ------------------------------------------------

    def advance(self, ticks: int = 1) -> Dict[str, object]:
        """Advance the hosted simulation and broadcast one frame.

        Steps the kernel ``ticks`` solver ticks, evaluates the alert
        rules against the sensor plane at the new simulated time, and
        pushes the resulting frame to the history ring and every SSE
        subscriber.  Returns the frame.  Synchronous on purpose: the
        serving task calls it between awaits, and tests call it directly
        for deterministic stepping.
        """
        simulation = self.simulation
        record = simulation.step(ticks)
        transitions = self.alerts.evaluate(
            simulation.time,
            simulation.service.read_temperature,
            simulation.machines,
        )
        frame = _frame_of(record, self.alerts.states())
        self.frames.append(frame)
        self._tel_frames.inc()
        if self._subscribers:  # encode only for someone listening
            self._broadcast(sse_frame(frame, event="tick"))
            for transition in transitions:
                self._broadcast(sse_frame(transition, event="alert"))
        return frame

    async def serve(
        self,
        duration: Optional[float] = None,
        pace: float = 0.0,
        frame_every: float = FRAME_EVERY,
    ) -> None:
        """Run the simulation for ``duration`` simulated seconds, serving.

        ``pace`` is simulated seconds per wall second; ``0`` means
        free-running (as fast as the solver goes, yielding to the event
        loop between chunks).  ``frame_every`` simulated seconds elapse
        between dashboard frames.  The HTTP plane must be started.
        """
        if pace < 0.0:
            raise ServeError(f"pace must be >= 0, got {pace!r}")
        if frame_every <= 0.0:
            raise ServeError(
                f"frame_every must be positive, got {frame_every!r}"
            )
        simulation = self.simulation
        if duration is None:
            duration = simulation.trace.duration
        chunk = max(1, int(round(frame_every / simulation.dt)))
        remaining = int(round(duration / simulation.dt))
        if pace == 0.0:
            while remaining > 0:
                step = min(chunk, remaining)
                self.advance(step)
                remaining -= step
                await asyncio.sleep(0)  # let scrapers and streams run
        else:
            wall_start = _time.monotonic()
            sim_start = simulation.time
            while remaining > 0:
                elapsed = _time.monotonic() - wall_start
                target = sim_start + elapsed * pace
                while remaining > 0 and simulation.time < target:
                    step = min(chunk, remaining)
                    self.advance(step)
                    remaining -= step
                if remaining > 0:
                    await asyncio.sleep(
                        min(frame_every / pace, PACE_INTERVAL)
                    )
        self.done = True
        self._broadcast(
            sse_frame({"time": simulation.time}, event="done")
        )

    # -- SSE ---------------------------------------------------------------

    def _broadcast(self, frame: bytes) -> None:
        for queue in list(self._subscribers):
            queue.put_nowait(frame)

    def _subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(queue)
        self._tel_subscribers.set(len(self._subscribers))
        return queue

    def _unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)
        self._tel_subscribers.set(len(self._subscribers))

    async def _stream_frames(self, queue: asyncio.Queue):
        try:
            yield sse_frame(
                {
                    "title": self.title,
                    "machines": list(self.simulation.machines),
                    "policy": self.simulation.policy,
                },
                event="hello",
            )
            if self.frames:
                yield sse_frame(self.frames[-1], event="tick")
            while True:
                frame = await queue.get()
                if frame is None:  # service stopping
                    return
                yield frame
        finally:
            self._unsubscribe(queue)

    # -- routes ------------------------------------------------------------

    def _route_all(self) -> None:
        self.http.route("GET", "/", self._page)
        self.http.route("GET", "/dashboard.txt", self._page_text)
        self.http.route("GET", "/metrics", self._metrics)
        self.http.route("GET", "/healthz", self._healthz)
        self.http.route("GET", "/stream", self._stream)
        self.http.route("GET", "/api/status", self._status)
        self.http.route("GET", "/api/series", self._series)
        self.http.route("GET", "/api/alerts", self._alerts)
        self.http.route("POST", "/api/alerts/ack", self._ack)

    async def _page(self, request: Request) -> Response:
        return Response.html(
            dashboard.render_html(
                title=self.title,
                threshold=self.simulation.config.high("cpu"),
            )
        )

    async def _page_text(self, request: Request) -> Response:
        try:
            width = int(request.param("width", "80"))
        except ValueError:
            return Response.json({"error": "width must be an int"}, 400)
        if width not in TEXT_WIDTHS:
            return Response.json(
                {
                    "error": f"width must be {TEXT_WIDTHS.start}-"
                    f"{TEXT_WIDTHS.stop - 1} columns"
                },
                400,
            )
        return Response.text(
            dashboard.render_text(
                self.telemetry, self.alerts.states(), width=width
            )
            + "\n"
        )

    async def _metrics(self, request: Request) -> Response:
        self._tel_scrapes.inc()
        return Response(
            content_type=CONTENT_TYPE_LATEST,
            body=to_prometheus(self.telemetry.registry).encode("utf-8"),
        )

    async def _healthz(self, request: Request) -> Response:
        return Response.json({"ok": True, "time": self.simulation.time})

    async def _stream(self, request: Request) -> EventStream:
        return EventStream(self._stream_frames(self._subscribe()))

    async def _status(self, request: Request) -> Response:
        states = self.alerts.states()
        return Response.json(
            {
                "title": self.title,
                "policy": self.simulation.policy,
                "mode": self.simulation.mode,
                "machines": list(self.simulation.machines),
                "time": self.simulation.time,
                "ticks": len(self.simulation.records),
                "done": self.done,
                "frames": len(self.frames),
                "alerts": {
                    "firing": sum(1 for s in states if s["state"] == "firing"),
                    "acked": sum(1 for s in states if s["state"] == "acked"),
                    "rules": len(self.alerts.rules),
                },
            }
        )

    async def _series(self, request: Request) -> Response:
        machine = request.param("machine")
        if machine is not None and machine not in self.simulation.machines:
            return Response.json(
                {"error": f"unknown machine {machine!r}"}, status=404
            )
        try:
            points = int(request.param("points", "0"))
        except ValueError:
            return Response.json({"error": "points must be an int"}, 400)
        frames = list(self.frames)
        if points > 0:
            frames = frames[-points:]
        machines = (
            [machine] if machine is not None
            else list(self.simulation.machines)
        )
        series = {
            name: {
                "cpu": [f["servers"][name]["cpu_temperature"] for f in frames],
                "disk": [
                    f["servers"][name]["disk_temperature"] for f in frames
                ],
                "weight": [f["servers"][name]["weight"] for f in frames],
            }
            for name in machines
        }
        return Response.json(
            {
                "times": [f["time"] for f in frames],
                "active_servers": [f["active_servers"] for f in frames],
                "dropped_rate": [f["dropped_rate"] for f in frames],
                "series": series,
            }
        )

    async def _alerts(self, request: Request) -> Response:
        return Response.json(
            {
                "states": self.alerts.states(),
                "incidents": [i.to_dict() for i in self.alerts.incidents],
            }
        )

    async def _ack(self, request: Request) -> Response:
        rule = request.param("rule")
        machine = request.param("machine")
        if not rule or not machine:
            return Response.json(
                {"error": "rule and machine parameters required"}, 400
            )
        changed = self.alerts.ack(rule, machine, self.simulation.time)
        if not changed:
            return Response.json(
                {"error": f"no firing alert {rule!r} on {machine!r}"}, 404
            )
        return Response.json({"acked": True, "rule": rule, "machine": machine})
