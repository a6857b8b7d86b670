"""repro.serve — the live thermal service.

The paper's Mercury/Freon deployment is a *continuously running* system:
sensors stream, daemons react, operators watch.  This package promotes
the reproduction from batch runs to that shape — one asyncio process
hosting a :class:`~repro.cluster.simulation.ClusterSimulation` on the
:mod:`repro.kernel` event loop and serving it live:

* :class:`~.service.ThermalService` — the HTTP plane: a ``/metrics``
  Prometheus scrape endpoint, a JSON API, an SSE stream feeding the
  self-contained HTML dashboard, and the alert API;
* :class:`~.alerts.AlertEngine` — threshold rules over T_h with
  hysteresis and a firing -> acknowledged -> resolved lifecycle, loaded
  from TOML/JSON files, exported as telemetry;
* :class:`~repro.sensors.server.AsyncUdpSensorServer` /
  :class:`~repro.daemons.transport.AsyncAdmdListener` — the sensor and
  tempd -> admd wire endpoints on the running loop, so thousands of
  concurrent sensor flows share it with the scrape plane.

``repro serve`` on the command line wires it all together.
"""

from __future__ import annotations

from ..daemons.transport import AsyncAdmdListener
from ..sensors.server import AsyncUdpSensorServer
from .alerts import (
    AlertEngine,
    AlertRule,
    Incident,
    default_rules,
    load_rules,
    parse_rules,
)
from .http import (
    EventStream,
    HttpServer,
    Request,
    Response,
    http_get,
    sse_frame,
)
from .service import FRAME_EVERY, ThermalService

__all__ = [
    "AlertEngine",
    "AlertRule",
    "Incident",
    "default_rules",
    "load_rules",
    "parse_rules",
    "AsyncAdmdListener",
    "AsyncUdpSensorServer",
    "EventStream",
    "HttpServer",
    "Request",
    "Response",
    "http_get",
    "sse_frame",
    "ThermalService",
    "FRAME_EVERY",
]
