"""The lifecycle contract shared by every UDP endpoint.

The sensor and admd planes each have one endpoint implementation, run
either on the caller's event loop (``AsyncUdpSensorServer``,
``AsyncAdmdListener``) or on a private loop thread behind a blocking API
(``UdpSensorServer``, ``AdmdListener``).  These tests hold all four to
the same contract, through public behaviour only.
"""

import asyncio
import socket
import threading

import pytest

from repro.config import table1
from repro.core.solver import Solver
from repro.daemons.transport import AdmdListener, AsyncAdmdListener
from repro.errors import SensorError, ServeError
from repro.sensors.server import (
    AsyncUdpSensorServer,
    SensorService,
    UdpSensorServer,
)

from .test_server import free_port, port_is_free


@pytest.fixture
def service(layout):
    return SensorService(Solver([layout], record=False),
                         aliases=table1.sensor_map())


def sensor_endpoint(cls):
    return lambda service, **kw: cls(service, **kw)


def admd_endpoint(cls):
    return lambda service, **kw: cls(lambda message: None, **kw)


BLOCKING = pytest.mark.parametrize(
    "make", [sensor_endpoint(UdpSensorServer), admd_endpoint(AdmdListener)],
    ids=["sensor", "admd"],
)
ASYNC = pytest.mark.parametrize(
    "make",
    [sensor_endpoint(AsyncUdpSensorServer), admd_endpoint(AsyncAdmdListener)],
    ids=["sensor", "admd"],
)


@BLOCKING
def test_blocking_address_needs_start(service, make):
    endpoint = make(service)
    with pytest.raises(SensorError, match="not started"):
        endpoint.address
    with make(service) as started:
        assert started.port > 0


@BLOCKING
def test_blocking_failed_bind_leaves_no_thread(service, make):
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    blocker.bind(("127.0.0.1", 0))
    threads = threading.active_count()
    try:
        endpoint = make(service, port=blocker.getsockname()[1])
        with pytest.raises(OSError):
            endpoint.start()
    finally:
        blocker.close()
    assert threading.active_count() == threads
    endpoint.stop()  # a failed start is already stopped; still a no-op


@ASYNC
def test_async_stop_frees_the_port_and_refuses_restart(service, make):
    port = free_port()

    async def scenario():
        endpoint = make(service, port=port)
        await endpoint.stop()  # before any start: a no-op
        endpoint = make(service, port=port)
        await endpoint.start()
        assert endpoint.port == port
        with pytest.raises(ServeError, match="already started"):
            await endpoint.start()
        await endpoint.stop()
        assert port_is_free("127.0.0.1", port)
        await endpoint.stop()  # idempotent
        with pytest.raises(ServeError, match="already stopped"):
            await endpoint.start()

    asyncio.run(scenario())
