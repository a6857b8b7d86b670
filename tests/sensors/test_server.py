"""Tests for the solver-side sensor service (in-process and UDP faces)."""

import asyncio
import logging
import math
import socket
import threading
import time

import pytest

from repro.config import table1
from repro.core.solver import Solver
from repro.errors import SensorError
from repro.sensors import protocol
from repro.sensors.server import (
    AsyncUdpSensorServer,
    SensorService,
    UdpSensorServer,
)


def port_is_free(host, port):
    """Whether a fresh UDP socket can bind (host, port)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((host, port))
    except OSError:
        return False
    finally:
        sock.close()
    return True


def free_port():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.fixture
def service(layout):
    solver = Solver([layout], record=False)
    return SensorService(solver, aliases=table1.sensor_map())


class TestInProcessFace:
    def test_read_temperature(self, service):
        temp = service.read_temperature("machine1", table1.CPU)
        assert temp == pytest.approx(table1.INLET_TEMPERATURE)
        assert service.queries_served == 1

    def test_alias_resolution(self, service):
        direct = service.read_temperature("machine1", table1.DISK_PLATTERS)
        aliased = service.read_temperature("machine1", "disk")
        assert direct == aliased

    def test_apply_utilizations(self, service):
        service.apply_utilizations("machine1", {table1.CPU: 0.9})
        state = service.solver.machine("machine1")
        assert state.utilizations[table1.CPU] == 0.9
        assert service.updates_applied == 1

    def test_step_advances_solver(self, service):
        service.step(5)
        assert service.solver.iterations == 5


class TestDatagramFace:
    def test_query_reply_cycle(self, service):
        query = protocol.SensorQuery(11, "machine1", "cpu")
        reply = protocol.SensorReply.decode(service.handle_query(query.encode()))
        assert reply.request_id == 11
        assert reply.status == protocol.STATUS_OK
        assert reply.temperature == pytest.approx(table1.INLET_TEMPERATURE)

    def test_unknown_sensor_status(self, service):
        query = protocol.SensorQuery(1, "machine1", "nonexistent")
        reply = protocol.SensorReply.decode(service.handle_query(query.encode()))
        assert reply.status == protocol.STATUS_UNKNOWN_SENSOR
        assert math.isnan(reply.temperature)
        assert service.errors == 1

    def test_malformed_query_raises(self, service):
        with pytest.raises(SensorError):
            service.handle_query(b"garbage")

    def test_update_datagram_applies(self, service):
        update = protocol.UtilizationUpdate("machine1", {table1.CPU: 0.4})
        service.handle_update(update.encode())
        state = service.solver.machine("machine1")
        assert state.utilizations[table1.CPU] == pytest.approx(0.4)


class TestUdpServer:
    def test_query_over_real_socket(self, service):
        with UdpSensorServer(service) as server:
            host, port = server.address
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2.0)
            try:
                query = protocol.SensorQuery(5, "machine1", "disk")
                sock.sendto(query.encode(), (host, port))
                data, _ = sock.recvfrom(2048)
            finally:
                sock.close()
        reply = protocol.SensorReply.decode(data)
        assert reply.request_id == 5
        assert reply.status == protocol.STATUS_OK

    def test_update_over_real_socket(self, service):
        with UdpSensorServer(service) as server:
            host, port = server.address
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                update = protocol.UtilizationUpdate(
                    "machine1", {table1.CPU: 0.8}
                )
                sock.sendto(update.encode(), (host, port))
                # UDP updates are fire-and-forget; poll the service state.
                import time

                for _ in range(100):
                    state = service.solver.machine("machine1")
                    if state.utilizations[table1.CPU] == pytest.approx(0.8):
                        break
                    time.sleep(0.01)
            finally:
                sock.close()
        assert service.solver.machine("machine1").utilizations[
            table1.CPU
        ] == pytest.approx(0.8)

    def test_garbage_datagram_ignored(self, service):
        with UdpSensorServer(service) as server:
            host, port = server.address
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(0.3)
            try:
                sock.sendto(b"not-a-protocol-message", (host, port))
                # A valid query afterwards still works.
                query = protocol.SensorQuery(9, "machine1", "cpu")
                sock.sendto(query.encode(), (host, port))
                data, _ = sock.recvfrom(2048)
            finally:
                sock.close()
        assert protocol.SensorReply.decode(data).request_id == 9

    def test_double_start_rejected(self, service):
        server = UdpSensorServer(service)
        server.start()
        try:
            with pytest.raises(SensorError):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent(self, service):
        server = UdpSensorServer(service).start()
        server.stop()
        server.stop()  # no error

    def test_start_close_close_under_traffic(self, service):
        # Close while the loop thread serves, twice: the thread is
        # joined and the port can be bound again.
        threads = threading.active_count()
        server = UdpSensorServer(service).start()
        host, port = server.address
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2.0)
        try:
            query = protocol.SensorQuery(7, "machine1", "cpu")
            sock.sendto(query.encode(), (host, port))
            sock.recvfrom(2048)
        finally:
            sock.close()
        server.stop()
        server.stop()
        assert threading.active_count() == threads
        assert port_is_free(host, port)

    def test_stop_without_start_releases_socket(self, service):
        # Binding happens in start(): a server stopped unstarted never
        # holds its port and leaves no thread behind.
        port = free_port()
        threads = threading.active_count()
        server = UdpSensorServer(service, port=port)
        server.stop()
        server.stop()  # still idempotent
        assert threading.active_count() == threads
        assert port_is_free("127.0.0.1", port)

    def test_start_after_stop_rejected(self, service):
        server = UdpSensorServer(service).start()
        server.stop()
        with pytest.raises(SensorError):
            server.start()

    def test_stop_closes_socket_even_if_shutdown_raises(
        self, service, monkeypatch
    ):
        original_stop = AsyncUdpSensorServer.stop

        async def exploding_stop(self):
            await original_stop(self)
            raise OSError("simulated teardown failure")

        monkeypatch.setattr(AsyncUdpSensorServer, "stop", exploding_stop)
        threads = threading.active_count()
        server = UdpSensorServer(service).start()
        host, port = server.address
        with pytest.raises(OSError):
            server.stop()
        assert threading.active_count() == threads
        assert port_is_free(host, port)
        server.stop()  # second close after a failed one is a no-op

    def test_in_process_face_survives_udp_teardown(self, service):
        # The in-process transport keeps serving after the UDP face closes.
        server = UdpSensorServer(service).start()
        server.stop()
        server.stop()
        query = protocol.SensorQuery(3, "machine1", "cpu")
        reply = protocol.SensorReply.decode(service.handle_query(query.encode()))
        assert reply.status == protocol.STATUS_OK


def _raw_update(machine, name, value):
    """An update datagram the encoder would refuse (out-of-range values)."""
    return protocol._UPDATE_STRUCT.pack(
        protocol.UPDATE_MAGIC, protocol.PROTOCOL_VERSION,
        machine.encode(), 1, name.encode(), value,
        b"", 0.0, b"", 0.0, b"", 0.0,
    )


#: Updates a service must reject whole: an unknown machine, an unknown
#: component, two out-of-range utilizations, and a valid component
#: beside an unknown one.
BAD_UPDATES = (
    protocol.UtilizationUpdate("nosuch", {table1.CPU: 0.5}).encode(),
    protocol.UtilizationUpdate("machine1", {"gpu": 0.5}).encode(),
    _raw_update("machine1", table1.CPU, 1.5),
    _raw_update("machine1", table1.CPU, float("nan")),
    protocol.UtilizationUpdate(
        "machine1", {table1.CPU: 0.9, "gpu": 0.5}
    ).encode(),
)

GOOD_UPDATE = protocol.UtilizationUpdate("machine1", {table1.CPU: 0.7}).encode()


class TestRejectedUpdates:
    """A bad update counts as malformed and changes no state."""

    @pytest.mark.parametrize("data", BAD_UPDATES)
    def test_handle_update_raises_sensor_error(self, service, data):
        before = dict(service.solver.machine("machine1").utilizations)
        with pytest.raises(SensorError):
            service.handle_update(data)
        assert service.solver.machine("machine1").utilizations == before
        assert service.updates_applied == 0

    def _check(self, service, counts, before):
        assert counts() == (0, len(BAD_UPDATES))
        assert service.solver.machine("machine1").utilizations == before
        assert service.updates_applied == 0

    def test_blocking_endpoint(self, service, caplog):
        before = dict(service.solver.machine("machine1").utilizations)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with UdpSensorServer(service) as server:

                def counts():
                    return server.received, server.malformed

                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                try:
                    for data in BAD_UPDATES:
                        sock.sendto(data, server.address)
                    for _ in range(200):
                        if sum(counts()) >= len(BAD_UPDATES):
                            break
                        time.sleep(0.01)
                    self._check(service, counts, before)
                    sock.sendto(GOOD_UPDATE, server.address)
                    for _ in range(200):
                        if server.received:
                            break
                        time.sleep(0.01)
                finally:
                    sock.close()
                assert counts() == (1, len(BAD_UPDATES))
        assert caplog.records == []
        assert service.solver.machine("machine1").utilizations[
            table1.CPU
        ] == pytest.approx(0.7)

    def test_async_endpoint(self, service):
        before = dict(service.solver.machine("machine1").utilizations)
        errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            async with AsyncUdpSensorServer(service) as server:

                def counts():
                    return server.received, server.malformed

                transport, _ = await asyncio.get_running_loop(
                ).create_datagram_endpoint(
                    asyncio.DatagramProtocol, remote_addr=server.address
                )
                try:
                    for data in BAD_UPDATES:
                        transport.sendto(data)
                    for _ in range(200):
                        if sum(counts()) >= len(BAD_UPDATES):
                            break
                        await asyncio.sleep(0.01)
                    self._check(service, counts, before)
                    transport.sendto(GOOD_UPDATE)
                    for _ in range(200):
                        if server.received:
                            break
                        await asyncio.sleep(0.01)
                finally:
                    transport.close()
                assert counts() == (1, len(BAD_UPDATES))

        asyncio.run(scenario())
        assert errors == []
        assert service.solver.machine("machine1").utilizations[
            table1.CPU
        ] == pytest.approx(0.7)
