"""Tests for the tempd -> admd UDP transport."""

import json
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.daemons.admd import Admd
from repro.daemons.tempd import MSG_ADJUST, MSG_STATUS, Tempd, TempdMessage
from repro.daemons.transport import (
    MAX_MESSAGE_BYTES,
    AdmdListener,
    AsyncAdmdListener,
    TempdSender,
    decode_message,
    encode_message,
)
from repro.errors import SensorError
from repro.freon.policy import FreonConfig

from ..fakes import FakeView
from ..sensors.test_server import free_port, port_is_free


def datagram(**fields):
    """A JSON tempd datagram: ``sample_message``'s fields, overridden."""
    payload = {
        "type": MSG_ADJUST, "machine": "machine1", "time": 120.0,
        "output": 0.35, "temperatures": {"cpu": 68.5}, "utilizations": {},
    }
    payload.update(fields)
    return json.dumps(payload).encode()


#: Datagrams an admd must count as malformed without changing any state.
HOSTILE_DATAGRAMS = {
    "not json": b"not json",
    "deep nesting": b"[" * 5000,
    "unknown machine": datagram(machine="machine9"),
    "NaN output": datagram(output=float("nan")),
}


def sample_message():
    return TempdMessage(
        type=MSG_ADJUST,
        machine="machine1",
        time=120.0,
        output=0.35,
        temperatures={"cpu": 68.5, "disk": 50.0},
        utilizations={"cpu": 0.7},
    )


class TestEncoding:
    def test_round_trip(self):
        message = sample_message()
        decoded = decode_message(encode_message(message))
        assert decoded == message

    def test_rejects_garbage(self):
        for data in (b"\xff\xfe not json", HOSTILE_DATAGRAMS["deep nesting"]):
            with pytest.raises(SensorError, match="malformed"):
                decode_message(data)

    def test_rejects_non_object(self):
        with pytest.raises(SensorError):
            decode_message(b"[1,2,3]")

    def test_rejects_missing_fields(self):
        with pytest.raises(SensorError):
            decode_message(b'{"type": "adjust"}')

    def test_rejects_wrong_types(self):
        bad = (
            b'{"type": "adjust", "machine": "m", "time": "soon", '
            b'"output": 0, "temperatures": {}, "utilizations": {}}'
        )
        too_large_for_a_float = datagram(time=10**400)
        for data in (bad, too_large_for_a_float):
            with pytest.raises(SensorError):
                decode_message(data)

    @pytest.mark.parametrize("fields", [
        {"time": float("inf")},
        {"output": float("nan")},
        {"output": float("inf")},
        {"output": -1.0},
        {"temperatures": {"cpu": float("nan")}},
        {"utilizations": {"cpu": float("-inf")}},
    ])
    def test_rejects_numbers_tempd_never_sends(self, fields):
        with pytest.raises(SensorError):
            decode_message(datagram(**fields))

    def test_fits_one_datagram(self):
        assert len(encode_message(sample_message())) < MAX_MESSAGE_BYTES

    def test_oversize_message_rejected(self):
        bloated = TempdMessage(
            type=MSG_STATUS,
            machine="machine1",
            time=1.0,
            temperatures={f"sensor{i}": float(i) for i in range(400)},
        )
        with pytest.raises(SensorError, match="too large"):
            encode_message(bloated)

    def test_rejects_non_mapping_temperatures(self):
        bad = (
            b'{"type": "adjust", "machine": "m", "time": 1, '
            b'"output": 0, "temperatures": [1, 2], "utilizations": {}}'
        )
        with pytest.raises(SensorError):
            decode_message(bad)

    @given(
        output=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        temp=st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    )
    def test_round_trip_property(self, output, temp):
        message = TempdMessage(
            type=MSG_STATUS,
            machine="m",
            time=1.0,
            output=output,
            temperatures={"cpu": temp},
        )
        decoded = decode_message(encode_message(message))
        assert decoded.output == pytest.approx(output)
        assert decoded.temperatures["cpu"] == pytest.approx(temp)


def _wait_for(predicate, timeout=3.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestUdpPath:
    def test_message_reaches_admd(self):
        view = FakeView(["machine1", "machine2"])
        balancer = view.balancer
        admd = Admd(view, config=FreonConfig())
        with AdmdListener(admd.deliver) as listener:
            with TempdSender(listener.address) as send:
                send(sample_message())
                assert _wait_for(lambda: listener.received == 1)
        assert len(admd.adjustments) == 1
        assert balancer.server("machine1").weight < 1.0

    def test_malformed_datagrams_counted_and_ignored(self):
        view = FakeView(["machine1", "machine2"])
        admd = Admd(view)
        with AdmdListener(admd.deliver) as listener:
            import socket

            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for data in HOSTILE_DATAGRAMS.values():
                    sock.sendto(data, listener.address)
                assert _wait_for(
                    lambda: listener.malformed == len(HOSTILE_DATAGRAMS)
                )
                assert listener.received == 0
                assert view.weights().tolist() == [1.0, 1.0]
                assert admd.adjustments == []
                # A good message afterwards still works.
                with TempdSender(listener.address) as send:
                    send(sample_message())
                    assert _wait_for(lambda: listener.received == 1)
            finally:
                sock.close()

    def test_full_daemon_pair_over_udp(self):
        # tempd (with a fake sensor) -> UDP -> admd, end to end.
        # Each side has its own view: the server's sensor, the balancer.
        server = FakeView(["machine1"])
        server.temperatures["machine1"] = {"cpu": 68.5, "disk": 40.0}
        view = FakeView(["machine1", "machine2"])
        balancer = view.balancer
        admd = Admd(view, config=FreonConfig())
        with AdmdListener(admd.deliver) as listener:
            with TempdSender(listener.address) as send:
                tempd = Tempd(server, send, config=FreonConfig())
                tempd.wake(60.0)
                assert _wait_for(lambda: listener.received == 1)
        assert balancer.server("machine1").weight < 1.0

    def test_double_start_rejected(self):
        listener = AdmdListener(lambda m: None)
        listener.start()
        try:
            with pytest.raises(SensorError):
                listener.start()
        finally:
            listener.stop()

    def test_stop_idempotent(self):
        listener = AdmdListener(lambda m: None).start()
        listener.stop()
        listener.stop()


class TestShutdownLifecycle:
    """Pool workers tear transports down on every path; none may leak."""

    def test_start_close_close_under_traffic(self):
        # Close while the loop thread serves, then close again: both
        # must return cleanly, join the thread and release the port.
        admd = Admd(FakeView(["machine1"]))
        threads = threading.active_count()
        listener = AdmdListener(admd.deliver).start()
        host, port = listener.address
        with TempdSender(listener.address) as sender:
            sender(sample_message())
            assert _wait_for(lambda: listener.received == 1)
        listener.stop()
        listener.stop()
        assert threading.active_count() == threads
        assert port_is_free(host, port)

    def test_stop_without_start_releases_socket(self):
        # Binding happens in start(): a listener that never served never
        # holds its port and leaves no thread behind.
        port = free_port()
        threads = threading.active_count()
        listener = AdmdListener(lambda m: None, port=port)
        listener.stop()
        listener.stop()  # still idempotent
        assert threading.active_count() == threads
        assert port_is_free("127.0.0.1", port)

    def test_start_after_stop_rejected(self):
        listener = AdmdListener(lambda m: None).start()
        listener.stop()
        with pytest.raises(SensorError):
            listener.start()

    def test_stop_closes_socket_even_if_shutdown_raises(self, monkeypatch):
        original_stop = AsyncAdmdListener.stop

        async def exploding_stop(self):
            await original_stop(self)
            raise OSError("simulated teardown failure")

        monkeypatch.setattr(AsyncAdmdListener, "stop", exploding_stop)
        threads = threading.active_count()
        listener = AdmdListener(lambda m: None).start()
        host, port = listener.address
        with pytest.raises(OSError):
            listener.stop()
        assert threading.active_count() == threads
        assert port_is_free(host, port)
        listener.stop()  # second close after a failed one is a no-op

    def test_sender_double_close_and_send_after_close(self):
        listener = AdmdListener(lambda m: None).start()
        try:
            sender = TempdSender(listener.address)
            sender(sample_message())
            sender.close()
            sender.close()
            with pytest.raises(SensorError):
                sender(sample_message())
        finally:
            listener.stop()

    def test_in_process_delivery_survives_udp_teardown(self):
        # The in-process transport (calling admd.deliver directly) must
        # keep working after the UDP listener for the same admd is gone.
        admd = Admd(FakeView(["machine1", "machine2"]), config=FreonConfig())
        listener = AdmdListener(admd.deliver).start()
        listener.stop()
        listener.stop()
        admd.deliver(sample_message())
        assert len(admd.adjustments) == 1
