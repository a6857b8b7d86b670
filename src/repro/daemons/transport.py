"""UDP transport for Freon's tempd -> admd messages (Figure 9).

"tempd sends a UDP message to a Freon process at the load-balancer node,
called admd."  In-process experiments hand :class:`TempdMessage` values
straight to ``Admd.deliver``; this module provides the wire path for
deployments where tempd really runs on each server: a compact JSON
datagram encoding, the admd-side endpoint (:class:`AsyncAdmdListener` on
an event loop, :class:`AdmdListener` for blocking callers), and a sender
handle for the tempd side.

JSON (rather than a packed struct) is used deliberately: Freon messages
are low-rate (one per server per minute), carry nested maps of
per-component readings, and benefit from being greppable in packet
captures.  Each datagram stays well under a single MTU.
"""

from __future__ import annotations

import json
import math
import socket
from typing import Callable, Optional, Tuple

from ..errors import SensorError
from ..sensors.server import DatagramEndpoint, ThreadedEndpoint
from ..telemetry import ensure as _ensure_telemetry
from .tempd import TempdMessage

#: Safety bound: a Freon message must fit one comfortable datagram.
MAX_MESSAGE_BYTES = 4096

_FIELDS = ("type", "machine", "time", "output", "temperatures", "utilizations")


def encode_message(message: TempdMessage) -> bytes:
    """Serialize a tempd message to one JSON datagram."""
    payload = {
        "type": message.type,
        "machine": message.machine,
        "time": message.time,
        "output": message.output,
        "temperatures": dict(message.temperatures),
        "utilizations": dict(message.utilizations),
    }
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise SensorError(
            f"tempd message too large for one datagram ({len(data)} bytes)"
        )
    return data


def decode_message(data: bytes) -> TempdMessage:
    """Parse one JSON datagram back into a tempd message.

    Every number must be finite and the controller output non-negative,
    as tempd sends them; anything else raises :class:`SensorError`.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: deeply nested arrays exhaust the JSON scanner.
        raise SensorError(f"malformed tempd datagram: {exc}") from None
    if not isinstance(payload, dict):
        raise SensorError("malformed tempd datagram: not an object")
    missing = [field for field in _FIELDS if field not in payload]
    if missing:
        raise SensorError(f"tempd datagram missing fields: {missing}")
    if not isinstance(payload["type"], str) or not isinstance(
        payload["machine"], str
    ):
        raise SensorError("tempd datagram fields have wrong types")
    try:
        message = TempdMessage(
            type=payload["type"],
            machine=payload["machine"],
            time=float(payload["time"]),
            output=float(payload["output"]),
            temperatures={
                str(k): float(v) for k, v in payload["temperatures"].items()
            },
            utilizations={
                str(k): float(v) for k, v in payload["utilizations"].items()
            },
        )
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SensorError(f"tempd datagram fields have wrong types: {exc}") from None
    numbers = (
        message.time, message.output,
        *message.temperatures.values(), *message.utilizations.values(),
    )
    if not all(map(math.isfinite, numbers)):
        raise SensorError("tempd datagram carries a non-finite number")
    if message.output < 0.0:
        raise SensorError(
            f"tempd datagram output is negative: {message.output}"
        )
    return message


class TempdSender:
    """tempd's side: a ``send`` callable delivering over UDP.

    Pass an instance as the ``send`` argument of
    :class:`~repro.daemons.tempd.Tempd`.
    """

    def __init__(self, address: Tuple[str, int], telemetry=None) -> None:
        self._address = address
        self._sock: Optional[socket.socket] = socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM
        )
        self.sent = 0
        self._tel_sent = _ensure_telemetry(telemetry).counter(
            "freon_udp_messages_sent_total",
            help="tempd messages sent over UDP.",
        )

    def __call__(self, message: TempdMessage) -> None:
        sock = self._sock
        if sock is None:
            raise SensorError("send on a closed TempdSender")
        sock.sendto(encode_message(message), self._address)
        self.sent += 1
        self._tel_sent.inc()

    def close(self) -> None:
        """Release the socket.  Idempotent: extra calls are no-ops.

        The socket is detached before closing, so a concurrent ``send``
        gets a clean :class:`SensorError` instead of racing a half-closed
        descriptor.
        """
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "TempdSender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncAdmdListener(DatagramEndpoint):
    """admd's side: a UDP endpoint feeding ``deliver`` with messages.

    Runs on the running event loop, which serializes datagrams, so
    ``deliver`` (typically ``Admd.deliver``) is never called
    concurrently.  :class:`AdmdListener` is the same endpoint behind a
    blocking API.
    """

    kind = "admd"

    def __init__(
        self,
        deliver: Callable[[TempdMessage], None],
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
    ) -> None:
        telemetry = _ensure_telemetry(telemetry)
        super().__init__(
            host,
            port,
            telemetry.counter(
                "freon_udp_messages_received_total",
                help="tempd messages received and delivered to admd.",
            ),
            telemetry.counter(
                "freon_udp_messages_malformed_total",
                help="UDP datagrams dropped as malformed.",
            ),
        )
        self.deliver = deliver

    def handle(self, data: bytes) -> None:
        self.deliver(decode_message(data))


class AdmdListener(ThreadedEndpoint):
    """admd's UDP endpoint for blocking callers.

    The same endpoint as :class:`AsyncAdmdListener`, run on one private
    event-loop thread; ``address`` is what tempds should send to.
    """

    def __init__(
        self,
        deliver: Callable[[TempdMessage], None],
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
    ) -> None:
        super().__init__(AsyncAdmdListener(deliver, host, port, telemetry))
