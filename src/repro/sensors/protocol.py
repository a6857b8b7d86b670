"""Wire formats for Mercury's UDP plumbing.

Two message families flow between the pieces of the suite (Figure 2):

* **utilization updates** — monitord -> solver, "128-byte UDP messages"
  carrying up to four (component, utilization) pairs for one machine;
* **sensor queries** — the sensor library -> solver and back, carrying a
  (machine, component) request and a (status, temperature) response.

All messages are fixed-size, network-byte-order structs so a reader can
``recv`` exactly one datagram and decode it without framing logic.
Strings are UTF-8, NUL-padded, and silently truncated to their field
width on encode (field widths fit every name Table 1 uses).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import SensorError

#: Protocol magic numbers (distinct per message type).
UPDATE_MAGIC = b"MUPD"
QUERY_MAGIC = b"MQRY"
REPLY_MAGIC = b"MRPL"

PROTOCOL_VERSION = 1

#: monitord update: magic, version, machine, count, 4 x (name, utilization)
#: 4 + 1 + 24 + 1 + 4 * (20 + 4) = 126, padded to exactly 128 bytes.
_UPDATE_STRUCT = struct.Struct("!4sB24sB" + "20sf" * 4 + "2x")
UPDATE_SIZE = _UPDATE_STRUCT.size
MAX_UPDATE_COMPONENTS = 4

#: sensor query: magic, version, request id, machine, component.
_QUERY_STRUCT = struct.Struct("!4sBI24s24s")
QUERY_SIZE = _QUERY_STRUCT.size

#: sensor reply: magic, version, request id, status, temperature.
_REPLY_STRUCT = struct.Struct("!4sBIBf")
REPLY_SIZE = _REPLY_STRUCT.size

#: Reply status codes.
STATUS_OK = 0
STATUS_UNKNOWN_SENSOR = 1
STATUS_ERROR = 2


def _pack_name(name: str, width: int) -> bytes:
    raw = name.encode("utf-8")[:width]
    return raw.ljust(width, b"\0")


def _unpack_name(raw: bytes) -> str:
    return raw.rstrip(b"\0").decode("utf-8", errors="replace")


@dataclass(frozen=True)
class UtilizationUpdate:
    """One monitord -> solver datagram."""

    machine: str
    utilizations: Dict[str, float] = field(default_factory=dict)

    def encode(self) -> bytes:
        """Serialize to the fixed 128-byte wire format."""
        items: List[Tuple[str, float]] = sorted(self.utilizations.items())
        if len(items) > MAX_UPDATE_COMPONENTS:
            raise SensorError(
                f"update carries {len(items)} components; max is "
                f"{MAX_UPDATE_COMPONENTS} per datagram"
            )
        fields: List[object] = [
            UPDATE_MAGIC,
            PROTOCOL_VERSION,
            _pack_name(self.machine, 24),
            len(items),
        ]
        for name, value in items:
            if not 0.0 <= value <= 1.0:
                raise SensorError(f"utilization of {name!r} out of range: {value}")
            fields.append(_pack_name(name, 20))
            fields.append(value)
        for _ in range(MAX_UPDATE_COMPONENTS - len(items)):
            fields.append(b"")
            fields.append(0.0)
        return _UPDATE_STRUCT.pack(*fields)

    @classmethod
    def decode(cls, data: bytes) -> "UtilizationUpdate":
        """Parse a datagram; raises SensorError on malformed input."""
        if len(data) != UPDATE_SIZE:
            raise SensorError(
                f"bad update size: {len(data)} (expected {UPDATE_SIZE})"
            )
        unpacked = _UPDATE_STRUCT.unpack(data)
        magic, version, machine_raw, count = unpacked[:4]
        if magic != UPDATE_MAGIC:
            raise SensorError(f"bad update magic: {magic!r}")
        if version != PROTOCOL_VERSION:
            raise SensorError(f"unsupported protocol version: {version}")
        if count > MAX_UPDATE_COMPONENTS:
            raise SensorError(f"bad component count: {count}")
        utilizations: Dict[str, float] = {}
        for i in range(count):
            name = _unpack_name(unpacked[4 + 2 * i])
            value = float(unpacked[5 + 2 * i])
            if not 0.0 <= value <= 1.0:  # also false for NaN
                raise SensorError(
                    f"utilization of {name!r} out of range: {value}"
                )
            utilizations[name] = value
        return cls(machine=_unpack_name(machine_raw), utilizations=utilizations)


@dataclass(frozen=True)
class SensorQuery:
    """One sensor-library -> solver request."""

    request_id: int
    machine: str
    component: str

    def encode(self) -> bytes:
        """Serialize to the fixed wire format."""
        return _QUERY_STRUCT.pack(
            QUERY_MAGIC,
            PROTOCOL_VERSION,
            self.request_id & 0xFFFFFFFF,
            _pack_name(self.machine, 24),
            _pack_name(self.component, 24),
        )

    @classmethod
    def decode(cls, data: bytes) -> "SensorQuery":
        """Parse a request datagram."""
        if len(data) != QUERY_SIZE:
            raise SensorError(f"bad query size: {len(data)} (expected {QUERY_SIZE})")
        magic, version, request_id, machine_raw, component_raw = _QUERY_STRUCT.unpack(
            data
        )
        if magic != QUERY_MAGIC:
            raise SensorError(f"bad query magic: {magic!r}")
        if version != PROTOCOL_VERSION:
            raise SensorError(f"unsupported protocol version: {version}")
        return cls(
            request_id=request_id,
            machine=_unpack_name(machine_raw),
            component=_unpack_name(component_raw),
        )


@dataclass(frozen=True)
class SensorReply:
    """One solver -> sensor-library response."""

    request_id: int
    status: int
    temperature: float

    def encode(self) -> bytes:
        """Serialize to the fixed wire format."""
        return _REPLY_STRUCT.pack(
            REPLY_MAGIC,
            PROTOCOL_VERSION,
            self.request_id & 0xFFFFFFFF,
            self.status,
            self.temperature,
        )

    @classmethod
    def decode(cls, data: bytes) -> "SensorReply":
        """Parse a response datagram."""
        if len(data) != REPLY_SIZE:
            raise SensorError(f"bad reply size: {len(data)} (expected {REPLY_SIZE})")
        magic, version, request_id, status, temperature = _REPLY_STRUCT.unpack(data)
        if magic != REPLY_MAGIC:
            raise SensorError(f"bad reply magic: {magic!r}")
        if version != PROTOCOL_VERSION:
            raise SensorError(f"unsupported protocol version: {version}")
        return cls(request_id=request_id, status=status, temperature=temperature)
