"""Deterministic fault schedules and the ``fault`` script statement.

Fault injection composes with thermal emergencies in one Figure 4-style
fiddle script: alongside ``sleep`` and ``fiddle`` lines, scripts may now
contain ``fault`` statements::

    #!/bin/bash
    sleep 480
    fiddle machine1 temperature inlet 38.6
    fault net loss 0.05
    sleep 120
    fault machine2 sensor stuck disk 45 for 600
    fault machine1 daemon crash tempd
    fault machine3 monitord stall for 30

Grammar (shell-style tokens, like fiddle commands)::

    fault <machine> sensor stuck   <component> [<value>] [for <seconds>]
    fault <machine> sensor dropout <component>           [for <seconds>]
    fault <machine> sensor spike   <component> <delta>   [for <seconds>]
    fault <machine> sensor noise   <component> <std>     [for <seconds>]
    fault net loss    <probability>                      [for <seconds>]
    fault net dup     <probability>                      [for <seconds>]
    fault net reorder <probability>                      [for <seconds>]
    fault net delay   <seconds>                          [for <seconds>]
    fault <machine> daemon crash <tempd|monitord>        [for <seconds>]
    fault <machine> monitord stall                       [for <seconds>]

:func:`parse_fault_command` turns one such line into a
:class:`~repro.faults.model.FaultSpec`; :func:`format_fault_command`
writes it back out (parse/format round-trip exactly).  A
:class:`FaultSchedule` pairs specs with absolute simulation-clock start
times and replays deterministically — the schedule itself contains no
randomness; all stochastic behaviour lives in the injector's seeded RNG.
"""

from __future__ import annotations

import math
import shlex
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import FaultError
from .model import DAEMON_NAMES, FaultKind, FaultSpec

#: sensor sub-verbs and whether their value token is required.
_SENSOR_VERBS = {
    "stuck": (FaultKind.SENSOR_STUCK, "optional"),
    "dropout": (FaultKind.SENSOR_DROPOUT, "forbidden"),
    "spike": (FaultKind.SENSOR_SPIKE, "required"),
    "noise": (FaultKind.SENSOR_NOISE, "required"),
}

_NET_VERBS = {
    "loss": FaultKind.NET_LOSS,
    "dup": FaultKind.NET_DUP,
    "reorder": FaultKind.NET_REORDER,
    "delay": FaultKind.NET_DELAY,
}


def _number(token: str, line: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FaultError(f"expected a finite number, got {token!r} in {line!r}")
    return value


def _split_duration(rest: List[str], line: str) -> Tuple[List[str], Optional[float]]:
    """Strip a trailing ``for <seconds>`` clause."""
    if "for" not in rest:
        return rest, None
    index = rest.index("for")
    tail = rest[index + 1:]
    if len(tail) != 1:
        raise FaultError(f"'for' takes exactly one duration in {line!r}")
    duration = _number(tail[0], line)
    return rest[:index], duration


def parse_fault_command(line: str) -> FaultSpec:
    """Parse one ``fault`` statement into a :class:`FaultSpec`."""
    tokens = shlex.split(line, comments=True)
    if not tokens:
        raise FaultError("empty fault command")
    if tokens[0] == "fault":
        tokens = tokens[1:]
    if len(tokens) < 2:
        raise FaultError(f"short fault command: {line!r}")
    rest, duration = _split_duration(tokens, line)
    if len(rest) < 2:
        raise FaultError(f"short fault command: {line!r}")
    target = rest[0]

    if target == "net":
        verb = rest[1]
        if verb not in _NET_VERBS:
            raise FaultError(
                f"unknown network fault {verb!r}; pick from "
                f"{sorted(_NET_VERBS)} in {line!r}"
            )
        if len(rest) != 3:
            raise FaultError(f"'fault net {verb}' takes one value: {line!r}")
        return FaultSpec(
            kind=_NET_VERBS[verb],
            value=_number(rest[2], line),
            duration=duration,
        )

    machine, verb = rest[0], rest[1]
    if verb == "sensor":
        if len(rest) < 4:
            raise FaultError(f"short sensor fault: {line!r}")
        sub, component, args = rest[2], rest[3], rest[4:]
        if sub not in _SENSOR_VERBS:
            raise FaultError(
                f"unknown sensor fault {sub!r}; pick from "
                f"{sorted(_SENSOR_VERBS)} in {line!r}"
            )
        kind, value_mode = _SENSOR_VERBS[sub]
        value: Optional[float] = None
        if value_mode == "forbidden":
            if args:
                raise FaultError(f"'sensor {sub}' takes no value: {line!r}")
        elif value_mode == "required":
            if len(args) != 1:
                raise FaultError(f"'sensor {sub}' needs one value: {line!r}")
            value = _number(args[0], line)
        else:  # optional (stuck)
            if len(args) > 1:
                raise FaultError(f"'sensor {sub}' takes at most one value: {line!r}")
            if args:
                value = _number(args[0], line)
        return FaultSpec(
            kind=kind, machine=machine, target=component,
            value=value, duration=duration,
        )

    if verb == "daemon":
        if len(rest) != 4 or rest[2] != "crash":
            raise FaultError(
                f"daemon faults are 'fault <machine> daemon crash <name>': {line!r}"
            )
        return FaultSpec(
            kind=FaultKind.DAEMON_CRASH,
            machine=machine,
            target=rest[3],
            duration=duration,
        )

    if verb == "monitord":
        if len(rest) != 3 or rest[2] != "stall":
            raise FaultError(
                f"monitord faults are 'fault <machine> monitord stall': {line!r}"
            )
        return FaultSpec(
            kind=FaultKind.MONITORD_STALL,
            machine=machine,
            target="monitord",
            duration=duration,
        )

    raise FaultError(
        f"unknown fault verb {verb!r}; expected 'sensor', 'daemon', "
        f"'monitord', or target 'net' in {line!r}"
    )


def format_fault_command(spec: FaultSpec) -> str:
    """Write a spec back as a ``fault`` statement (parse round-trips)."""
    parts: List[str]
    if spec.is_network:
        parts = ["fault", "net", spec.kind.value, repr(float(spec.value))]
    elif spec.is_sensor:
        parts = ["fault", shlex.quote(spec.machine), "sensor",
                 spec.kind.value, shlex.quote(spec.target)]
        if spec.value is not None:
            parts.append(repr(float(spec.value)))
    elif spec.kind is FaultKind.DAEMON_CRASH:
        parts = ["fault", shlex.quote(spec.machine), "daemon", "crash",
                 spec.target]
    else:  # MONITORD_STALL
        parts = ["fault", shlex.quote(spec.machine), "monitord", "stall"]
    if spec.duration is not None:
        # repr() keeps the parse/format round-trip exact.
        parts.extend(["for", repr(float(spec.duration))])
    return " ".join(parts)


def is_fault_command(line: str) -> bool:
    """True when a script line is a ``fault`` statement."""
    stripped = line.lstrip()
    return stripped.startswith("fault ") or stripped == "fault"


@dataclass(frozen=True)
class ScheduledFault:
    """One fault with an absolute simulation-clock start time."""

    start: float
    spec: FaultSpec

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise FaultError("fault start time must be non-negative")


class FaultSchedule:
    """An ordered, deterministic plan of faults on the simulation clock.

    Built either programmatically (:meth:`at`) or from script text
    (:meth:`from_script`, which accepts a full fiddle script and keeps
    only the fault statements).  The schedule is immutable once handed
    to an injector; replaying the same schedule with the same injector
    seed reproduces the run bit-for-bit.
    """

    def __init__(self, faults: Sequence[ScheduledFault] = ()) -> None:
        self._faults: List[ScheduledFault] = sorted(
            faults, key=lambda f: f.start
        )

    def at(self, start: float, spec: FaultSpec) -> "FaultSchedule":
        """Add one fault; returns self for chaining."""
        self._faults.append(ScheduledFault(start=start, spec=spec))
        self._faults.sort(key=lambda f: f.start)
        return self

    @classmethod
    def from_script(cls, text: str) -> "FaultSchedule":
        """Extract the fault statements of a fiddle script as a schedule."""
        from ..fiddle.script import parse_script

        schedule = cls()
        for command in parse_script(text):
            if is_fault_command(command.command):
                schedule.at(command.time, parse_fault_command(command.command))
        return schedule

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self):
        return iter(self._faults)

    def to_script(self) -> str:
        """Render the schedule as a standalone fiddle script."""
        lines = ["#!/bin/bash"]
        clock = 0.0
        for fault in self._faults:
            if fault.start > clock:
                lines.append(f"sleep {fault.start - clock!r}")
                clock = fault.start
            lines.append(format_fault_command(fault.spec))
        return "\n".join(lines) + "\n"
