"""fiddle scripts: timed sequences of fiddle commands (Figure 4).

The paper drives emergencies with small shell scripts::

    #!/bin/bash
    sleep 100
    fiddle machine1 temperature inlet 30
    sleep 200
    fiddle machine1 temperature inlet 21.6

:func:`parse_script` accepts exactly that surface syntax (``sleep N``
accumulates simulated time; ``fiddle ...`` lines are
:mod:`repro.fiddle.tool` commands; ``#`` comments and the shebang are
ignored) and produces :class:`TimedCommand` entries.  These convert to
:class:`~repro.core.trace.TimedEvent` objects for the offline solver, or
are applied live by :class:`ScriptRunner` inside a simulation loop.

The grammar also admits ``fault`` statements (see
:mod:`repro.faults.schedule`), so thermal emergencies and infrastructure
failures compose in one script::

    sleep 480
    fiddle machine1 temperature inlet 38.6
    fault net loss 0.05

Fault statements need a :class:`~repro.faults.injector.FaultInjector` at
run time; :class:`ScriptRunner` routes them there, while the offline
solver path (:func:`to_events`) rejects them — the offline solver has no
sensors or daemons to break.

:func:`write_script` renders timed commands back to script text;
``parse_script(write_script(parse_script(s)))`` is the identity on the
parsed form.
"""

from __future__ import annotations

import math
import shlex
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.solver import Solver
from ..core.trace import TimedEvent
from ..errors import FaultError, FiddleError, FiddleScriptError
from ..faults.schedule import is_fault_command, parse_fault_command
from ..telemetry import ensure as _ensure_telemetry
from .tool import Fiddle


@dataclass(frozen=True)
class TimedCommand:
    """One fiddle command scheduled at an absolute simulated time."""

    time: float
    command: str


def parse_script(text: str) -> List[TimedCommand]:
    """Parse a Figure 4-style fiddle script into timed commands."""
    commands: List[TimedCommand] = []
    clock = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = shlex.split(line, comments=True)
        if not tokens:
            continue
        if tokens[0] == "sleep":
            if len(tokens) != 2:
                raise FiddleScriptError(
                    f"line {lineno}: sleep takes one argument", line=lineno
                )
            try:
                delay = float(tokens[1])
            except ValueError:
                delay = math.nan
            if not 0.0 <= delay < math.inf:
                raise FiddleScriptError(
                    f"line {lineno}: bad sleep duration {tokens[1]!r}",
                    line=lineno,
                )
            clock += delay
        elif tokens[0] == "fiddle":
            commands.append(TimedCommand(time=clock, command=line))
        elif tokens[0] == "fault":
            try:
                parse_fault_command(line)  # validate eagerly, like fiddle's shape
            except FaultError as exc:
                # parse_fault_command and FaultSpec validation raise only
                # FaultError; anything else is a genuine bug and should
                # propagate rather than be masked as a script error.
                raise FiddleScriptError(
                    f"line {lineno}: {exc}", line=lineno
                ) from None
            commands.append(TimedCommand(time=clock, command=line))
        else:
            raise FiddleScriptError(
                f"line {lineno}: expected 'sleep', 'fiddle' or 'fault', "
                f"got {tokens[0]!r}",
                line=lineno,
            )
    return commands


def write_script(commands: Sequence[TimedCommand]) -> str:
    """Render timed commands back to Figure 4 script text.

    Emits a shebang, ``sleep`` lines for the gaps, and the command lines
    in time order.  Round-trips: parsing the output reproduces the input
    commands exactly.
    """
    lines = ["#!/bin/bash"]
    clock = 0.0
    for command in sorted(commands, key=lambda c: c.time):
        if command.time > clock:
            # repr() is the shortest exact form, so parsing round-trips.
            lines.append(f"sleep {command.time - clock!r}")
            clock = command.time
        lines.append(command.command)
    return "\n".join(lines) + "\n"


def to_events(commands: Sequence[TimedCommand]) -> List[TimedEvent]:
    """Convert timed commands into offline-solver events.

    Fault statements are rejected: the offline solver has no sensors,
    datagrams, or daemons to break — run those through
    :class:`~repro.cluster.simulation.ClusterSimulation` instead.
    """

    def make_action(command: str):
        def action(solver: Solver) -> None:
            Fiddle(solver).command(command)

        return action

    for cmd in commands:
        if is_fault_command(cmd.command):
            raise FiddleError(
                f"fault statements need a running cluster simulation, not "
                f"the offline solver: {cmd.command!r}"
            )
    return [
        TimedEvent(time=cmd.time, action=make_action(cmd.command), label=cmd.command)
        for cmd in commands
    ]


def events_from_script(text: str) -> List[TimedEvent]:
    """Parse a script and return offline-solver events in one step."""
    return to_events(parse_script(text))


class ScriptRunner:
    """Applies a parsed script against a live solver as time advances.

    Call :meth:`advance_to` with the current simulated time; every
    command whose timestamp has been reached fires exactly once, in
    order.  ``fiddle`` commands mutate the solver; ``fault`` commands go
    to the ``injector`` (required if the script contains any).
    """

    def __init__(
        self,
        solver: Solver,
        commands: Sequence[TimedCommand],
        injector: Optional[object] = None,
        telemetry=None,
    ) -> None:
        self._fiddle = Fiddle(solver)
        self._commands = sorted(commands, key=lambda c: c.time)
        self._next = 0
        self._injector = injector
        self.telemetry = _ensure_telemetry(telemetry)
        if injector is None and any(
            is_fault_command(c.command) for c in self._commands
        ):
            raise FiddleError(
                "script contains fault statements but no fault injector "
                "was provided"
            )

    @property
    def pending(self) -> int:
        """Commands not yet fired."""
        return len(self._commands) - self._next

    @property
    def commands(self) -> List[TimedCommand]:
        """The parsed commands, in firing order (snapshot)."""
        return list(self._commands)

    @property
    def fiddle(self) -> Fiddle:
        """The underlying Fiddle (exposes the audit log)."""
        return self._fiddle

    def fire(self, index: int) -> str:
        """Fire exactly one command (the event-kernel entry point).

        Commands fire strictly in order: ``index`` must be the cursor
        position, which the kernel guarantees because it schedules one
        event per command with the parse order as the tie-breaker.
        """
        if index != self._next:
            raise FiddleError(
                f"script commands must fire in order: expected index "
                f"{self._next}, got {index}"
            )
        entry = self._commands[index]
        if is_fault_command(entry.command):
            self._injector.inject(
                parse_fault_command(entry.command), now=entry.time
            )
        else:
            self._fiddle.command(entry.command)
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "fiddle_commands_total",
                    help="fiddle script commands applied to the solver.",
                ).inc()
                self.telemetry.event(
                    "fiddle_command", "fiddle", command=entry.command,
                )
        self._next += 1
        return entry.command

    def advance_to(self, time: float) -> List[str]:
        """Fire all commands due at or before ``time``; returns them."""
        fired: List[str] = []
        while (
            self._next < len(self._commands)
            and self._commands[self._next].time <= time
        ):
            fired.append(self.fire(self._next))
        return fired
