"""Runtime fault injection: hooks, the lossy channel, and the watchdog.

The :class:`FaultInjector` is the single runtime authority on "what is
broken right now".  It is driven by the simulation clock
(:meth:`FaultInjector.advance_to`) and consulted from hook points wired
through the stack:

* :class:`~repro.sensors.server.SensorService` passes every reading
  through :meth:`filter_sensor`;
* the tempd -> admd datagram path runs through a :class:`LossyChannel`,
  which asks :meth:`datagram_fate` about each message;
* :class:`~repro.cluster.simulation.ClusterSimulation` checks
  :meth:`daemon_up` and :attr:`silenced_monitords` before ticking
  daemons;
* :class:`DaemonWatchdog` restarts daemons the injector reports crashed.

Everything stochastic draws from one seeded RNG, so replaying the same
fault schedule with the same seed reproduces a run bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..errors import FaultError, SensorError
from ..telemetry import ensure as _ensure_telemetry
from .model import FaultKind, FaultSpec
from .schedule import FaultSchedule, ScheduledFault

#: Seconds a reordered datagram is held back, letting later ones overtake.
REORDER_HOLD = 2.5


@dataclass
class ActiveFault:
    """One fault currently in force."""

    spec: FaultSpec
    start: float
    #: Absolute end time, or None for open-ended faults.
    end: Optional[float]
    #: Per-fault scratch state (e.g. the frozen stuck-at value).
    state: Dict[str, float] = field(default_factory=dict)


class FaultInjector:
    """Seeded, clock-driven fault state machine."""

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self._pending: List[ScheduledFault] = sorted(
            schedule or [], key=lambda f: f.start
        )
        self._next = 0
        self._active: List[ActiveFault] = []
        #: Index of ``_active`` for the per-machine daemon hooks, rebuilt
        #: by :meth:`_reindex` on every change to the active list: the
        #: crashed daemons as (machine, daemon) pairs and as (machine,
        #: daemon, down-since) tuples in active-list order, and the
        #: machines whose monitord is crashed or stalled.
        self._crashed: FrozenSet[Tuple[str, str]] = frozenset()
        self._crashes: List[Tuple[str, str, float]] = []
        self._silenced: FrozenSet[str] = frozenset()
        self.now = 0.0
        #: Audit log of (time, event) entries.  Bit-identical replay
        #: tests compare this list verbatim, so it stays authoritative;
        #: telemetry events mirror it when a facade is attached.
        self.log: List[Tuple[float, str]] = []
        #: Telemetry facade mirroring the audit log; the simulation
        #: harness rebinds this when it owns an enabled facade.
        self.telemetry = _ensure_telemetry(telemetry)
        #: Counters for summaries and tests.
        self.sensor_faulted_reads = 0
        self.sensor_dropped_reads = 0

    def _note(self, time: float, text: str) -> None:
        """Append one audit-log entry, mirrored as a telemetry event."""
        self.log.append((time, text))
        if self.telemetry.enabled:
            kind = text.split(" ", 1)[0]
            self.telemetry.counter(
                "fault_log_entries_total", {"kind": kind},
                help="Fault-injector audit-log entries, by kind.",
            ).inc()
            self.telemetry.event("fault_" + kind, "faults", detail=text)

    # -- lifecycle ---------------------------------------------------------

    def schedule(self, start: float, spec: FaultSpec) -> None:
        """Add one fault to the pending schedule.

        Raises :class:`~repro.errors.FaultError`, changing nothing, for a
        ``start`` before the injector's clock.  A later (or equal) start
        sorts behind every fault already fired, so the cursor stays on
        the first unfired one.
        """
        if start < self.now:
            raise FaultError(
                f"cannot schedule a fault at t={start:g} s, before the "
                f"injector clock (t={self.now:g} s)"
            )
        self._pending.append(ScheduledFault(start=start, spec=spec))
        self._pending.sort(key=lambda f: f.start)

    def inject(self, spec: FaultSpec, now: Optional[float] = None) -> ActiveFault:
        """Activate a fault immediately (script statements land here)."""
        if now is None:
            now = self.now
        end = now + spec.duration if spec.duration is not None else None
        active = ActiveFault(spec=spec, start=now, end=end)
        self._active.append(active)
        self._reindex()
        self._note(now, f"inject {spec.describe()}")
        return active

    def advance_to(self, now: float) -> None:
        """Move the clock: fire due scheduled faults, expire finished ones."""
        self.now = now
        while self._next < len(self._pending) and (
            self._pending[self._next].start <= now
        ):
            entry = self._pending[self._next]
            self.inject(entry.spec, now=entry.start)
            self._next += 1
        if self._active:
            expired = [
                f for f in self._active if f.end is not None and f.end <= now
            ]
            for fault in expired:
                self._active.remove(fault)
                self._reindex()
                self._note(now, f"expire {fault.spec.describe()}")

    def clear(self, kind: Optional[FaultKind] = None) -> int:
        """Deactivate faults (all, or all of one kind); returns the count."""
        victims = [
            f for f in self._active if kind is None or f.spec.kind is kind
        ]
        for fault in victims:
            self._active.remove(fault)
            self._reindex()
            self._note(self.now, f"clear {fault.spec.describe()}")
        return len(victims)

    @property
    def active(self) -> List[ActiveFault]:
        """Faults currently in force (snapshot)."""
        return list(self._active)

    def _reindex(self) -> None:
        """Rebuild the daemon index from the active list."""
        crashes = [
            (f.spec.machine, f.spec.target, f.start)
            for f in self._active
            if f.spec.kind is FaultKind.DAEMON_CRASH
        ]
        self._crashes = crashes
        self._crashed = frozenset((m, d) for m, d, _ in crashes)
        self._silenced = frozenset(
            [m for m, d, _ in crashes if d == "monitord"]
            + [
                f.spec.machine
                for f in self._active
                if f.spec.kind is FaultKind.MONITORD_STALL
            ]
        )

    def _matching(self, *kinds: FaultKind) -> List[ActiveFault]:
        if not self._active:  # hot path: most ticks have no faults at all
            return []
        return [f for f in self._active if f.spec.kind in kinds]

    # -- sensor hook -------------------------------------------------------

    def filter_sensor(self, machine: str, component: str, value: float) -> float:
        """Apply active sensor faults to one reading.

        Raises :class:`~repro.errors.SensorError` while a dropout fault
        covers the sensor.
        """
        for fault in self._active:
            spec = fault.spec
            if not spec.is_sensor:
                continue
            if spec.machine != machine or spec.target.lower() != component.lower():
                continue
            self.sensor_faulted_reads += 1
            if spec.kind is FaultKind.SENSOR_DROPOUT:
                self.sensor_dropped_reads += 1
                raise SensorError(
                    f"injected dropout: sensor {component!r} on "
                    f"{machine!r} is not responding"
                )
            if spec.kind is FaultKind.SENSOR_STUCK:
                if "value" not in fault.state:
                    fault.state["value"] = (
                        spec.value if spec.value is not None else value
                    )
                value = fault.state["value"]
            elif spec.kind is FaultKind.SENSOR_SPIKE:
                value = value + spec.value
            elif spec.kind is FaultKind.SENSOR_NOISE:
                value = value + self._rng.gauss(0.0, spec.value)
        return value

    # -- network hook ------------------------------------------------------

    def datagram_fate(self) -> Tuple[bool, bool, float]:
        """Decide one datagram's fate: (dropped, duplicated, delay).

        Loss wins over everything; duplication and delay compose.  The
        delay combines fixed ``NET_DELAY`` faults with a probabilistic
        ``NET_REORDER`` hold-back.
        """
        dropped = False
        duplicated = False
        delay = 0.0
        for fault in self._matching(FaultKind.NET_LOSS):
            if self._rng.random() < fault.spec.value:
                dropped = True
        # Keep the RNG stream position independent of outcomes: every
        # active probabilistic fault consumes exactly one draw per
        # datagram, so fates stay reproducible under composition.
        for fault in self._matching(FaultKind.NET_DUP):
            if self._rng.random() < fault.spec.value:
                duplicated = True
        for fault in self._matching(FaultKind.NET_REORDER):
            if self._rng.random() < fault.spec.value:
                delay += REORDER_HOLD
        for fault in self._matching(FaultKind.NET_DELAY):
            delay += fault.spec.value
        return dropped, duplicated, delay

    # -- daemon hooks ------------------------------------------------------

    def daemon_up(self, machine: str, daemon: str) -> bool:
        """False while a crash fault covers the daemon."""
        return (machine, daemon) not in self._crashed

    def crashed_daemons(self) -> List[Tuple[str, str, float]]:
        """All crashed daemons as (machine, daemon, down-since) tuples."""
        return list(self._crashes)

    def restart_daemon(
        self, machine: str, daemon: str, now: Optional[float] = None
    ) -> bool:
        """Clear the crash fault covering a daemon (watchdog action).

        ``now`` stamps the audit-log entry; the watchdog passes its own
        clock, which may be one tick ahead of the injector's.
        """
        for fault in self._matching(FaultKind.DAEMON_CRASH):
            if fault.spec.machine == machine and fault.spec.target == daemon:
                self._active.remove(fault)
                self._reindex()
                self._note(
                    self.now if now is None else now,
                    f"restart {machine}/{daemon}",
                )
                return True
        return False

    @property
    def any_active(self) -> bool:
        """True while any injected fault is live (hot-path pre-check)."""
        return bool(self._active)

    @property
    def silenced_monitords(self) -> FrozenSet[str]:
        """Machines whose monitord is stalled or crashed right now."""
        return self._silenced

    def monitord_active(self, machine: str) -> bool:
        """False while monitord is stalled or crashed on a machine."""
        return machine not in self._silenced

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the injector as plain JSON-able data.

        Fault specs round-trip through the ``fault`` statement grammar
        (:func:`~repro.faults.schedule.format_fault_command`), and the
        RNG state through ``random.Random.getstate()``, so a restored
        injector continues the exact same stochastic stream.
        """
        from .schedule import format_fault_command

        version, internal, gauss_next = self._rng.getstate()
        return {
            "seed": self.seed,
            "rng_state": [version, list(internal), gauss_next],
            "now": self.now,
            "next": self._next,
            "pending": [
                {"start": f.start, "command": format_fault_command(f.spec)}
                for f in self._pending
            ],
            "active": [
                {
                    "command": format_fault_command(f.spec),
                    "start": f.start,
                    "end": f.end,
                    "state": dict(f.state),
                }
                for f in self._active
            ],
            "log": [[t, text] for t, text in self.log],
            "sensor_faulted_reads": self.sensor_faulted_reads,
            "sensor_dropped_reads": self.sensor_dropped_reads,
        }

    def restore(self, data: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint` onto this injector."""
        from .schedule import parse_fault_command

        version, internal, gauss_next = data["rng_state"]
        self._rng.setstate((int(version), tuple(internal), gauss_next))
        self.seed = int(data["seed"])
        self.now = float(data["now"])
        self._next = int(data["next"])
        self._pending = [
            ScheduledFault(
                start=float(entry["start"]),
                spec=parse_fault_command(entry["command"]),
            )
            for entry in data["pending"]
        ]
        self._active = [
            ActiveFault(
                spec=parse_fault_command(entry["command"]),
                start=float(entry["start"]),
                end=None if entry["end"] is None else float(entry["end"]),
                state={k: float(v) for k, v in entry["state"].items()},
            )
            for entry in data["active"]
        ]
        self._reindex()
        self.log = [(float(t), str(text)) for t, text in data["log"]]
        self.sensor_faulted_reads = int(data["sensor_faulted_reads"])
        self.sensor_dropped_reads = int(data["sensor_dropped_reads"])


class LossyChannel:
    """The tempd -> admd datagram path with injectable misbehaviour.

    Wraps a ``deliver`` callable (typically ``Admd.deliver``).  Sends are
    stamped with the injector's clock; :meth:`flush` delivers everything
    due, in (due-time, send-order) order, so delayed datagrams really are
    overtaken by later ones.

    ``clock`` and ``latency`` serve the event-kernel's real-latency
    mode: with a clock attached, sends are stamped at ``clock.now``
    (the kernel's dispatch time, which can sit between solver ticks)
    instead of the injector's tick-grid clock, and every datagram pays
    ``latency`` seconds of base network transit on top of any injected
    delay.  :meth:`next_due` then tells the harness when to schedule
    the next delivery event.
    """

    def __init__(
        self,
        deliver: Callable[[object], None],
        injector: FaultInjector,
        clock=None,
        latency: float = 0.0,
    ) -> None:
        if latency < 0.0:
            raise FaultError("channel latency must be non-negative")
        self._deliver = deliver
        self._injector = injector
        self._clock = clock
        self.latency = latency
        self._pending: List[Tuple[float, int, object]] = []
        self._seq = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def _count(self, fate: str, amount: int = 1) -> None:
        """Mirror one int counter into the injector's telemetry facade."""
        telemetry = self._injector.telemetry
        if telemetry.enabled:
            telemetry.counter(
                "freon_datagrams_total", {"fate": fate},
                help="tempd -> admd datagrams through the lossy channel, by fate.",
            ).inc(amount)

    def __call__(self, message: object) -> None:
        """Send one message through the faulty network."""
        now = self._injector.now
        if self._clock is not None:
            now = max(now, self._clock.now)
        self.sent += 1
        self._count("sent")
        dropped, duplicated, delay = self._injector.datagram_fate()
        if dropped:
            self.dropped += 1
            self._count("dropped")
            self._injector._note(now, "datagram dropped")
            return
        if delay > 0.0:
            self.delayed += 1
            self._count("delayed")
        copies = 2 if duplicated else 1
        if duplicated:
            self.duplicated += 1
            self._count("duplicated")
        for _ in range(copies):
            self._pending.append((now + delay + self.latency, self._seq, message))
            self._seq += 1

    def flush(self, now: float) -> int:
        """Deliver every message due at or before ``now``; returns count."""
        if not self._pending:
            return 0
        due = [entry for entry in self._pending if entry[0] <= now]
        if not due:
            return 0
        self._pending = [entry for entry in self._pending if entry[0] > now]
        for _, _, message in sorted(due, key=lambda e: (e[0], e[1])):
            self._deliver(message)
            self.delivered += 1
        self._count("delivered", len(due))
        return len(due)

    @property
    def in_flight(self) -> int:
        """Messages queued but not yet delivered."""
        return len(self._pending)

    def next_due(self) -> Optional[float]:
        """Due time of the earliest in-flight message, or ``None``."""
        if not self._pending:
            return None
        return min(entry[0] for entry in self._pending)

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(
        self, encode: Callable[[object], object] = lambda m: m
    ) -> Dict[str, object]:
        """Snapshot counters and in-flight messages.

        ``encode`` converts each queued message to JSON-able data (the
        cluster harness passes ``dataclasses.asdict`` for
        :class:`~repro.daemons.tempd.TempdMessage`).
        """
        return {
            "pending": [
                [due, seq, encode(message)]
                for due, seq, message in self._pending
            ],
            "seq": self._seq,
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }

    def restore(
        self,
        data: Dict[str, object],
        decode: Callable[[object], object] = lambda m: m,
    ) -> None:
        """Restore a :meth:`checkpoint`; ``decode`` inverts ``encode``."""
        self._pending = [
            (float(due), int(seq), decode(message))
            for due, seq, message in data["pending"]
        ]
        self._seq = int(data["seq"])
        self.sent = int(data["sent"])
        self.delivered = int(data["delivered"])
        self.dropped = int(data["dropped"])
        self.duplicated = int(data["duplicated"])
        self.delayed = int(data["delayed"])


@dataclass(frozen=True)
class RestartEvent:
    """One watchdog-initiated daemon restart."""

    time: float
    machine: str
    daemon: str


class DaemonWatchdog:
    """Detects crashed daemons and restarts them after a delay.

    ``restart`` is the harness hook that actually rebuilds the daemon
    (e.g. giving a restarted tempd a fresh controller bank); the
    watchdog first clears the injector's crash fault, then calls it.
    """

    def __init__(
        self,
        injector: FaultInjector,
        restart: Callable[[str, str], None],
        check_period: float = 5.0,
        restart_delay: float = 10.0,
    ) -> None:
        if check_period <= 0.0 or restart_delay < 0.0:
            raise FaultError("watchdog periods must be positive")
        self._injector = injector
        self._restart = restart
        self.check_period = check_period
        self.restart_delay = restart_delay
        self._elapsed = 0.0
        self.events: List[RestartEvent] = []

    def tick(self, dt: float, now: float) -> List[RestartEvent]:
        """Advance the watchdog clock; restart overdue daemons."""
        self._elapsed += dt
        if self._elapsed + 1e-9 < self.check_period:
            return []
        self._elapsed = 0.0
        return self.check(now)

    def check(self, now: float) -> List[RestartEvent]:
        """One watchdog pass (the event-kernel entry point)."""
        fired: List[RestartEvent] = []
        for machine, daemon, since in self._injector.crashed_daemons():
            if now - since + 1e-9 < self.restart_delay:
                continue
            self._injector.restart_daemon(machine, daemon, now=now)
            self._restart(machine, daemon)
            event = RestartEvent(time=now, machine=machine, daemon=daemon)
            self.events.append(event)
            fired.append(event)
            telemetry = self._injector.telemetry
            if telemetry.enabled:
                telemetry.counter(
                    "watchdog_restarts_total", {"daemon": daemon},
                    help="Daemon restarts performed by the watchdog.",
                ).inc()
                telemetry.event(
                    "watchdog_restart", "watchdog",
                    machine=machine, daemon=daemon, down_for=now - since,
                )
        return fired

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the watchdog clock and restart history."""
        return {
            "elapsed": self._elapsed,
            "events": [
                {"time": e.time, "machine": e.machine, "daemon": e.daemon}
                for e in self.events
            ],
        }

    def restore(self, data: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint` onto this watchdog."""
        self._elapsed = float(data["elapsed"])
        self.events = [
            RestartEvent(
                time=float(e["time"]),
                machine=str(e["machine"]),
                daemon=str(e["daemon"]),
            )
            for e in data["events"]
        ]
