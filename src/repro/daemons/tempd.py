"""tempd: Freon's temperature daemon (paper section 4.1).

"A Freon process, called tempd or temperature daemon, at each server
monitors the temperature of the CPU(s) and disk(s) of the server.  Tempd
wakes up periodically (once per minute in our experiments) to check
component temperatures."  When any component exceeds its high threshold,
tempd sends admd the output of a PD feedback controller,

``output = max_c max(kp (T_c - T_h,c) + kd (T_c - T_last,c), 0)``

over the components ``c`` above their high threshold; it repeats that
every period until the component cools below the high threshold, and
orders admd to lift all restrictions once *every* component is below its
low threshold.  Past a red line it asks admd to turn the server off.

One :class:`Tempd` watches some rows of a
:class:`~repro.control.view.MachineStateView` and runs that state
machine on all of them at once, one NumPy column per component class.
The cluster stack builds one per machine, so sensor reads and datagram
fates keep their per-machine order; the scale stack builds one over the
whole room.  Temperatures come through the view's fault-injectable
sensor path — on real hardware tempd would read physical sensors; the
interface is identical, which is the whole point of Mercury.

For Freon-EC, tempd "also sends utilization information to admd
periodically" (``status=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..freon.policy import FreonConfig
from ..telemetry import ensure as _ensure_telemetry

#: Message types tempd emits.
MSG_ADJUST = "adjust"
MSG_RELEASE = "release"
MSG_REDLINE = "redline"
MSG_STATUS = "status"

@dataclass(frozen=True)
class TempdMessage:
    """One tempd -> admd datagram (as a structured value)."""

    type: str
    machine: str
    time: float
    output: float = 0.0
    temperatures: Dict[str, float] = field(default_factory=dict)
    utilizations: Dict[str, float] = field(default_factory=dict)


def _floats(values: "np.ndarray") -> List[Optional[float]]:
    """A float column as JSON data, ``None`` standing for NaN."""
    return [None if math.isnan(v) else v for v in values.tolist()]


class Tempd:
    """The temperature daemon of some machines.

    Parameters
    ----------
    view:
        The :class:`~repro.control.view.MachineStateView` to read and
        whose power states and daemon liveness gate each wake.
    send:
        Callable delivering one :class:`TempdMessage` toward admd.
    config:
        Thresholds, gains, and periods.
    rows:
        The view rows this daemon watches (default: all of them).
    status:
        Send a STATUS message with the utilizations after every good
        read (Freon-EC mode).

    The harness calls :meth:`wake` once per monitor period.  A row
    wakes only while its machine accepts load and its tempd is up; a
    row whose machine finished a (re)boot since the previous wake
    starts unrestricted.
    """

    def __init__(
        self,
        view,
        send: Callable[[TempdMessage], None],
        config: Optional[FreonConfig] = None,
        rows: Optional[Sequence[int]] = None,
        status: bool = False,
        telemetry=None,
    ) -> None:
        # Imported here: repro.control composes this module.
        from ..control.view import POWER_ACTIVE

        self._active = POWER_ACTIVE
        self.view = view
        self.config = config or FreonConfig()
        #: Component classes in the config's order (the read order).
        self.classes = tuple(self.config.thresholds)
        limits = [self.config.thresholds[c] for c in self.classes]
        #: Thresholds as (classes x 1) columns against (classes x rows).
        self._high = np.array([[t.high] for t in limits])
        self._low = np.array([[t.low] for t in limits])
        self._red = np.array([[t.red] for t in limits])
        every_row = rows is None
        if every_row:
            rows = range(len(view.machines))
        self._rows = np.array(rows, dtype=np.int64)
        #: Selects this daemon's rows of a full view column (a slice,
        #: which does not copy, when it watches every row).
        self._sel = slice(None) if every_row else self._rows
        self._mask = np.zeros(len(view.machines), dtype=bool)
        self.machines = tuple(view.machines[r] for r in self._rows.tolist())
        self._local = {name: j for j, name in enumerate(self.machines)}
        self._send = send
        self._status = status
        n = len(self._rows)
        #: True while admd has restrictions in place for the machine.
        self.restricted = np.zeros(n, dtype=bool)
        #: Machines that accepted load at the previous wake.
        self._was_active = np.ones(n, dtype=bool)
        #: Last good reading (classes x rows), and when it was taken
        #: (NaN: never, or forgotten by a restart).
        self._good_T = np.full((len(self.classes), n), np.nan)
        self._last_good = np.full(n, np.nan)
        #: The PD controllers hold a previous reading (their derivative
        #: state); cleared by a release and by a restart.
        self._seen = np.zeros(n, dtype=bool)
        #: Output of the most recent ADJUST (NaN: none), re-sent while
        #: the sensors are briefly unreadable.
        self._last_output = np.full(n, np.nan)
        self.messages_sent = 0
        self.read_failures = 0
        self.stale_wakes = 0
        self.conservative_wakes = 0
        self.telemetry = _ensure_telemetry(telemetry)
        self._tel = None
        if self.telemetry.enabled:
            self._tel = [self._row_metrics(name) for name in self.machines]

    def _row_metrics(self, machine: str):
        labels = {"machine": machine}
        counter = self.telemetry.counter
        return (
            counter("tempd_wakes_total", labels,
                    help="tempd monitor-period wake-ups."),
            counter("tempd_read_failures_total", labels,
                    help="Wake-ups whose sensor read failed."),
            counter("tempd_stale_wakes_total", labels,
                    help="Failed-read wake-ups holding the last-known-good "
                         "posture."),
            counter("tempd_conservative_wakes_total", labels,
                    help="Failed-read wake-ups falling back to conservative "
                         "throttling."),
            self.telemetry.gauge(
                "tempd_pd_output", labels,
                help="Most recent PD-controller output sent to admd."),
        )

    # -- the wake -------------------------------------------------------------

    def wake(self, now: float) -> int:
        """One wake-up of every row: read, decide, send.

        Returns how many rows were awake.
        """
        view = self.view
        sel = self._sel
        active = view.power_states()[sel] == self._active
        # A finished (re)boot rejoins the balancer unrestricted.
        self.restricted &= self._was_active | ~active
        self._was_active = active
        awake = active & view.daemons_up()[sel]
        if not awake.any():
            return 0
        mask = self._mask
        mask[sel] = awake
        temps = view.read_temperatures(self.classes, mask=mask)
        mask[sel] = False
        config = self.config
        T = np.array([temps[c][sel] for c in self.classes])
        failed = awake & np.isnan(T).any(axis=0)
        ok = awake ^ failed

        above = T > self._high
        hot = ok & above.any(axis=0)
        # The PD controller runs only while a component is above T_h, and
        # a red line lies above T_h: without a hot row neither acts.
        output = np.zeros(len(awake))
        red = adjust = hot
        if hot.any():
            # First observation: the derivative term contributes nothing.
            previous = np.where(self._seen, self._good_T, T)
            pd = np.maximum(
                config.kp * (T - self._high) + config.kd * (T - previous),
                0.0,
            )
            output = np.where(above, pd, 0.0).max(axis=0)
            red = ok & (T >= self._red).any(axis=0)
            self.restricted[hot] = True
            self._last_output[hot] = output[hot]
        release = ok & self.restricted & (T < self._low).all(axis=0)
        self.restricted[release] = False
        np.copyto(self._good_T, T, where=ok)
        self._seen |= ok
        self._seen[release] = False
        self._last_good[ok] = now
        fresh = conservative = failed  # no read failed: all False
        sent_output = output
        if failed.any():
            # Hold the last posture while the last good read is fresh
            # enough, otherwise throttle conservatively.
            fresh = failed & (
                now - self._last_good <= config.sensor_staleness_limit + 1e-9
            )
            hold = fresh & self.restricted & ~np.isnan(self._last_output)
            conservative = failed & ~fresh
            adjust = hot | hold | conservative
            sent_output = np.where(hold, self._last_output, output)
            sent_output[conservative] = config.conservative_output
            self.restricted[conservative] = True
            self._last_output[conservative] = config.conservative_output
            self.read_failures += int(failed.sum())
            self.stale_wakes += int(fresh.sum())
            self.conservative_wakes += int(conservative.sum())
        busy = awake if self._tel is not None else (
            red | adjust | release | (ok if self._status else False)
        )
        rows = busy.nonzero()[0].tolist()
        if rows:
            utilizations = (
                view.read_utilizations(self.classes)
                if self._status and ok.any() else None
            )
            for j in rows:
                self._emit(
                    j, now, bool(failed[j]), bool(fresh[j]), bool(red[j]),
                    bool(adjust[j]), bool(release[j]),
                    float(sent_output[j]), utilizations,
                )
        return int(awake.sum())

    def _emit(self, j, now, failed, fresh, red, adjust, release, output,
              utilizations) -> None:
        """Send one row's messages, in tempd's order: REDLINE, then
        ADJUST or RELEASE, then STATUS."""
        machine = self.machines[j]
        tel = self._tel[j] if self._tel is not None else None
        if tel is not None:
            tel[0].inc()
            if failed:
                tel[1].inc()
                if fresh:
                    tel[2].inc()
                    self.telemetry.event(
                        "tempd_stale_hold", "tempd", machine=machine,
                        restricted=bool(self.restricted[j]),
                    )
                else:
                    tel[3].inc()
                    self.telemetry.event(
                        "tempd_conservative_fallback", "tempd",
                        machine=machine, output=output,
                    )
                    tel[4].set(output)
            elif adjust:
                tel[4].set(output)
        status = utilizations is not None and not failed
        if not (red or adjust or release or status):
            return
        # A good read just became the last good one; a failed read
        # carries the last good one, if any.
        temperatures = (
            {} if math.isnan(self._last_good[j]) else self._readings(j)
        )
        sent: List[TempdMessage] = []
        if red:
            sent.append(TempdMessage(
                type=MSG_REDLINE, machine=machine, time=now,
                temperatures=temperatures,
            ))
        if adjust:
            sent.append(TempdMessage(
                type=MSG_ADJUST, machine=machine, time=now, output=output,
                temperatures=temperatures,
            ))
        elif release:
            sent.append(TempdMessage(
                type=MSG_RELEASE, machine=machine, time=now,
                temperatures=temperatures,
            ))
        if status:
            row = self._rows[j]
            sent.append(TempdMessage(
                type=MSG_STATUS, machine=machine, time=now,
                temperatures=temperatures,
                utilizations={
                    c: float(utilizations[c][row]) for c in self.classes
                },
            ))
        for message in sent:
            self._send(message)
        self.messages_sent += len(sent)
        if tel is not None:
            for message in sent:
                self.telemetry.counter(
                    "tempd_messages_total",
                    {"machine": machine, "type": message.type},
                    help="tempd messages sent to admd, by type.",
                ).inc()

    def _readings(self, j: int) -> Dict[str, float]:
        """Row ``j``'s last good reading, by class."""
        return dict(zip(self.classes, self._good_T[:, j].tolist()))

    # -- restart / checkpoint ----------------------------------------------

    def restart(self, machine: str) -> None:
        """A supervisor restarted this machine's tempd.

        Its PD derivative, last output and last good reading are lost
        with the process; whether admd holds restrictions for the
        machine is handed over on reconnect, and the resilience counts
        keep counting.
        """
        j = self._local[machine]
        self._seen[j] = False
        self._last_output[j] = np.nan
        self._last_good[j] = np.nan

    def checkpoint(self) -> Dict[str, object]:
        """Decision state and counts as plain JSON-able data."""
        return {
            "restricted": self.restricted.tolist(),
            "was_active": self._was_active.tolist(),
            "good_T": {
                c: _floats(a) for c, a in zip(self.classes, self._good_T)
            },
            "last_good": _floats(self._last_good),
            "seen": self._seen.tolist(),
            "last_output": _floats(self._last_output),
            "messages_sent": self.messages_sent,
            "read_failures": self.read_failures,
            "stale_wakes": self.stale_wakes,
            "conservative_wakes": self.conservative_wakes,
        }

    def restore(self, data: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint`."""
        self.restricted = np.array(data["restricted"], dtype=bool)
        self._was_active = np.array(data["was_active"], dtype=bool)
        self._good_T = np.array(
            [data["good_T"][c] for c in self.classes], dtype=float
        )
        self._last_good = np.array(data["last_good"], dtype=float)
        self._seen = np.array(data["seen"], dtype=bool)
        self._last_output = np.array(data["last_output"], dtype=float)
        self.messages_sent = int(data["messages_sent"])
        self.read_failures = int(data["read_failures"])
        self.stale_wakes = int(data["stale_wakes"])
        self.conservative_wakes = int(data["conservative_wakes"])
