"""admd: Freon's admission-control daemon at the load balancer.

Section 4.1: on an ADJUST message for a hot server, admd

* sets the server's LVS weight so it receives ``1/(output+1)`` of the
  load it is currently receiving, and
* "orders LVS to limit the maximum allowed number of concurrent requests
  to the hot server at the average number of concurrent requests over
  the last time interval" — which admd knows because it "wakes up
  periodically (every five seconds in our experiments) and queries LVS
  about this statistic".

A RELEASE message eliminates all restrictions; a REDLINE message makes
admd turn the server off ("Modern CPUs and disks turn themselves off
when these temperatures are reached; Freon extends the action to entire
servers").

admd acts on a :class:`~repro.control.view.MachineStateView`: LVS
weights, caps and statistics, and the power switch, for every row.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..freon.policy import FreonConfig, weight_for_share_reduction
from ..telemetry import ensure as _ensure_telemetry
from .tempd import (
    MSG_ADJUST,
    MSG_REDLINE,
    MSG_RELEASE,
    MSG_STATUS,
    TempdMessage,
)


class Admd:
    """The base Freon admission-control daemon."""

    def __init__(
        self,
        view,
        config: Optional[FreonConfig] = None,
        telemetry=None,
    ) -> None:
        # Imported here: repro.control composes this module.
        from ..control.view import POWER_ACTIVE

        self._active = POWER_ACTIVE
        self.view = view
        self.config = config or FreonConfig()
        self._row = {name: i for i, name in enumerate(view.machines)}
        self.telemetry = _ensure_telemetry(telemetry)
        self._tel_actions = {
            action: self.telemetry.counter(
                "freon_actuations_total", {"action": action},
                help="admd actuations on the load balancer, by action.",
            )
            for action in ("adjust", "release", "redline")
        }
        #: Rolling (time, connections per row) LVS samples.
        self._window: Deque[Tuple[float, "np.ndarray"]] = deque()
        #: Mean of the window, computed at most once between samples.
        self._average: Optional["np.ndarray"] = None
        self.adjustments: List[Tuple[float, str, float]] = []
        self.releases: List[Tuple[float, str]] = []
        self.redlined: List[Tuple[float, str]] = []

    # -- LVS statistics sampling -------------------------------------------

    def sample(self, now: float) -> None:
        """Record one LVS connection-count sample of every row."""
        window = self._window
        window.append((now, self.view.connections()))
        horizon = now - self.config.monitor_period
        while window and window[0][0] < horizon:
            window.popleft()
        self._average = None

    def average_connections(self, machine: str) -> float:
        """Mean concurrent connections over the last monitor period."""
        i = self._row[machine]
        if not self._window:
            return float(self.view.connections()[i])
        if self._average is None:
            total = None
            for _, connections in self._window:
                # Left fold, sample by sample, like a per-server sum().
                total = connections if total is None else total + connections
            self._average = total / len(self._window)
        return float(self._average[i])

    # -- message handling ------------------------------------------------------

    def deliver(self, message: TempdMessage) -> None:
        """Handle one tempd message."""
        if message.type == MSG_ADJUST:
            self._handle_adjust(message)
        elif message.type == MSG_RELEASE:
            self._handle_release(message)
        elif message.type == MSG_REDLINE:
            self._handle_redline(message)
        elif message.type == MSG_STATUS:
            self._handle_status(message)

    def _active_rows(self) -> "np.ndarray":
        return np.flatnonzero(self.view.power_states() == self._active)

    def _handle_adjust(self, message: TempdMessage) -> None:
        machine = message.machine
        view = self.view
        i = self._row[machine]
        if view.power_state(i) != self._active:
            return  # drained/booting machines take no load to shift
        weights = view.weights()
        new_weight = weight_for_share_reduction(
            {view.machines[j]: float(weights[j])
             for j in self._active_rows().tolist()},
            machine, message.output, telemetry=self.telemetry,
        )
        view.set_weight(i, new_weight)
        view.set_connection_cap(i, self.average_connections(machine))
        self.adjustments.append((message.time, machine, message.output))
        self._tel_actions["adjust"].inc()
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "freon_weight", {"machine": machine},
                help="Current LVS weight set by Freon.",
            ).set(new_weight)
            self.telemetry.event(
                "freon_adjust", "admd", machine=machine,
                output=message.output, weight=new_weight,
            )

    def _handle_release(self, message: TempdMessage) -> None:
        machine = message.machine
        i = self._row[machine]
        self.view.set_weight(i, self.config.base_weight)
        self.view.set_connection_cap(i, None)
        self.releases.append((message.time, machine))
        self._tel_actions["release"].inc()
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "freon_weight", {"machine": machine},
                help="Current LVS weight set by Freon.",
            ).set(self.config.base_weight)
            self.telemetry.event("freon_release", "admd", machine=machine)

    def _handle_redline(self, message: TempdMessage) -> None:
        machine = message.machine
        self.redlined.append((message.time, machine))
        self._tel_actions["redline"].inc()
        if self.telemetry.enabled:
            self.telemetry.event("freon_redline", "admd", machine=machine)
        self.view.set_power(self._row[machine], False)

    def _handle_status(self, message: TempdMessage) -> None:
        """Base Freon ignores STATUS; Freon-EC overrides this."""

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Statistics window and decision records as JSON-able data."""
        return {
            "window": [[t, c.tolist()] for t, c in self._window],
            "adjustments": [list(a) for a in self.adjustments],
            "releases": [list(r) for r in self.releases],
            "redlined": [list(r) for r in self.redlined],
        }

    def restore(self, data: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint`."""
        self._window = deque(
            (float(t), np.array(c, dtype=float)) for t, c in data["window"]
        )
        self._average = None
        self.adjustments = [
            (float(t), str(m), float(o)) for t, m, o in data["adjustments"]
        ]
        self.releases = [(float(t), str(m)) for t, m in data["releases"]]
        self.redlined = [(float(t), str(m)) for t, m in data["redlined"]]
