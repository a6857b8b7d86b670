"""Freon-EC: combined energy conservation and thermal management (4.2).

Freon-EC keeps Freon's structure (tempd + admd) but admd additionally
implements the Figure 10 loop:

* servers are associated with physical **regions**; emergencies are
  counted per region;
* the cluster is **reconfigured** for energy: servers are turned off
  whenever the remaining ones can absorb the load below ``U_l`` average
  utilization, and turned (back) on when the *projected* utilization of
  any component exceeds ``U_h`` — projections extrapolate two observation
  intervals ahead assuming linear load growth;
* when a component crosses its high threshold: if every server in the
  cluster is needed, fall back to base Freon's weight adjustment;
  otherwise *turn the hot server off*, first turning on a replacement
  (preferably from a region not under emergency) if the remaining active
  servers could not absorb the load.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from ..config import table1
from ..daemons.admd import Admd
from ..daemons.tempd import TempdMessage
from ..errors import SensorError
from ..freon.policy import FreonConfig
from .regions import RegionMap


@dataclass(frozen=True)
class EcEvent:
    """One reconfiguration decision, for experiment records."""

    time: float
    action: str  # "on" | "off"
    machine: str
    reason: str


class AdmdEC(Admd):
    """admd with the Freon-EC energy/thermal policy of Figure 10.

    Regions come from the view's :meth:`region_of`; powering machines
    on and off goes through its power switch.
    """

    def __init__(
        self,
        view,
        config: Optional[FreonConfig] = None,
        util_high: float = table1.EC_UTIL_HIGH,
        util_low: float = table1.EC_UTIL_LOW,
        min_active: int = 1,
        telemetry=None,
    ) -> None:
        super().__init__(view, config=config, telemetry=telemetry)
        from ..control.view import POWER_OFF

        self._off = POWER_OFF
        self.classes = tuple(self.config.thresholds)
        self.regions = RegionMap({
            name: view.region_of(i) for i, name in enumerate(view.machines)
        })
        self.util_high = util_high
        self.util_low = util_low
        self.min_active = min_active
        n = len(view.machines)
        #: Latest STATUS utilizations, one column per class.
        self._util = {c: np.zeros(n) for c in self.classes}
        self._util_known = np.zeros(n, dtype=bool)
        #: Previous per-component cluster averages, for the projection.
        self._previous_average: Optional[Dict[str, float]] = None
        #: Machines currently known hot (sticky across power-off: only a
        #: RELEASE clears the flag).
        self._hot = np.zeros(n, dtype=bool)
        self.events: List[EcEvent] = []

    # -- message handling overrides ------------------------------------------

    def _handle_status(self, message: TempdMessage) -> None:
        i = self._row[message.machine]
        try:
            values = [message.utilizations[c] for c in self.classes]
        except KeyError as exc:
            raise SensorError(
                f"STATUS from {message.machine!r} lacks utilization {exc}"
            ) from None
        for c, value in zip(self.classes, values):
            self._util[c][i] = value
        self._util_known[i] = True

    def _handle_adjust(self, message: TempdMessage) -> None:
        machine = message.machine
        i = self._row[machine]
        if not self._hot[i]:
            self._hot[i] = True
            self.regions.note_emergency(machine)
            self._respond_to_emergency(message)
        elif self.view.power_state(i) == self._active:
            # Ongoing emergency on a server we decided to keep: base policy.
            super()._handle_adjust(message)

    def _handle_release(self, message: TempdMessage) -> None:
        machine = message.machine
        i = self._row[machine]
        if self._hot[i]:
            self._hot[i] = False
            self.regions.clear_emergency(machine)
        super()._handle_release(message)

    def _respond_to_emergency(self, message: TempdMessage) -> None:
        """Figure 10's hot-component branch."""
        machine = message.machine
        needed = self._servers_needed()
        if needed >= len(self.view.machines):
            # All servers in the cluster need to be active.
            super()._handle_adjust(message)
            return
        if needed >= len(self._active_rows()):
            # Cannot remove a server without replacing it first.
            replacement = self._pick_off_server()
            if replacement is None:
                super()._handle_adjust(message)
                return
            self.view.set_power(replacement, True)
            self._log(message.time, "on", self.view.machines[replacement],
                      "replace hot server")
        self.view.set_power(self._row[machine], False)
        self._log(message.time, "off", machine, "hot server replaced/retired")

    # -- periodic reconfiguration (the top/bottom of Figure 10's loop) -----

    def evaluate(self, now: float) -> None:
        """One reconfiguration pass; call once per monitor period."""
        average = self._average_utilizations()
        projected = self._project(average)
        self._previous_average = average
        if self.telemetry.enabled:
            for component, value in projected.items():
                self.telemetry.gauge(
                    "freon_ec_projected_utilization", {"component": component},
                    help="Two-interval projected cluster-average utilization.",
                ).set(value)
            self.telemetry.gauge(
                "freon_ec_active_servers",
                help="Servers currently accepting load.",
            ).set(len(self._active_rows()))

        # Grow when projected demand exceeds the high threshold.
        if projected and max(projected.values()) > self.util_high:
            candidate = self._pick_off_server()
            if candidate is not None:
                self.view.set_power(candidate, True)
                self._log(now, "on", self.view.machines[candidate],
                          f"projected util {max(projected.values()):.2f} > "
                          f"{self.util_high:.2f}")

        # Shrink while the remaining servers would stay under U_l.
        while True:
            active = self._active_rows()
            if len(active) <= self.min_active:
                break
            if not self._can_remove(average, len(active)):
                break
            victim = self._pick_removal_victim(active)
            self.view.set_power(victim, False)
            self._log(now, "off", self.view.machines[victim],
                      "energy conservation")
            # Recompute the average as if the load spread over one fewer
            # server, so "as many as possible" stops at the right count.
            scale = len(active) / max(len(active) - 1, 1)
            average = {c: u * scale for c, u in average.items()}

    # -- arithmetic helpers ---------------------------------------------------

    def _average_utilizations(self) -> Dict[str, float]:
        """Per-component utilization averaged across active servers."""
        active = self._active_rows()
        known = active[self._util_known[active]].tolist()
        if not known:
            return {}
        averages = {}
        for c in self.classes:
            column = self._util[c]
            total = 0.0
            # Left fold in row order, like sum() over the servers.
            for i in known:
                total += float(column[i])
            averages[c] = total / len(active)
        return averages

    def _project(self, average: Dict[str, float]) -> Dict[str, float]:
        """Two-interval linear projection when load is increasing."""
        if self._previous_average is None:
            return dict(average)
        projected: Dict[str, float] = {}
        for component, value in average.items():
            previous = self._previous_average.get(component, value)
            delta = value - previous
            projected[component] = value + 2.0 * delta if delta > 0.0 else value
        return projected

    def _servers_needed(self) -> int:
        """How many servers current demand requires at U_h per server."""
        average = self._average_utilizations()
        if not average:
            return self.min_active
        demand = max(average.values()) * len(self._active_rows())
        return max(self.min_active, math.ceil(demand / self.util_high - 1e-9))

    def _can_remove(self, average: Dict[str, float], active_count: int) -> bool:
        """Would one removal keep every component average below U_l?"""
        if not average:
            return True
        scale = active_count / max(active_count - 1, 1)
        return all(u * scale < self.util_low for u in average.values())

    def _pick_off_server(self) -> Optional[int]:
        """Round-robin region pick of a powered-off server (its row)."""
        power = self.view.power_states()
        machines = self.view.machines
        off = {machines[i] for i in np.flatnonzero(power == self._off).tolist()}
        if not off:
            return None
        regions = self.regions
        region = regions.pick_region(
            lambda r: any(s in off for s in regions.servers_in(r))
        )
        if region is None:
            return None
        for server in regions.servers_in(region):
            if server in off:
                return self._row[server]
        return None

    def _pick_removal_victim(self, active: "np.ndarray") -> int:
        """Lowest-capacity active server ("increasing order of current
        processing capacity"): restricted (low-weight) servers go first."""
        weights = self.view.weights()
        machines = self.view.machines
        return min(
            active.tolist(), key=lambda i: (float(weights[i]), machines[i])
        )

    def _log(self, time: float, action: str, machine: str, reason: str) -> None:
        self.events.append(
            EcEvent(time=time, action=action, machine=machine, reason=reason)
        )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "freon_ec_events_total", {"action": action},
                help="Freon-EC reconfiguration decisions, by action.",
            ).inc()
            self.telemetry.event(
                f"freon_ec_{action}", "freon-ec", machine=machine, reason=reason,
            )

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        state = super().checkpoint()
        state["ec"] = {
            "util": {c: a.tolist() for c, a in self._util.items()},
            "util_known": self._util_known.tolist(),
            "previous_average": self._previous_average,
            "hot": self._hot.tolist(),
            "events": [asdict(e) for e in self.events],
            "rr_index": self.regions.rr_index,
        }
        return state

    def restore(self, data: Dict[str, object]) -> None:
        super().restore(data)
        ec = data["ec"]
        self._util = {
            c: np.array(ec["util"][c], dtype=float) for c in self.classes
        }
        self._util_known = np.array(ec["util_known"], dtype=bool)
        previous = ec["previous_average"]
        self._previous_average = (
            None if previous is None
            else {str(k): float(v) for k, v in previous.items()}
        )
        self._hot = np.array(ec["hot"], dtype=bool)
        self.events = [EcEvent(**e) for e in ec["events"]]
        # Emergency counts are the hot machines per region.
        self.regions = RegionMap({
            name: self.view.region_of(i)
            for i, name in enumerate(self.view.machines)
        })
        for i in np.flatnonzero(self._hot).tolist():
            self.regions.note_emergency(self.view.machines[i])
        self.regions.rr_index = int(ec["rr_index"])
