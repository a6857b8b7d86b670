"""Stack-agnostic management policies driving a :class:`MachineStateView`.

Each policy here is the paper's daemon logic (tempd + admd, Freon-EC's
Figure 10 loop, the traditional red-line shutdown) re-expressed once
against the :class:`~repro.control.view.MachineStateView` seam, so the
identical object manages a 4-machine :class:`ClusterSimulation` (through
the scalar view) or a 10k-machine :class:`ScaleSimulation` (through the
vectorized view).  ``tests/control`` holds the proof: on the cluster
stack the unified :class:`FreonPolicy`/:class:`FreonECPolicy` reproduce
the native daemons' decision sequences exactly, and the scalar-vs-flat
parity harness shows both views yield the same decisions and
temperatures within 1e-9 °C.

Structure of one :meth:`FreonPolicy.wake`:

1. **tempd phase (vectorized)** — read every awake machine's component
   temperatures through the view (one array per component class; ``NaN``
   marks a failed read), run the PD-controller arithmetic on whole
   columns, and derive per-machine message masks (REDLINE / ADJUST /
   RELEASE / STATUS) with the exact tempd state machine: last-known-good
   staleness holds, the conservative fallback, derivative resets on
   release, restriction clearing on reboot.
2. **admd phase (sequential)** — deliver the messages machine-by-machine
   in canonical order (the daemons' registration order), applying the
   paper's weight/cap/power actuations through the view.  Each datagram
   takes one :meth:`~MachineStateView.datagram_fate` draw when network
   faults are active, so chaos scenarios perturb the unified policy the
   same way they perturb the native daemons.

The sums inside the share-reduction and utilization-averaging arithmetic
deliberately run as Python left-folds in canonical machine order — not
``np.sum`` — so results are bit-identical to the scalar daemons'
``sum()`` over their dicts.

Registration happens at the bottom of this module; importing
:mod:`repro.control` populates the registry.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..config import table1
from ..errors import ControlError
from ..freon.ec import EcEvent
from ..freon.policy import FreonConfig, weight_for_share_reduction
from ..freon.regions import RegionMap
from ..freon.traditional import Shutdown
from .registry import PolicySpec, register
from .view import POWER_ACTIVE, POWER_OFF, MachineStateView


def _ordered_sum(values) -> float:
    """Left-fold sum in iteration order, matching builtin ``sum()``.

    The scalar daemons total weights/utilizations with ``sum()`` over
    insertion-ordered dicts; reproducing their float results exactly
    requires the same association order, which ``np.sum`` does not
    guarantee.
    """
    total = 0.0
    for value in values:
        total += float(value)
    return total


class ControlPolicy:
    """Base class: the surface a simulation harness drives.

    ``sample`` runs on the stats-period grid (admd's LVS polling),
    ``wake`` on the monitor-period grid (tempd wake + admd delivery +
    any periodic evaluation).  ``checkpoint``/``restore`` round-trip all
    decision-relevant state through plain JSON so host simulations
    resume bit-exactly.
    """

    name = "base"

    def sample(self, view: MachineStateView, now: float) -> None:
        """Record periodic statistics (no actuation)."""

    def wake(self, view: MachineStateView, now: float) -> None:
        """One monitor-period pass: observe, decide, actuate."""

    def checkpoint(self) -> Dict[str, object]:
        """Decision-relevant state as plain JSON-able data."""
        return {}

    def restore(self, data: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint`."""


class FreonPolicy(ControlPolicy):
    """Base Freon (section 4.1), unified: tempd + admd in one wake.

    State lives in per-machine arrays mirroring each tempd's fields
    (``restricted``, the PD controllers' last temperatures, the last
    ADJUST output, the last-good read time) plus admd's rolling
    connection-sample window.
    """

    name = "freon"
    #: Subclasses flip this to generate STATUS messages (Freon-EC mode).
    _ec_mode = False

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        self.config = config or FreonConfig()
        #: Component classes, in the config's (dict) order — the same
        #: order tempd's reader dict iterates.
        self.classes: Tuple[str, ...] = tuple(self.config.thresholds)
        self._n: Optional[int] = None
        #: Decision records, mirroring admd's lists.
        self.adjustments: List[Tuple[float, str, float]] = []
        self.releases: List[Tuple[float, str]] = []
        self.redlined: List[Tuple[float, str]] = []
        #: Count of ADJUST actuations (the scale stack's summary metric).
        self.throttle_events = 0

    # -- lazy sizing -------------------------------------------------------

    def _ensure(self, view: MachineStateView) -> None:
        n = len(view.machines)
        if self._n == n:
            return
        if self._n is not None:
            raise ControlError(
                f"policy sized for {self._n} machines, view has {n}"
            )
        self._n = n
        self.restricted = np.zeros(n, dtype=bool)
        #: NaN = no derivative state (a fresh/reset PDController).
        self._last_T = {c: np.full(n, np.nan) for c in self.classes}
        #: NaN = no prior ADJUST output (tempd's ``_last_output=None``).
        self._last_output = np.full(n, np.nan)
        #: NaN = never had a good read (tempd's ``_last_good=None``).
        self._last_good = np.full(n, np.nan)
        #: Machines seen active last wake: a False->True edge is a
        #: finished (re)boot, which clears the restriction flag exactly
        #: like the cluster's boot-finish hook clears tempd.restricted.
        self._was_active = np.ones(n, dtype=bool)
        #: admd's rolling (time, connections-array) sample window.
        self._windows: Deque[Tuple[float, "np.ndarray"]] = deque()

    # -- admd statistics ---------------------------------------------------

    def sample(self, view: MachineStateView, now: float) -> None:
        self._ensure(view)
        self._windows.append((now, view.connections()))
        horizon = now - self.config.monitor_period
        while self._windows and self._windows[0][0] < horizon:
            self._windows.popleft()

    def _average_connections(self, view: MachineStateView) -> "np.ndarray":
        """Mean connections over the window (admd.average_connections)."""
        if not self._windows:
            return view.connections()
        total = None
        for _, connections in self._windows:
            # Left-fold, matching the scalar per-machine builtin sum().
            total = connections.copy() if total is None else total + connections
        return total / len(self._windows)

    # -- the wake: tempd phase (vectorized) --------------------------------

    def wake(self, view: MachineStateView, now: float) -> None:
        self._ensure(view)
        config = self.config
        n = self._n
        power = view.power_states()
        active = power == POWER_ACTIVE
        newly_active = active & ~self._was_active
        if newly_active.any():
            self.restricted[newly_active] = False
        self._was_active = active
        awake = active & view.daemons_up()
        if not awake.any():
            return
        temps = view.read_temperatures(self.classes, mask=awake)
        failed = np.zeros(n, dtype=bool)
        for c in self.classes:
            failed |= np.isnan(temps[c])
        failed &= awake
        ok = awake & ~failed

        outputs = np.zeros(n)
        hot_any = np.zeros(n, dtype=bool)
        red_any = np.zeros(n, dtype=bool)
        cool_all = ok.copy()
        for c in self.classes:
            T = temps[c]
            thresholds = config.thresholds[c]
            last_T = self._last_T[c]
            # First observation: the derivative term contributes nothing.
            prev = np.where(np.isnan(last_T), T, last_T)
            out_c = np.maximum(
                config.kp * (T - thresholds.high) + config.kd * (T - prev),
                0.0,
            )
            hot_c = ok & (T > thresholds.high)
            outputs[hot_c] = np.maximum(outputs[hot_c], out_c[hot_c])
            hot_any |= hot_c
            red_any |= ok & (T >= thresholds.red)
            cool_all &= T < thresholds.low
            # update()/observe() both record the current temperature.
            last_T[ok] = T[ok]
        self._last_good[ok] = now

        release = ok & cool_all & self.restricted
        adjust = hot_any
        # Failed-read resilience path (tempd._wake_without_readings).
        fresh = (
            failed
            & ~np.isnan(self._last_good)
            & (now - self._last_good <= config.sensor_staleness_limit + 1e-9)
        )
        stale_hold = fresh & self.restricted & ~np.isnan(self._last_output)
        conservative = failed & ~fresh

        message_output = outputs.copy()
        message_output[stale_hold] = self._last_output[stale_hold]
        message_output[conservative] = config.conservative_output

        # tempd-side state transitions.
        self.restricted[adjust] = True
        self._last_output[adjust] = outputs[adjust]
        self.restricted[release] = False
        for c in self.classes:
            self._last_T[c][release] = np.nan  # controllers.reset()
        self.restricted[conservative] = True
        self._last_output[conservative] = config.conservative_output

        send_adjust = adjust | stale_hold | conservative
        self._deliver_all(
            view, now, ok, red_any, send_adjust, release, message_output
        )
        self._after_delivery(view, now)

    def _after_delivery(self, view: MachineStateView, now: float) -> None:
        """Hook for periodic evaluation after delivery (Freon-EC)."""

    # -- the wake: admd phase (sequential delivery) -------------------------

    def _deliver_all(
        self, view, now, ok, red_any, send_adjust, release, message_output
    ) -> None:
        rows = red_any | send_adjust | release
        if self._ec_mode:
            rows = rows | ok  # STATUS from every successful read
            utilizations = view.read_utilizations(self.classes)
        else:
            utilizations = None
        if not rows.any():
            return
        lossy = view.has_network_faults()
        self._avg_cache: Optional["np.ndarray"] = None
        for i in np.flatnonzero(rows):
            i = int(i)
            # Per-machine message order is tempd's: REDLINE first, then
            # ADJUST or RELEASE, then STATUS.
            if red_any[i]:
                self._post(view, lossy, self._deliver_redline, now, i)
            if send_adjust[i]:
                self._post(
                    view, lossy, self._deliver_adjust, now, i,
                    float(message_output[i]),
                )
            elif release[i]:
                self._post(view, lossy, self._deliver_release, now, i)
            if self._ec_mode and ok[i]:
                self._post(
                    view, lossy, self._deliver_status, now, i, utilizations,
                )

    def _post(self, view, lossy, handler, now, i, *args) -> None:
        """Deliver one datagram, applying its network fate like the
        native LossyChannel: one fate draw per send, dropped messages
        vanish, duplicated messages are handled twice back-to-back."""
        copies = 1
        if lossy:
            dropped, duplicated, _delay = view.datagram_fate()
            if dropped:
                return
            if duplicated:
                copies = 2
        for _ in range(copies):
            handler(view, now, i, *args)

    def _active_weights(self, view: MachineStateView) -> Dict[str, float]:
        """Weights of currently active machines, in canonical order —
        admd's "accounting for the weights of all servers" dict."""
        power = view.power_states()
        weights = view.weights()
        return {
            view.machines[int(j)]: float(weights[int(j)])
            for j in np.flatnonzero(power == POWER_ACTIVE)
        }

    def _deliver_adjust(self, view, now, i, output) -> None:
        if view.power_state(i) != POWER_ACTIVE:
            return  # drained/booting machines take no load to shift
        machine = view.machines[i]
        weights = self._active_weights(view)
        new_weight = weight_for_share_reduction(weights, machine, output)
        view.set_weight(i, new_weight)
        if self._avg_cache is None:
            self._avg_cache = self._average_connections(view)
        view.set_connection_cap(i, float(self._avg_cache[i]))
        self.adjustments.append((now, machine, output))
        self.throttle_events += 1

    def _deliver_release(self, view, now, i) -> None:
        view.set_weight(i, self.config.base_weight)
        view.set_connection_cap(i, None)
        self.releases.append((now, view.machines[i]))

    def _deliver_redline(self, view, now, i) -> None:
        self.redlined.append((now, view.machines[i]))
        view.set_power(i, False)

    def _deliver_status(self, view, now, i, utilizations) -> None:
        """Base Freon ignores STATUS; Freon-EC overrides this."""

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        if self._n is None:
            return {"sized": False}
        return {
            "sized": True,
            "restricted": self.restricted.tolist(),
            "last_T": {c: a.tolist() for c, a in self._last_T.items()},
            "last_output": self._last_output.tolist(),
            "last_good": self._last_good.tolist(),
            "was_active": self._was_active.tolist(),
            "windows": [
                [t, connections.tolist()] for t, connections in self._windows
            ],
            "throttle_events": self.throttle_events,
        }

    def restore(self, data: Dict[str, object]) -> None:
        if not data.get("sized"):
            return
        restricted = np.array(data["restricted"], dtype=bool)
        self._n = len(restricted)
        self.restricted = restricted
        self._last_T = {
            c: np.array(data["last_T"][c], dtype=float) for c in self.classes
        }
        self._last_output = np.array(data["last_output"], dtype=float)
        self._last_good = np.array(data["last_good"], dtype=float)
        self._was_active = np.array(data["was_active"], dtype=bool)
        self._windows = deque(
            (float(t), np.array(connections, dtype=float))
            for t, connections in data["windows"]
        )
        self.throttle_events = int(data["throttle_events"])


class FreonECPolicy(FreonPolicy):
    """Freon-EC (section 4.2, Figure 10), unified.

    Inherits the full tempd/admd wake and adds the energy-conservation
    loop: STATUS bookkeeping, per-region emergency counting, hot-server
    replacement, and the periodic grow/shrink evaluation — the same
    arithmetic as :class:`~repro.freon.ec.AdmdEC`, actuated through the
    view's power switch.
    """

    name = "freon-ec"
    _ec_mode = True

    def __init__(
        self,
        config: Optional[FreonConfig] = None,
        util_high: float = table1.EC_UTIL_HIGH,
        util_low: float = table1.EC_UTIL_LOW,
        min_active: int = 1,
    ) -> None:
        super().__init__(config)
        self.util_high = util_high
        self.util_low = util_low
        self.min_active = min_active
        self._regions: Optional[RegionMap] = None
        self._row: Dict[str, int] = {}
        #: Machines currently known hot (sticky across power-off, like
        #: AdmdEC._hot: only a RELEASE clears the flag).
        self._hot: Dict[str, bool] = {}
        self._previous_average: Optional[Dict[str, float]] = None
        self.events: List[EcEvent] = []
        #: rr cursor restored before the region map is (re)built lazily.
        self._pending_rr: Optional[int] = None

    def _ensure(self, view: MachineStateView) -> None:
        fresh = self._n != len(view.machines)
        super()._ensure(view)
        if fresh:
            n = self._n
            #: Latest STATUS payload per machine, one column per class.
            self._util_store = {c: np.zeros(n) for c in self.classes}
            self._util_known = np.zeros(n, dtype=bool)

    def _ensure_regions(self, view: MachineStateView) -> None:
        if self._regions is not None:
            return
        assignment = {
            name: view.region_of(i) for i, name in enumerate(view.machines)
        }
        self._regions = RegionMap(assignment)
        self._row = {name: i for i, name in enumerate(view.machines)}
        # Region emergency counts are derivable from the sticky hot set
        # (one note per newly-hot machine, one clear per release).
        for name, hot in self._hot.items():
            if hot:
                self._regions.note_emergency(name)
        if self._pending_rr is not None:
            self._regions.rr_index = self._pending_rr
            self._pending_rr = None

    def wake(self, view: MachineStateView, now: float) -> None:
        self._ensure(view)
        self._ensure_regions(view)
        super().wake(view, now)

    def _after_delivery(self, view: MachineStateView, now: float) -> None:
        self.evaluate(view, now)

    # -- message handling overrides (AdmdEC) --------------------------------

    def _deliver_status(self, view, now, i, utilizations) -> None:
        for c in self.classes:
            self._util_store[c][i] = utilizations[c][i]
        self._util_known[i] = True

    def _deliver_adjust(self, view, now, i, output) -> None:
        machine = view.machines[i]
        newly_hot = not self._hot.get(machine, False)
        self._hot[machine] = True
        if newly_hot:
            self._regions.note_emergency(machine)
            self._respond_to_emergency(view, now, i, output)
        elif view.power_state(i) == POWER_ACTIVE:
            # Ongoing emergency on a server we decided to keep: base policy.
            super()._deliver_adjust(view, now, i, output)

    def _deliver_release(self, view, now, i) -> None:
        machine = view.machines[i]
        if self._hot.get(machine, False):
            self._hot[machine] = False
            self._regions.clear_emergency(machine)
        super()._deliver_release(view, now, i)

    def _respond_to_emergency(self, view, now, i, output) -> None:
        """Figure 10's hot-component branch."""
        needed = self._servers_needed(view)
        if needed >= self._n:
            # All servers in the cluster need to be active.
            FreonPolicy._deliver_adjust(self, view, now, i, output)
            return
        active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
        if needed >= len(active):
            # Cannot remove a server without replacing it first.
            replacement = self._pick_off_server(view)
            if replacement is None:
                FreonPolicy._deliver_adjust(self, view, now, i, output)
                return
            view.set_power(replacement, True)
            self._log(now, "on", view.machines[replacement],
                      "replace hot server")
        view.set_power(i, False)
        self._log(now, "off", view.machines[i], "hot server replaced/retired")

    # -- periodic reconfiguration -------------------------------------------

    def evaluate(self, view: MachineStateView, now: float) -> None:
        """One Figure 10 grow/shrink pass; runs after every delivery."""
        average = self._average_utilizations(view)
        projected = self._project(average)
        self._previous_average = average

        # Grow when projected demand exceeds the high threshold.
        if projected and max(projected.values()) > self.util_high:
            candidate = self._pick_off_server(view)
            if candidate is not None:
                view.set_power(candidate, True)
                self._log(now, "on", view.machines[candidate],
                          f"projected util {max(projected.values()):.2f} > "
                          f"{self.util_high:.2f}")

        # Shrink while the remaining servers would stay under U_l.
        while True:
            active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
            if len(active) <= self.min_active:
                break
            if not self._can_remove(average, len(active)):
                break
            victim = self._pick_removal_victim(view, active)
            if victim is None:
                break
            view.set_power(victim, False)
            self._log(now, "off", view.machines[victim], "energy conservation")
            scale = len(active) / max(len(active) - 1, 1)
            average = {c: u * scale for c, u in average.items()}

    # -- arithmetic helpers --------------------------------------------------

    def _average_utilizations(self, view) -> Dict[str, float]:
        """Per-component utilization averaged across active servers."""
        active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
        if len(active) == 0:
            return {}
        known = active[self._util_known[active]]
        if len(known) == 0:
            return {}
        return {
            c: _ordered_sum(self._util_store[c][known]) / len(active)
            for c in self.classes
        }

    def _project(self, average: Dict[str, float]) -> Dict[str, float]:
        """Two-interval linear projection when load is increasing."""
        if self._previous_average is None:
            return dict(average)
        projected: Dict[str, float] = {}
        for component, value in average.items():
            previous = self._previous_average.get(component, value)
            delta = value - previous
            projected[component] = (
                value + 2.0 * delta if delta > 0.0 else value
            )
        return projected

    def _servers_needed(self, view) -> int:
        """How many servers current demand requires at U_h per server."""
        average = self._average_utilizations(view)
        active = int((view.power_states() == POWER_ACTIVE).sum())
        if not average or active == 0:
            return self.min_active
        demand = max(average.values()) * active
        return max(self.min_active, math.ceil(demand / self.util_high - 1e-9))

    def _can_remove(self, average: Dict[str, float], active_count: int) -> bool:
        """Would one removal keep every component average below U_l?"""
        if not average:
            return True
        scale = active_count / max(active_count - 1, 1)
        return all(u * scale < self.util_low for u in average.values())

    def _pick_off_server(self, view) -> Optional[int]:
        """Round-robin region pick of a powered-off server (row index)."""
        power = view.power_states()
        off = {
            view.machines[int(j)] for j in np.flatnonzero(power == POWER_OFF)
        }
        if not off:
            return None
        regions = self._regions
        region = regions.pick_region(
            lambda r: any(s in off for s in regions.servers_in(r))
        )
        if region is None:
            return None
        for server in regions.servers_in(region):
            if server in off:
                return self._row[server]
        return None

    def _pick_removal_victim(self, view, active) -> Optional[int]:
        """Lowest-capacity active server: restricted (low-weight) first."""
        if len(active) == 0:
            return None
        weights = view.weights()
        return int(min(
            active,
            key=lambda j: (float(weights[int(j)]), view.machines[int(j)]),
        ))

    def _log(self, time: float, action: str, machine: str, reason: str) -> None:
        self.events.append(
            EcEvent(time=time, action=action, machine=machine, reason=reason)
        )

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        state = super().checkpoint()
        if not state.get("sized"):
            return state
        state["ec"] = {
            "hot": dict(self._hot),
            "util_store": {
                c: a.tolist() for c, a in self._util_store.items()
            },
            "util_known": self._util_known.tolist(),
            "previous_average": self._previous_average,
            "rr_index": (
                self._regions.rr_index if self._regions is not None
                else (self._pending_rr or 0)
            ),
        }
        return state

    def restore(self, data: Dict[str, object]) -> None:
        super().restore(data)
        if not data.get("sized"):
            return
        ec = data["ec"]
        self._hot = {str(k): bool(v) for k, v in ec["hot"].items()}
        self._util_store = {
            c: np.array(ec["util_store"][c], dtype=float)
            for c in self.classes
        }
        self._util_known = np.array(ec["util_known"], dtype=bool)
        previous = ec["previous_average"]
        self._previous_average = (
            None if previous is None
            else {str(k): float(v) for k, v in previous.items()}
        )
        self._regions = None  # rebuilt (with emergencies) on next wake
        self._pending_rr = int(ec["rr_index"])


class TraditionalControlPolicy(ControlPolicy):
    """The traditional comparison point: shut red-lined servers down.

    Section 5.1: "we turned servers off when the temperature of their
    CPUs crossed T_r."  Machines stay dead for the rest of the run; if
    the survivors cannot carry the load, requests are dropped.  Failed
    (``NaN``) reads are skipped — a blind traditional controller takes
    no action, which is exactly its weakness under sensor faults.
    """

    name = "traditional"

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        self.config = config or FreonConfig()
        self.classes: Tuple[str, ...] = tuple(self.config.thresholds)
        self.shutdowns: List[Shutdown] = []
        self._dead: set = set()

    def wake(self, view: MachineStateView, now: float) -> None:
        n = len(view.machines)
        live = view.power_states() != POWER_OFF
        if self._dead:
            for name in self._dead:
                live[view.machines.index(name)] = False
        if not live.any():
            return
        temps = view.read_temperatures(self.classes, mask=live)
        fired = np.zeros(n, dtype=bool)
        for c in self.classes:
            fired |= live & (temps[c] >= self.config.red(c))
        for i in np.flatnonzero(fired):
            i = int(i)
            machine = view.machines[i]
            # Attribute the shutdown to the first red class in reader
            # (dict) order, like the scalar policy's first-match break.
            for c in self.classes:
                temperature = float(temps[c][i])
                if not math.isnan(temperature) and (
                    temperature >= self.config.red(c)
                ):
                    view.set_power(i, False)
                    self._dead.add(machine)
                    self.shutdowns.append(Shutdown(
                        time=now, machine=machine, component=c,
                        temperature=temperature,
                    ))
                    break

    def checkpoint(self) -> Dict[str, object]:
        return {
            "dead": sorted(self._dead),
            "shutdowns": [asdict(s) for s in self.shutdowns],
        }

    def restore(self, data: Dict[str, object]) -> None:
        self._dead = set(data["dead"])
        self.shutdowns = [Shutdown(**s) for s in data["shutdowns"]]


class EmergencyPolicy(ControlPolicy):
    """Red-line guard with recovery: cut power at T_r, reboot once cool.

    The paper's red-line semantics ("modern CPUs and disks turn
    themselves off when these temperatures are reached") as a standalone
    policy: any component at/above its red line powers the machine off;
    a machine this policy turned off reboots once every component has
    cooled below its low threshold.  Unlike the traditional policy the
    fleet self-heals, so it is usable as a safety net at datacenter
    scale.
    """

    name = "emergency"

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        self.config = config or FreonConfig()
        self.classes: Tuple[str, ...] = tuple(self.config.thresholds)
        #: Rows this policy powered off (candidates for recovery).
        self._down: set = set()
        self.events: List[Tuple[float, str, str]] = []

    def wake(self, view: MachineStateView, now: float) -> None:
        n = len(view.machines)
        temps = view.read_temperatures(self.classes)
        power = view.power_states()
        red = np.zeros(n, dtype=bool)
        cool = np.ones(n, dtype=bool)
        for c in self.classes:
            red |= temps[c] >= self.config.red(c)
            cool &= temps[c] < self.config.low(c)
        for i in np.flatnonzero((power == POWER_ACTIVE) & red):
            i = int(i)
            view.set_power(i, False)
            self._down.add(i)
            self.events.append((now, "off", view.machines[i]))
        for i in sorted(self._down):
            if power[i] == POWER_OFF and cool[i]:
                view.set_power(i, True)
                self._down.discard(i)
                self.events.append((now, "on", view.machines[i]))

    def checkpoint(self) -> Dict[str, object]:
        return {"down": sorted(self._down)}

    def restore(self, data: Dict[str, object]) -> None:
        self._down = {int(i) for i in data["down"]}


# -- registrations -----------------------------------------------------------
# Insertion order is canonical: the cluster slice must keep the
# historical POLICIES order (none, freon, freon-ec, traditional,
# local-dvfs); scale-only policies register after it.

register(PolicySpec(
    name="none",
    description="no thermal management (baseline)",
    stacks=("cluster", "scale"),
))
register(PolicySpec(
    name="freon",
    description="Freon weight/cap throttling (section 4.1)",
    stacks=("cluster", "scale"),
    factory=FreonPolicy,
))
register(PolicySpec(
    name="freon-ec",
    description="Freon-EC energy + thermal management (section 4.2)",
    stacks=("cluster", "scale"),
    factory=FreonECPolicy,
))
register(PolicySpec(
    name="traditional",
    description="traditional red-line shutdown (section 5.1)",
    stacks=("cluster", "scale"),
    factory=TraditionalControlPolicy,
))
register(PolicySpec(
    name="local-dvfs",
    description="per-CPU DVFS with no cluster coordination (section 4.3)",
    stacks=("cluster",),
))
register(PolicySpec(
    name="emergency",
    description="red-line power-off with cool-down recovery",
    stacks=("scale",),
    factory=EmergencyPolicy,
))
