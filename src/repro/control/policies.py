"""Stack-agnostic management policies driving a :class:`MachineStateView`.

Every policy here acts only through the
:class:`~repro.control.view.MachineStateView` seam, so the same object
manages a 4-machine :class:`ClusterSimulation` (through the scalar
view) or a 10k-machine :class:`ScaleSimulation` (through the vectorized
view).

Freon and Freon-EC are compositions of the paper's roles, which live in
:mod:`repro.daemons` and :mod:`repro.freon.ec` and run on both stacks:
one :class:`~repro.daemons.tempd.Tempd` over every row of the view,
whose messages go through :meth:`FreonPolicy._post` to one
:class:`~repro.daemons.admd.Admd` (or
:class:`~repro.freon.ec.AdmdEC`).  ``_post`` gives each datagram its
network fate, one :meth:`~MachineStateView.datagram_fate` draw while a
network fault is active: a dropped message vanishes and a duplicated
one is handled twice.  Delays are not modelled on this path; the
cluster stack sends through its
:class:`~repro.faults.injector.LossyChannel` instead.

Registration happens at the bottom of this module; importing
:mod:`repro.control` populates the registry.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import table1
from ..daemons.admd import Admd
from ..daemons.tempd import Tempd, TempdMessage
from ..errors import ControlError
from ..freon.ec import AdmdEC
from ..freon.policy import FreonConfig
from ..freon.traditional import Shutdown
from .registry import PolicySpec, register
from .view import POWER_ACTIVE, POWER_OFF, MachineStateView


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
    """Base Freon (section 4.1): one tempd over the room, one admd.

    The roles are built at the first call, over the view it passes;
    :attr:`tempd` and :attr:`admd` are ``None`` until then.
    """

    name = "freon"

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        self.config = config or FreonConfig()
        self.tempd: Optional[Tempd] = None
        self.admd: Optional[Admd] = None
        self._view: Optional[MachineStateView] = None
        self._lossy = False
        self._restored: Optional[Dict[str, object]] = None

    def _build_admd(self, view: MachineStateView) -> Admd:
        return Admd(view, config=self.config)

    def _bind(self, view: MachineStateView) -> None:
        if self._view is not None:
            if len(view.machines) != len(self._view.machines):
                raise ControlError(
                    f"policy sized for {len(self._view.machines)} machines, "
                    f"view has {len(view.machines)}"
                )
            return
        self._view = view
        self.admd = self._build_admd(view)
        self.tempd = Tempd(
            view, self._post, config=self.config,
            status=isinstance(self.admd, AdmdEC),
        )
        if self._restored is not None:
            self.tempd.restore(self._restored["tempd"])
            self.admd.restore(self._restored["admd"])
            self._restored = None

    def sample(self, view: MachineStateView, now: float) -> None:
        self._bind(view)
        self.admd.sample(now)

    def wake(self, view: MachineStateView, now: float) -> None:
        self._bind(view)
        self._lossy = view.has_network_faults()
        self.tempd.wake(now)
        if isinstance(self.admd, AdmdEC):
            self.admd.evaluate(now)

    def _post(self, message: TempdMessage) -> None:
        """Deliver one datagram under its network fate."""
        copies = 1
        if self._lossy:
            dropped, duplicated, _delay = self._view.datagram_fate()
            if dropped:
                return
            if duplicated:
                copies = 2
        for _ in range(copies):
            self.admd.deliver(message)

    # -- decision records ----------------------------------------------------

    @property
    def adjustments(self) -> List[Tuple[float, str, float]]:
        return self.admd.adjustments if self.admd is not None else []

    @property
    def releases(self) -> List[Tuple[float, str]]:
        return self.admd.releases if self.admd is not None else []

    @property
    def redlined(self) -> List[Tuple[float, str]]:
        return self.admd.redlined if self.admd is not None else []

    @property
    def throttle_events(self) -> int:
        """ADJUST actuations so far (the scale stack's summary metric)."""
        return len(self.adjustments)

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        if self.tempd is None:
            return self._restored or {"sized": False}
        return {
            "sized": True,
            "tempd": self.tempd.checkpoint(),
            "admd": self.admd.checkpoint(),
        }

    def restore(self, data: Dict[str, object]) -> None:
        if not data.get("sized"):
            return
        if self.tempd is None:
            self._restored = data
        else:
            self.tempd.restore(data["tempd"])
            self.admd.restore(data["admd"])


class FreonECPolicy(FreonPolicy):
    """Freon-EC (section 4.2, Figure 10): tempd with STATUS messages,
    and :class:`~repro.freon.ec.AdmdEC` evaluating after every wake."""

    name = "freon-ec"

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

    def _build_admd(self, view: MachineStateView) -> Admd:
        return AdmdEC(
            view, config=self.config, util_high=self.util_high,
            util_low=self.util_low, min_active=self.min_active,
        )

    @property
    def events(self):
        return self.admd.events if self.admd is not None else []


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
