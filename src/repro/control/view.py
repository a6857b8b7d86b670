"""Machine-state views: the seam between policies and simulation stacks.

A :class:`MachineStateView` gives a management policy everything it may
observe or actuate about a room full of machines — component
temperatures (through the fault-injectable sensor path), utilizations,
LVS scheduling weights, concurrency caps and statistics, power state,
regions, daemon liveness and datagram fates — as NumPy arrays indexed
by canonical machine order, regardless of which simulation stack sits
beneath:

* :class:`ClusterStateView` adapts a per-machine
  :class:`~repro.cluster.simulation.ClusterSimulation`: temperature
  reads go through its :class:`~repro.sensors.server.SensorService`
  (alias resolution + injected sensor faults), weights/caps through its
  :class:`~repro.cluster.lvs.LoadBalancer`, power through its
  ``request_on``/``request_off`` drain semantics, regions through its
  region map.
* :class:`FlatStateView` adapts a :class:`~repro.topology.sim.
  ScaleSimulation`: temperature reads are column copies off the
  flattened :class:`~repro.topology.sim.FlatSolver` array (with the
  same per-machine fault filtering applied to faulted rows), weights
  and caps are the simulation's vectorized allocation inputs, power
  cuts a machine's power-scale row.

Both views present the *same* contract, so the Freon roles
(:mod:`repro.daemons`, :mod:`repro.freon.ec`) and the policies of
:mod:`repro.control.policies` run unchanged on either stack; the
parity harness in :mod:`repro.control.parity` compares the decisions
and temperatures.  Failed sensor reads surface as ``NaN`` (per machine,
atomically: if any component's read fails the whole machine's read
fails, like tempd's one-shot reader) rather than exceptions, so
vectorized policies can mask instead of branch.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import ControlError, SensorError

#: Power-state codes a view reports (a compact int array, not an enum,
#: so vectorized policies can compare whole columns at once).
POWER_OFF = 0
POWER_BOOTING = 1
POWER_ACTIVE = 2
POWER_DRAINING = 3


class MachineStateView(Protocol):
    """What a management policy may observe and actuate.

    All array-valued methods use the view's canonical machine order
    (``machines``); actuators take a row index in that order.
    """

    #: Canonical machine names, fixing the row order of every array.
    machines: Tuple[str, ...]

    def read_temperatures(
        self, components: Sequence[str], mask: Optional["np.ndarray"] = None
    ) -> Dict[str, "np.ndarray"]:
        """Component temperatures via the (fault-injectable) sensor path.

        Returns one array per component class (e.g. ``"cpu"``,
        ``"disk"``).  A machine whose read failed (injected dropout)
        reports ``NaN`` in *every* class: the read is atomic per
        machine, like tempd's.  A boolean ``mask`` restricts which
        machines are read at all (masked-out rows are ``NaN`` and
        consume no fault RNG — a daemon that is down never reads).
        """

    def read_utilizations(
        self, components: Sequence[str]
    ) -> Dict[str, "np.ndarray"]:
        """Current component utilizations (Freon-EC's STATUS payload)."""

    def weights(self) -> "np.ndarray":
        """Current scheduling weights (a copy; actuate via set_weight)."""

    def set_weight(self, index: int, weight: float) -> None:
        """Set one machine's LVS scheduling weight."""

    def set_connection_cap(self, index: int, cap: Optional[float]) -> None:
        """Cap (or with ``None`` uncap) one machine's concurrency."""

    def connections(self) -> "np.ndarray":
        """Concurrent-connection counts, as LVS statistics report them."""

    def power_states(self) -> "np.ndarray":
        """Per-machine POWER_* codes (int array)."""

    def power_state(self, index: int) -> int:
        """One machine's POWER_* code (cheaper than a full column)."""

    def set_power(self, index: int, on: bool) -> None:
        """Request a machine on (boot) or off (drain/cut)."""

    def region_of(self, index: int) -> str:
        """Physical region of one machine (Freon-EC's region map)."""

    def daemons_up(self) -> "np.ndarray":
        """Per-machine bool: is the monitoring daemon alive?"""

    def has_network_faults(self) -> bool:
        """Whether any network fault is active (fate draws consume RNG)."""

    def datagram_fate(self) -> Tuple[bool, bool, float]:
        """One policy datagram's (dropped, duplicated, delay) fate."""


class ClusterStateView:
    """Scalar backend: a view over a live :class:`ClusterSimulation`.

    Reads go through the simulation's sensor service and balancer, so
    faulted sensors lie and fail here exactly as they would to a real
    tempd.  The simulation's own tempds and admd act through this view;
    obtain it via :meth:`ClusterSimulation.state_view`.
    """

    def __init__(self, simulation) -> None:
        from ..cluster.webserver import PowerState

        self._sim = simulation
        self.machines: Tuple[str, ...] = tuple(simulation.machines)
        # Keyed by the members' plain values: Enum hashing is Python-level.
        self._codes = {
            PowerState.OFF._value_: POWER_OFF,
            PowerState.BOOTING._value_: POWER_BOOTING,
            PowerState.ACTIVE._value_: POWER_ACTIVE,
            PowerState.DRAINING._value_: POWER_DRAINING,
        }

    def read_temperatures(self, components, mask=None):
        read = self._sim.service.read_temperature
        n = len(self.machines)
        out = {c: np.full(n, np.nan) for c in components}
        rows = range(n) if mask is None else mask.nonzero()[0].tolist()
        for i in rows:
            name = self.machines[i]
            try:
                # Sequential reads, aborted at the first failure, so a
                # failed read consumes no fault RNG for later classes.
                values = [read(name, c) for c in components]
            except SensorError:
                continue  # the row stays NaN in every class
            for c, value in zip(components, values):
                out[c][i] = value
        return out

    def read_utilizations(self, components):
        sim = self._sim
        out = {c: np.zeros(len(self.machines)) for c in components}
        for i, name in enumerate(self.machines):
            load = sim.webservers[name].load
            for c in components:
                out[c][i] = getattr(load, f"{c}_utilization")
        return out

    def weights(self):
        servers = self._sim.balancer.server_map
        return np.array([servers[name].weight for name in self.machines])

    def set_weight(self, index, weight):
        self._sim.balancer.set_weight(self.machines[index], weight)

    def set_connection_cap(self, index, cap):
        self._sim.balancer.set_connection_limit(self.machines[index], cap)

    def connections(self):
        stats = self._sim.balancer.connection_stats()
        return np.array([stats[name] for name in self.machines])

    def power_states(self):
        codes = self._codes
        ws = self._sim.webservers
        return np.array(
            [codes[ws[name].state._value_] for name in self.machines],
            dtype=np.int64,
        )

    def power_state(self, index):
        state = self._sim.webservers[self.machines[index]].state
        return self._codes[state._value_]

    def set_power(self, index, on):
        name = self.machines[index]
        if on:
            self._sim.request_on(name)
        else:
            self._sim.request_off(name)

    def region_of(self, index):
        return self._sim.regions.region_of(self.machines[index])

    def daemons_up(self):
        injector = self._sim.injector
        if injector is None or not injector.any_active:
            return np.ones(len(self.machines), dtype=bool)
        return np.array(
            [injector.daemon_up(name, "tempd") for name in self.machines],
            dtype=bool,
        )

    def has_network_faults(self):
        injector = self._sim.injector
        return (
            injector is not None
            and injector.any_active
            and any(f.spec.is_network for f in injector.active)
        )

    def datagram_fate(self):
        injector = self._sim.injector
        if injector is None or not injector.any_active:
            return (False, False, 0.0)
        return injector.datagram_fate()


class FlatStateView:
    """Vectorized backend: a view over a :class:`ScaleSimulation`.

    Temperature reads are column copies off the flattened solver; rows
    covered by an active sensor fault are re-filtered through the same
    :meth:`~repro.faults.injector.FaultInjector.filter_sensor` hook the
    scalar sensor service uses (identical stuck/spike/noise/dropout
    semantics, identical RNG stream consumption).  Actuators write the
    simulation's vectorized allocation inputs directly.
    """

    #: Component class -> solver node, mirroring table1.sensor_map().
    _NODES: Dict[str, str] = {}

    def __init__(self, simulation) -> None:
        from ..config import table1

        if not FlatStateView._NODES:
            FlatStateView._NODES = {
                "cpu": table1.CPU, "disk": table1.DISK_PLATTERS,
            }
        self._sim = simulation
        self.machines: Tuple[str, ...] = tuple(
            simulation.topology.machines
        )
        positions = simulation.topology.positions
        self._regions = [
            positions[name].zone for name in self.machines
        ]

    def _node(self, component: str) -> str:
        try:
            return self._NODES[component]
        except KeyError:
            raise ControlError(
                f"unknown component class {component!r}"
            ) from None

    def read_temperatures(self, components, mask=None):
        sim = self._sim
        out = {
            c: np.array(sim.solver.node_column(self._node(c)), copy=True)
            for c in components
        }
        if mask is not None:
            for c in components:
                out[c][~mask] = np.nan
        injector = sim.injector
        if injector is None or not injector.any_active:
            return out
        # Only rows under an active sensor fault take the scalar filter
        # path; everything else keeps the raw column value (the filter
        # is identity for unfaulted reads and consumes no RNG).
        faulted = {
            f.spec.machine
            for f in injector.active
            if f.spec.is_sensor
        }
        index = sim.solver.operator.index
        for name in sorted(faulted, key=lambda m: index.get(m, -1)):
            row = index.get(name)
            if row is None or (mask is not None and not mask[row]):
                continue
            try:
                values = [
                    injector.filter_sensor(name, c, float(out[c][row]))
                    for c in components
                ]
            except SensorError:
                for c in components:
                    out[c][row] = np.nan
            else:
                for c, value in zip(components, values):
                    out[c][row] = value
        return out

    def read_utilizations(self, components):
        sim = self._sim
        return {
            c: np.array(
                sim.solver.group.util[:, sim.solver.plan.comp_index[
                    self._node(c)
                ]],
                copy=True,
            )
            for c in components
        }

    def weights(self):
        return self._sim.weights.copy()

    def set_weight(self, index, weight):
        from ..cluster import lvs

        # Same floor the scalar balancer applies in set_weight.
        self._sim.weights[index] = max(weight, lvs.MIN_WEIGHT)

    def set_connection_cap(self, index, cap):
        self._sim.set_connection_cap(index, cap)

    def connections(self):
        return self._sim.connections()

    def power_states(self):
        return self._sim.power.copy()

    def power_state(self, index):
        return int(self._sim.power[index])

    def set_power(self, index, on):
        self._sim.set_power(index, on)

    def region_of(self, index):
        return self._regions[index]

    def daemons_up(self):
        injector = self._sim.injector
        n = len(self.machines)
        if injector is None or not injector.any_active:
            return np.ones(n, dtype=bool)
        index = self._sim.solver.operator.index
        up = np.ones(n, dtype=bool)
        for machine, daemon, _ in injector.crashed_daemons():
            if daemon == "tempd" and machine in index:
                up[index[machine]] = False
        return up

    def has_network_faults(self):
        injector = self._sim.injector
        return (
            injector is not None
            and injector.any_active
            and any(f.spec.is_network for f in injector.active)
        )

    def datagram_fate(self):
        injector = self._sim.injector
        if injector is None or not injector.any_active:
            return (False, False, 0.0)
        return injector.datagram_fate()
