"""The flattened datacenter solve: 1k-10k machines, one array per tick.

The compiled engine (:mod:`repro.core.compiled`) already batches every
machine sharing a layout signature into one NumPy group, but it still
pays per-machine Python costs each tick: a :class:`~repro.core.state.
MachineState` dict write-back per machine, per-machine sensor reads,
and per-machine daemon bookkeeping.  At 1k-10k machines those dominate.

:class:`FlatSolver` drops all of it.  Every machine of a
:class:`~repro.topology.model.Topology` shares one layout template, so
the whole room is a single machines×nodes state array built by
:meth:`repro.core.compiled._Group.from_template` and advanced by one
:func:`repro.core.compiled.tick_group` call per tick — the same pure
array kernel the per-machine engines use, so the physics agrees with
the reference solver within the usual 1e-9 °C.  Between ticks the
:class:`~repro.topology.recirculation.RecirculationOperator` turns the
exhaust column into next tick's inlet vector with one sparse matvec.
Sensor sampling is a column read; there are no per-machine objects at
all.

:class:`ScaleSimulation` wraps the flat solver in a datacenter-shaped
workload: per-machine diurnal offered load with deterministic phase
offsets (:func:`repro.cluster.tracegen.phase_offsets` — regional
afternoons differ, so 10k machines do not peak in lockstep), one
vectorized LVS-style allocation per tick
(:func:`repro.cluster.lvs.allocate_rates`), and a pluggable management
policy from the :mod:`repro.control` registry: every monitor period
the policy observes and actuates the room through a vectorized
:class:`~repro.control.view.FlatStateView`, so Freon, Freon-EC,
traditional shutdown, and the emergency guard all run at this scale
unchanged from their cluster-stack forms.  Fault injection
(:mod:`repro.faults`) and the ``--experiment`` scenario presets plug in
through the same seam.  Telemetry is per-zone:
``scale_zone_cpu_max_celsius{zone=...}`` et al. via sort +
``np.maximum.reduceat`` over the zone partition, plus a
``sim_machines`` gauge.

Everything checkpoints to plain JSON and restores bit-exactly,
flattened arrays included.
"""

from __future__ import annotations

import shlex
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import table1
from ..config.layouts import validation_machine
from ..control import (
    POWER_ACTIVE,
    POWER_BOOTING,
    POWER_OFF,
    FlatStateView,
)
from ..control import build as _build_policy
from ..control import get as _get_policy
from ..core.compiled import _Group, compile_layout, tick_group
from ..core.graph import MachineLayout
from ..core.state import MachineState
from ..cluster.lvs import CloningConfig, allocate_rates, allocate_rates_cloned
from ..cluster.tracegen import (
    diurnal_shape_array,
    peak_rate_for_utilization,
    phase_offsets,
)
from ..cluster.webserver import RequestMix
from ..errors import ControlError, TopologyError
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule, is_fault_command
from ..telemetry import ensure as _ensure_telemetry
from .model import Topology
from .recirculation import RecirculationOperator

#: Checkpoint format version for :class:`ScaleSimulation`.  Version 2
#: added power states, concurrency caps, boot timers, inlet-event
#: cursors, and the policy's own state; version 3 adds the traditional
#: policy's shutdown records to that state; in version 4 Freon's state
#: is its tempd's and admd's own checkpoints.
CHECKPOINT_VERSION = 4

#: Boot behavior mirroring :class:`~repro.cluster.webserver.WebServer`:
#: a booting machine burns full CPU and most of its disk for
#: ``boot_time`` seconds before turning ACTIVE.
BOOT_SECONDS = 60.0
BOOT_CPU_UTIL = 1.0
BOOT_DISK_UTIL = 0.6


def inlet_events_from_script(text: str) -> List[Tuple[float, str, float]]:
    """Extract ``fiddle <machine> temperature inlet <C>`` events.

    Fault statements are skipped (they go to the injector); any other
    fiddle verb has no flattened equivalent and is rejected loudly
    rather than silently ignored.
    """
    from ..fiddle.script import parse_script

    events: List[Tuple[float, str, float]] = []
    for timed in parse_script(text):
        if is_fault_command(timed.command):
            continue
        tokens = shlex.split(timed.command)
        if (
            len(tokens) == 5
            and tokens[0] == "fiddle"
            and tokens[2] == "temperature"
            and tokens[3] == "inlet"
        ):
            events.append((timed.time, tokens[1], float(tokens[4])))
        else:
            raise TopologyError(
                "scale runs support only "
                "'fiddle <machine> temperature inlet <C>' commands, got "
                f"{timed.command!r}"
            )
    return events


class FlatSolver:
    """One machines×nodes array solving a whole topology per tick.

    All machines share ``layout`` (the flattening requires one plan);
    the row order is the topology's canonical machine order.  The
    surface mirrors the pieces of :class:`~repro.core.solver.Solver`
    the datacenter harness needs — column sensor reads, utilization
    feeds, inlet overrides, per-machine power scaling,
    checkpoint/restore — without any per-machine state objects.
    """

    def __init__(
        self,
        topology: Topology,
        layout: Optional[MachineLayout] = None,
        dt: float = 1.0,
        initial_temperature: Optional[float] = None,
    ) -> None:
        if dt <= 0.0:
            raise TopologyError("dt must be positive")
        if layout is None:
            layout = validation_machine("template")
        if initial_temperature is None:
            initial_temperature = layout.inlet_temperature
        self.topology = topology
        self.operator = RecirculationOperator(topology)
        self.layout = layout
        self.dt = dt
        self.n = len(topology.machines)
        self.plan = compile_layout(layout)
        template = MachineState(layout, initial_temperature)
        self.group = _Group.from_template(self.plan, template, self.n)
        self._exhaust_col = self.plan.n_comps + self.plan.exhaust_air
        self.prev_exhaust = np.full(self.n, float(initial_temperature))
        #: Row index -> forced inlet temperature (fiddle-style override).
        self.inlet_overrides: Dict[int, float] = {}
        #: Baseline per-row power factors; power scaling multiplies these
        #: so repeated on/off cycles never accumulate drift.
        self._base_factor = self.group.factor.copy()
        self.time = 0.0
        self.iterations = 0

    # -- access ----------------------------------------------------------

    def node_column(self, node: str):
        """The live temperature column of one node across all machines."""
        try:
            return self.group.T[:, self.plan.node_index[node]]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def set_utilization(self, component: str, values) -> None:
        """Set one component's utilization for every machine at once."""
        try:
            col = self.plan.comp_index[component]
        except KeyError:
            raise TopologyError(f"unknown component {component!r}") from None
        self.group.util[:, col] = values

    def set_inlet_override(self, machine: str, value: Optional[float]) -> None:
        """Force (or with ``None`` release) one machine's inlet."""
        try:
            row = self.operator.index[machine]
        except KeyError:
            raise TopologyError(f"unknown machine {machine!r}") from None
        if value is None:
            self.inlet_overrides.pop(row, None)
        else:
            self.inlet_overrides[row] = float(value)

    def set_power_factor(self, row: int, scale: float) -> None:
        """Scale one machine's entire heat dissipation (0.0 = powered off)."""
        self.group.factor[row, :] = self._base_factor[row, :] * float(scale)

    # -- stepping --------------------------------------------------------

    def step(self, ticks: int = 1) -> None:
        """Advance the whole room ``ticks`` solver iterations."""
        g = self.group
        for _ in range(ticks):
            if g.flows_dirty:
                g.rebuild_flows()
            inlet = self.operator.inlets_array(self.prev_exhaust)
            for row, value in self.inlet_overrides.items():
                inlet[row] = value
            tick_group(g, inlet, self.dt)
            self.prev_exhaust = g.T[:, self._exhaust_col].copy()
            self.time += self.dt
            self.iterations += 1

    # -- checkpoint / restore --------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """All mutable solver state as plain JSON-able data."""
        g = self.group
        return {
            "time": self.time,
            "iterations": self.iterations,
            "T": g.T.tolist(),
            "util": g.util.tolist(),
            "prev_exhaust": self.prev_exhaust.tolist(),
            "inlet_overrides": {
                str(row): value for row, value in self.inlet_overrides.items()
            },
            "topology": self.operator.checkpoint(),
        }

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` (same topology and layout).

        JSON serializes floats with round-trip precision, so a restore
        from parsed JSON reproduces every array bit-for-bit.  A
        checkpoint that does not fit this room raises
        :class:`~repro.errors.TopologyError` before anything changes.
        """
        g = self.group
        T = np.array(data["T"], dtype=float)
        util = np.array(data["util"], dtype=float)
        prev = np.array(data["prev_exhaust"], dtype=float)
        if T.shape != g.T.shape or util.shape != g.util.shape:
            raise TopologyError("checkpoint shape does not match this solver")
        if prev.shape != self.prev_exhaust.shape:
            raise TopologyError("checkpoint shape does not match this solver")
        overrides: Dict[int, float] = {}
        for key, value in data["inlet_overrides"].items():
            try:
                row = int(key)
            except ValueError:
                raise TopologyError(
                    f"checkpoint inlet override row {key!r} is not an integer"
                ) from None
            if not 0 <= row < self.n:
                raise TopologyError(
                    f"checkpoint inlet override row {row} is out of range "
                    f"for {self.n} machines"
                )
            overrides[row] = float(value)
        g.T[:] = T
        g.util[:] = util
        self.prev_exhaust = prev
        self.inlet_overrides = overrides
        self.operator.restore(data["topology"])
        self.time = float(data["time"])
        self.iterations = int(data["iterations"])

    def __repr__(self) -> str:
        return (
            f"FlatSolver({self.n} machines x "
            f"{len(self.plan.node_names)} nodes, t={self.time:.0f}s)"
        )


class ScaleSimulation:
    """A datacenter-scale workload driving one :class:`FlatSolver`.

    Each tick: offered load (per-machine phase-shifted diurnal curves,
    or a scenario's :class:`~repro.cluster.scenarios.RequestTrace`), one
    vectorized LVS allocation across the whole room, CPU/disk
    utilizations from the allocated rates, one flattened solver tick.
    Every ``monitor_period`` seconds the configured management policy
    (any scale-capable name in the :mod:`repro.control` registry)
    samples and wakes against the room's :class:`FlatStateView`; every
    ``sample_period`` seconds per-zone telemetry gauges are refreshed.

    Fault injection rides the same seam: pass an ``injector`` (or a
    chaos ``scenario``, whose fault statements build one) and sensor
    faults perturb the policy's reads, daemon crashes silence machines,
    and network faults drop/duplicate its actuation datagrams — the
    identical chaos semantics the 4-machine cluster stack runs, at 10k
    machines.
    """

    def __init__(
        self,
        topology: Topology,
        duration: float = 3600.0,
        dt: float = 1.0,
        layout: Optional[MachineLayout] = None,
        policy: str = "freon",
        monitor_period: float = 4.0,
        sample_period: float = 60.0,
        peak_utilization: float = 0.70,
        valley_fraction: float = 0.15,
        plateau: float = 0.75,
        phase_spread: float = 0.25,
        phase_seed: int = 2006,
        cpu_high: float = table1.T_HIGH_CPU,
        cpu_low: float = table1.T_LOW_CPU,
        mix: Optional[RequestMix] = None,
        cloning: Optional[CloningConfig] = None,
        telemetry=None,
        scenario=None,
        injector: Optional[FaultInjector] = None,
        inlet_events: Optional[Sequence[Tuple[float, str, float]]] = None,
        fault_seed: int = 2006,
    ) -> None:
        try:
            spec = _get_policy(policy, stack="scale")
        except ControlError as exc:
            raise TopologyError(str(exc)) from None
        if duration <= 0.0:
            raise TopologyError("duration must be positive")
        if monitor_period <= 0.0 or sample_period <= 0.0:
            raise TopologyError("periods must be positive")
        self.topology = topology
        self.duration = float(duration)
        self.policy = policy
        self.monitor_period = float(monitor_period)
        self.sample_period = float(sample_period)
        self.cpu_high = float(cpu_high)
        self.cpu_low = float(cpu_low)
        # Scenario presets supply their own trace, request mix, fault
        # schedule, and inlet emergencies; explicit arguments win.
        self.scenario = scenario
        self._trace = None
        events: List[Tuple[float, str, float]] = [
            (float(t), str(m), float(v)) for t, m, v in (inlet_events or ())
        ]
        if scenario is not None:
            if mix is None:
                mix = scenario.mix
            self._trace = scenario.trace
            events.extend(inlet_events_from_script(scenario.fiddle_script))
            if injector is None:
                schedule = FaultSchedule.from_script(scenario.fiddle_script)
                if len(schedule):
                    injector = FaultInjector(schedule, seed=fault_seed)
        self.injector = injector
        self._inlet_events = sorted(events, key=lambda e: e[0])
        self._inlet_cursor = 0
        self.mix = RequestMix() if mix is None else mix
        self.solver = self._make_solver(topology, layout, dt)
        n = self.solver.n
        self.phases = np.array(
            phase_offsets(n, spread=phase_spread, seed=phase_seed)
        )
        #: Per-machine peak offered rate: each machine serves its own
        #: regional stream sized for one server at the target peak.
        self._peak_rate = peak_rate_for_utilization(
            peak_utilization, 1, self.mix
        )
        self._valley_rate = valley_fraction * self._peak_rate
        self._plateau = float(plateau)
        self.weights = np.ones(n)
        self.caps = np.full(n, np.inf)
        self.power = np.full(n, POWER_ACTIVE, dtype=np.int64)
        self._boot_remaining = np.zeros(n)
        self._last_allocated = np.zeros(n)
        self._capacity = np.full(n, self.mix.capacity())
        self.offered_total = 0.0
        self.dropped_total = 0.0
        self.throttle_events = 0
        #: Request-cloning policy; None keeps single dispatch (and the
        #: summary/checkpoint layouts exactly as before).
        self.cloning = cloning
        self.clone_ticks = 0
        self.shed_ticks = 0
        self._monitor_ticks = max(
            1, int(round(self.monitor_period / self.solver.dt))
        )
        self._sample_ticks = max(
            1, int(round(self.sample_period / self.solver.dt))
        )
        self._policy = (
            None if spec.factory is None
            else _build_policy(policy, "scale", config=self._control_config())
        )
        self._view: Optional[FlatStateView] = None
        # Zone partition for reduceat aggregation: rows sorted by zone
        # id (stable, so canonical machine order breaks ties), one
        # segment start per zone.
        self._zone_names = list(topology.zones)
        zone_ids = np.array(
            [
                self._zone_names.index(topology.positions[name].zone)
                for name in topology.machines
            ],
            dtype=np.intp,
        )
        self._zone_sort = np.argsort(zone_ids, kind="stable")
        sorted_ids = zone_ids[self._zone_sort]
        self._zone_starts = np.searchsorted(
            sorted_ids, np.arange(len(self._zone_names))
        )
        self._zone_counts = np.bincount(
            zone_ids, minlength=len(self._zone_names)
        ).astype(float)
        # Small grids can leave trailing zones empty; reduceat segments
        # are only well-defined for populated ones.
        self._zone_populated = np.flatnonzero(self._zone_counts)
        self.telemetry = _ensure_telemetry(telemetry)
        self.telemetry.gauge(
            "sim_machines", help="Machines in the simulated datacenter.",
        ).set(float(n))
        self.telemetry.gauge(
            "sim_zones", help="Cooling zones in the simulated datacenter.",
        ).set(float(len(self._zone_names)))

    def _make_solver(self, topology: Topology, layout, dt: float):
        """Build the room solver.  The parity harness
        (:mod:`repro.control.parity`) overrides this to substitute the
        per-machine python-engine reference behind the same surface."""
        return FlatSolver(topology, layout=layout, dt=dt)

    # -- control plane ---------------------------------------------------

    def _control_config(self):
        """The policy configuration this room's thresholds imply."""
        from ..freon.policy import ComponentThresholds, FreonConfig

        red_gap = table1.T_RED_CPU - table1.T_HIGH_CPU
        try:
            thresholds = {
                "cpu": ComponentThresholds(
                    high=self.cpu_high,
                    low=self.cpu_low,
                    red=self.cpu_high + red_gap,
                ),
                "disk": ComponentThresholds(
                    high=table1.T_HIGH_DISK,
                    low=table1.T_LOW_DISK,
                    red=table1.T_RED_DISK,
                ),
            }
        except ValueError as exc:
            raise TopologyError(str(exc)) from None
        return FreonConfig(
            thresholds=thresholds,
            monitor_period=self.monitor_period,
            stats_period=self.monitor_period,
        )

    @property
    def controller(self):
        """The live policy object (None for ``policy="none"``)."""
        return self._policy

    @property
    def dt(self) -> float:
        """Solver tick length (the sweep engine's stepping contract)."""
        return self.solver.dt

    @property
    def time(self) -> float:
        """Current simulated time (the sweep engine's stepping contract)."""
        return self.solver.time

    def apply_checkpoint(self, data: Mapping[str, object]) -> None:
        """Alias for :meth:`restore` (the sweep engine's resume hook)."""
        self.restore(data)

    def state_view(self) -> FlatStateView:
        """The vectorized :class:`MachineStateView` over this room."""
        if self._view is None:
            self._view = FlatStateView(self)
        return self._view

    def connections(self):
        """Concurrent connections per machine (Little's law on the last
        allocation), as the LVS statistics the policy samples."""
        return self._last_allocated * self.mix.base_response_time

    def set_connection_cap(self, index: int, cap: Optional[float]) -> None:
        """Cap (or with ``None`` uncap) one machine's concurrency."""
        self.caps[index] = np.inf if cap is None else max(float(cap), 0.0)

    def set_power(self, index: int, on: bool) -> None:
        """Power one machine on (boot) or off (immediate heat cut)."""
        if on:
            if self.power[index] == POWER_OFF:
                self.power[index] = POWER_BOOTING
                self._boot_remaining[index] = BOOT_SECONDS
                self.solver.set_power_factor(index, 1.0)
        elif self.power[index] in (POWER_ACTIVE, POWER_BOOTING):
            self.power[index] = POWER_OFF
            self._boot_remaining[index] = 0.0
            self.solver.set_power_factor(index, 0.0)

    def _finish_boots(self) -> None:
        booting = self.power == POWER_BOOTING
        if not booting.any():
            return
        done = booting & (self._boot_remaining <= 1e-9)
        if done.any():
            self.power[done] = POWER_ACTIVE
            self.weights[done] = 1.0
            self.caps[done] = np.inf

    def _apply_inlet_events(self, now: float) -> None:
        while (
            self._inlet_cursor < len(self._inlet_events)
            and self._inlet_events[self._inlet_cursor][0] <= now + 1e-9
        ):
            _, machine, value = self._inlet_events[self._inlet_cursor]
            self.solver.set_inlet_override(machine, value)
            self._inlet_cursor += 1

    # -- workload --------------------------------------------------------

    def offered_rates(self, t: float):
        """Per-machine offered request rates at simulated time ``t``.

        :func:`repro.cluster.tracegen.diurnal_shape_array` with
        per-machine phase offsets and no jitter (jitter would need a
        per-machine RNG stream per tick; the phase spread already
        decorrelates the room).
        """
        duration = self.duration
        tt = (t - self.phases * duration) % duration
        shape = diurnal_shape_array(tt, duration, self._plateau)
        return self._valley_rate + (self._peak_rate - self._valley_rate) * shape

    # -- stepping --------------------------------------------------------

    def step(self, ticks: int = 1) -> None:
        """Advance the datacenter ``ticks`` solver ticks."""
        solver = self.solver
        dt = solver.dt
        mix = self.mix
        for _ in range(ticks):
            now = solver.time
            if self.injector is not None:
                self.injector.advance_to(now)
            self._apply_inlet_events(now)
            self._finish_boots()
            if self._trace is not None:
                offered = float(self._trace.rate_at(now))
            else:
                offered = float(self.offered_rates(now).sum())
            active = self.power == POWER_ACTIVE
            eff_weights = np.where(active, self.weights, 0.0)
            ceilings = np.where(active, self._capacity, 0.0)
            capped = active & np.isfinite(self.caps)
            if capped.any():
                # A concurrency cap c bounds the sustainable rate at
                # c / base_response_time (Little's law).
                ceilings = np.where(
                    capped,
                    np.minimum(ceilings, self.caps / mix.base_response_time),
                    ceilings,
                )
            if self.cloning is None:
                allocated, dropped = allocate_rates(
                    offered, eff_weights, ceilings
                )
            else:
                allocated, dropped, _, cloned = allocate_rates_cloned(
                    offered, eff_weights, ceilings, self.cloning
                )
                if cloned:
                    self.clone_ticks += 1
                else:
                    self.shed_ticks += 1
            self.offered_total += offered * dt
            self.dropped_total += dropped * dt
            self._last_allocated = allocated
            cpu_util = np.minimum(allocated * mix.cpu_demand, 1.0)
            disk_util = np.minimum(allocated * mix.disk_demand, 1.0)
            booting = self.power == POWER_BOOTING
            if booting.any():
                cpu_util = np.where(booting, BOOT_CPU_UTIL, cpu_util)
                disk_util = np.where(booting, BOOT_DISK_UTIL, disk_util)
                self._boot_remaining = np.where(
                    booting, self._boot_remaining - dt, self._boot_remaining
                )
            solver.set_utilization(table1.CPU, cpu_util)
            solver.set_utilization(table1.DISK_PLATTERS, disk_util)
            solver.step()
            if self._policy is not None and (
                solver.iterations % self._monitor_ticks == 0
            ):
                view = self.state_view()
                wake_time = solver.time
                self._policy.sample(view, wake_time)
                self._policy.wake(view, wake_time)
                self.throttle_events = getattr(
                    self._policy, "throttle_events", self.throttle_events
                )
            if self.telemetry.enabled and (
                solver.iterations % self._sample_ticks == 0
            ):
                self._sample()

    def run(self, duration: Optional[float] = None) -> Dict[str, object]:
        """Run for ``duration`` simulated seconds and return the summary."""
        if duration is None:
            duration = self.duration
        ticks = int(round(duration / self.solver.dt))
        self.step(ticks)
        if self.telemetry.enabled:
            self._sample()
        return self.summary()

    # -- observability ---------------------------------------------------

    def zone_cpu_stats(self) -> Dict[str, Tuple[float, float]]:
        """Per zone: (max, mean) CPU temperature right now."""
        cpu_T = self.solver.node_column(table1.CPU)
        by_zone = cpu_T[self._zone_sort]
        starts = self._zone_starts[self._zone_populated]
        maxima = np.maximum.reduceat(by_zone, starts)
        sums = np.add.reduceat(by_zone, starts)
        return {
            self._zone_names[z]: (
                float(maxima[i]),
                float(sums[i] / self._zone_counts[z]),
            )
            for i, z in enumerate(self._zone_populated)
        }

    def _sample(self) -> None:
        self.telemetry.advance(self.solver.time)
        for zone, (peak, mean) in self.zone_cpu_stats().items():
            labels = {"zone": zone}
            self.telemetry.gauge(
                "scale_zone_cpu_max_celsius", labels,
                help="Hottest CPU temperature per cooling zone.",
            ).set(peak)
            self.telemetry.gauge(
                "scale_zone_cpu_mean_celsius", labels,
                help="Mean CPU temperature per cooling zone.",
            ).set(mean)
        throttled = int((self.weights < 1.0).sum())
        self.telemetry.gauge(
            "scale_throttled_machines",
            help="Machines currently running at reduced scheduling weight.",
        ).set(float(throttled))
        self.telemetry.gauge(
            "scale_active_machines",
            help="Machines currently powered on and serving.",
        ).set(float(int((self.power == POWER_ACTIVE).sum())))
        self.telemetry.gauge(
            "scale_offered_requests_total",
            help="Cumulative offered requests.",
        ).set(self.offered_total)
        self.telemetry.gauge(
            "scale_dropped_requests_total",
            help="Cumulative dropped requests.",
        ).set(self.dropped_total)

    def summary(self) -> Dict[str, object]:
        """Scalar outcome summary (the CLI's report)."""
        zone_stats = self.zone_cpu_stats()
        drop_fraction = (
            self.dropped_total / self.offered_total
            if self.offered_total > 0.0
            else 0.0
        )
        summary: Dict[str, object] = {
            "machines": self.solver.n,
            "zones": len(self._zone_names),
            "ticks": self.solver.iterations,
            "sim_time": self.solver.time,
            "policy": self.policy,
            "offered_requests": self.offered_total,
            "dropped_requests": self.dropped_total,
            "drop_fraction": drop_fraction,
            "throttle_events": self.throttle_events,
            "throttled_machines": int((self.weights < 1.0).sum()),
            "active_machines": int((self.power == POWER_ACTIVE).sum()),
            "zone_cpu_max": {z: s[0] for z, s in zone_stats.items()},
            "zone_cpu_mean": {z: s[1] for z, s in zone_stats.items()},
        }
        if self.cloning is not None:
            summary["clone_ticks"] = self.clone_ticks
            summary["shed_ticks"] = self.shed_ticks
            summary["clone_latency_scale"] = self.cloning.latency_scale
        if self.injector is not None:
            summary["faults_logged"] = len(self.injector.log)
        return summary

    # -- checkpoint / restore --------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the whole datacenter as plain JSON-able data."""
        state: Dict[str, object] = {
            "version": CHECKPOINT_VERSION,
            "solver": self.solver.checkpoint(),
            "weights": self.weights.tolist(),
            "caps": self.caps.tolist(),
            "power": self.power.tolist(),
            "boot_remaining": self._boot_remaining.tolist(),
            "allocated": self._last_allocated.tolist(),
            "inlet_cursor": self._inlet_cursor,
            "offered_total": self.offered_total,
            "dropped_total": self.dropped_total,
            "throttle_events": self.throttle_events,
            "policy_state": (
                None if self._policy is None else self._policy.checkpoint()
            ),
        }
        if self.injector is not None:
            state["faults"] = self.injector.checkpoint()
        if self.cloning is not None:
            # Gated so classic checkpoints keep their historical layout.
            state["clone_ticks"] = self.clone_ticks
            state["shed_ticks"] = self.shed_ticks
        return state

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` onto this simulation."""
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise TopologyError(
                f"unsupported scale checkpoint version {version!r}"
            )
        n = self.solver.n
        arrays = {
            "weights": np.array(data["weights"], dtype=float),
            "caps": np.array(data["caps"], dtype=float),
            "power": np.array(data["power"], dtype=np.int64),
            "boot_remaining": np.array(data["boot_remaining"], dtype=float),
            "allocated": np.array(data["allocated"], dtype=float),
        }
        for key, values in arrays.items():
            if values.shape != (n,):
                raise TopologyError(
                    f"checkpoint {key} shape {values.shape} does not match "
                    f"this room of {n} machines"
                )
        self.solver.restore(data["solver"])
        self.weights = arrays["weights"]
        self.caps = arrays["caps"]
        self.power = arrays["power"]
        self._boot_remaining = arrays["boot_remaining"]
        self._last_allocated = arrays["allocated"]
        self._inlet_cursor = int(data["inlet_cursor"])
        for row in range(self.solver.n):
            self.solver.set_power_factor(
                row, 0.0 if self.power[row] == POWER_OFF else 1.0
            )
        self.offered_total = float(data["offered_total"])
        self.dropped_total = float(data["dropped_total"])
        self.throttle_events = int(data["throttle_events"])
        if self._policy is not None and data.get("policy_state") is not None:
            self._policy.restore(data["policy_state"])
        if self.injector is not None and data.get("faults") is not None:
            self.injector.restore(data["faults"])
        self.clone_ticks = int(data.get("clone_ticks", 0))
        self.shed_ticks = int(data.get("shed_ticks", 0))

    def __repr__(self) -> str:
        return (
            f"ScaleSimulation({self.solver.n} machines, "
            f"{len(self._zone_names)} zones, policy={self.policy!r})"
        )
