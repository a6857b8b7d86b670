"""The full Freon experiment harness (paper section 5).

Wires together every piece of the reproduction:

* four web servers behind an LVS-style balancer, loaded by a synthetic
  diurnal trace;
* Mercury (one solver emulating all machines through the Figure 1(c)
  cluster graph) fed by the servers' component utilizations — exactly the
  deployment of section 5: "Mercury was deployed on the server nodes and
  its solver ran on yet another machine";
* fiddle events raising machine inlet temperatures mid-run;
* a pluggable management policy: base Freon, Freon-EC, the traditional
  red-line shutdown, or none.

The simulation runs on the :mod:`repro.kernel` discrete-event scheduler:
solver ticks, tempd/admd/monitord wake-ups (at their paper periods, 60 s
and 5 s), traditional-policy checks, DVFS governor decisions, watchdog
passes, datagram deliveries, fault firings, fiddle-script statements,
and telemetry sampling are all events on one priority queue sharing one
:class:`~repro.kernel.clock.SimClock`.  In the default legacy-compat
mode the event priorities reproduce the original monolithic tick loop's
ordering exactly (the golden traces under ``tests/golden`` are
byte-identical); ``mode="event"`` additionally gives tempd -> admd
datagrams a real sub-tick network latency.  Every tick is recorded, so
experiments can regenerate the paper's Figure 11/12 series.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import table1
from ..config.layouts import validation_cluster
from ..control import TraditionalControlPolicy
from ..control import build as _build_control
from ..control import names as _policy_names
from ..core.solver import Solver
from ..daemons.admd import Admd
from ..daemons.tempd import Tempd, TempdMessage
from ..errors import ClusterError
from ..faults.injector import (
    DaemonWatchdog,
    FaultInjector,
    LossyChannel,
    RestartEvent,
)
from ..fiddle.script import ScriptRunner, parse_script
from ..freon.ec import AdmdEC
from ..freon.policy import FreonConfig
from ..freon.regions import RegionMap, two_region_split
from ..kernel import Event, EventKernel
from ..sensors.server import SensorService
from ..telemetry import ensure as _ensure_telemetry
from .lvs import CloningConfig, LoadBalancer, ServerState
from .records import RecordTable, ServerRecord, TickRecord  # noqa: F401
from .tracegen import RequestTrace, diurnal_trace
from .webserver import PowerState, WebServer

#: Calibrated CPU-to-air conductance used for the Freon studies.  The
#: paper drives its section 5 experiments with *calibrated* Mercury
#: inputs; our section 3.1 calibration lands near 0.9 W/K for this edge,
#: and within that uncertainty we pick the value that reproduces the
#: paper's operating regime (see EXPERIMENTS.md): a fully loaded CPU
#: under normal cooling sits at ~63 C — below the 67 C threshold — while
#: a 70%-loaded CPU under either section 5 emergency crosses it.
FREON_K_OVERRIDES: Dict[Tuple[str, str], float] = {
    ("CPU", "CPU Air"): 0.80,
}

#: Supported management policies — the cluster slice of the
#: :mod:`repro.control` registry (the same name space the flattened
#: :class:`~repro.topology.sim.ScaleSimulation` validates against).
#: "local-dvfs" is the section 4.3 comparison point: each CPU manages
#: its own temperature by stepping down P-states, with no cluster-level
#: coordination.
POLICIES = _policy_names("cluster")

#: Scheduling modes.  "legacy" reproduces the original monolithic tick
#: loop exactly (datagrams flushed once per tick, zero network latency);
#: "event" delivers tempd -> admd datagrams as their own kernel events
#: with a real sub-tick latency.
MODES = ("legacy", "event")

#: Event-dispatch priority bands (lower fires first at equal timestamps;
#: the seq counter breaks remaining ties in scheduling order).  At a
#: shared timestamp T the legacy tick loop ran: the daemon work of the
#: tick that *ended* at T (admd LVS sample, tempd wakes, datagram flush,
#: EC evaluation, traditional check, governors, watchdog, that tick's
#: record), then the work of the tick that *starts* at T (fault clock,
#: script statements, load balancing + solver step).  The bands encode
#: exactly that order, which is how the kernel reproduces the legacy
#: golden traces byte-for-byte.
PRIORITY_STATS = 10
PRIORITY_WAKE = 20
PRIORITY_DELIVER = 30
PRIORITY_EVALUATE = 40
PRIORITY_POLICY = 50
PRIORITY_GOVERNOR = 60
PRIORITY_WATCHDOG = 70
PRIORITY_RECORD = 80
PRIORITY_FAULTS = 100
PRIORITY_COMMAND = 110
PRIORITY_SAMPLE_GATE = 115
PRIORITY_TICK = 120

#: Idle fast-forward: consecutive ticks with unchanged inputs required
#: before probing for convergence, and the default per-tick temperature
#: delta below which the field counts as converged.  The cluster's
#: thermal time constant is ~450 s, so coasting at a per-tick delta of
#: eps leaves at most ~450*eps degrees of residual transient uncaptured;
#: the conservative default bounds that well below the golden-trace
#: noise floor.  Runs that only care about steady state can pass a
#: looser ``idle_epsilon`` to start coasting much earlier.
IDLE_QUIET_TICKS = 2
IDLE_EPSILON = 1e-6

#: Failed convergence probes back off exponentially (the probe snapshots
#: every temperature twice, which would otherwise run every quiet tick of
#: a long, slowly-converging stretch).  The cap bounds how late coasting
#: can engage — and a later engagement only shrinks the frozen residual.
IDLE_PROBE_BACKOFF_MAX = 64


@dataclass
class SimulationResult:
    """Everything an experiment needs after a run."""

    #: Per-tick records: a snapshot the run's later ticks do not change.
    records: RecordTable
    drop_fraction: float
    total_offered: float
    total_dropped: float
    adjustments: List[Tuple[float, str, float]]
    releases: List[Tuple[float, str]]
    redlined: List[Tuple[float, str]]
    ec_events: List
    shutdowns: List
    pstate_changes: List
    fiddle_log: List[str]
    #: Fault-injection audit log: (time, event) entries.
    fault_log: List[Tuple[float, str]] = field(default_factory=list)
    #: Watchdog daemon restarts.
    restarts: List[RestartEvent] = field(default_factory=list)
    #: tempd -> admd datagram stats: sent/delivered/dropped/duplicated/delayed.
    datagram_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-tick response-time factor from request cloning (1/clones when
    #: cloning was active, 1.0 when shed); empty when cloning is off.
    clone_latency_scales: List[float] = field(default_factory=list)

    def _per_tick(self, fieldname: str):
        """Per tick, the tuple of every server's ``fieldname`` value in
        machine order."""
        records = self.records
        return zip(*(
            records.column(name, fieldname) for name in records.machines
        ))

    def request_latency_series(self) -> List[float]:
        """Per-tick mean request response time (seconds).

        Derived from the recorded fluid state via Little's law — each
        tick's mean latency is total connections / total processed rate
        — then scaled by that tick's cloning factor (first response of
        d clones arrives in 1/d of the solo time).  Ticks with no
        processed load report 0.0.
        """
        series: List[float] = []
        scales = self.clone_latency_scales
        for index, (connections, rates) in enumerate(zip(
            self._per_tick("connections"), self._per_tick("rate")
        )):
            rate = sum(rates)
            latency = sum(connections) / rate if rate > 1e-9 else 0.0
            if index < len(scales):
                latency *= scales[index]
            series.append(latency)
        return series

    def p99_latency(self) -> float:
        """Request-weighted 99th-percentile tick latency (seconds).

        Each tick's mean latency is weighted by the request rate it
        served, so a short overloaded burst moves the tail the way its
        request volume deserves.
        """
        weighted = [
            (latency, sum(rates))
            for latency, rates in zip(
                self.request_latency_series(), self._per_tick("rate")
            )
        ]
        total = sum(weight for _, weight in weighted)
        if total <= 0.0:
            return 0.0
        threshold = 0.99 * total
        seen = 0.0
        for latency, weight in sorted(weighted):
            seen += weight
            if seen >= threshold:
                return latency
        return weighted[-1][0] if weighted else 0.0

    def times(self) -> List[float]:
        """Tick timestamps."""
        return list(self.records.time)

    def series(self, machine: str, fieldname: str) -> List[float]:
        """Per-tick series of one server field (e.g. "cpu_temperature")."""
        return list(self.records.column(machine, fieldname))

    def active_series(self) -> List[int]:
        """Active-server count over time (the thick line of Figure 12)."""
        return list(self.records.active_servers)

    def max_temperature(self, machine: str, component: str = "cpu_temperature",
                        after: float = 0.0) -> float:
        """Peak temperature of one machine after a given time."""
        records = self.records
        return max(
            value
            for time, value in zip(
                records.time, records.column(machine, component)
            )
            if time >= after
        )


class ClusterSimulation:
    """One configured, steppable Freon experiment."""

    def __init__(
        self,
        policy: str = "freon",
        machines: Sequence[str] = table1.CLUSTER_MACHINES,
        trace: Optional[RequestTrace] = None,
        fiddle_script: Optional[str] = None,
        freon_config: Optional[FreonConfig] = None,
        k_overrides: Optional[Mapping[Tuple[str, str], float]] = None,
        regions: Optional[RegionMap] = None,
        boot_time: float = 60.0,
        dt: float = 1.0,
        injector: Optional[FaultInjector] = None,
        fault_seed: int = 0,
        watchdog_restart_delay: float = 10.0,
        engine: str = "python",
        telemetry=None,
        telemetry_sample_period: float = 5.0,
        mode: str = "legacy",
        idle_fast_forward: bool = False,
        idle_epsilon: float = IDLE_EPSILON,
        datagram_latency: float = 0.0005,
        topology=None,
        scenario: Optional[str] = None,
        scenario_duration: float = 2000.0,
        scenario_loss: float = 0.05,
        mix=None,
        cloning: Optional[CloningConfig] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ClusterError(f"unknown policy {policy!r}; pick from {POLICIES}")
        if mode not in MODES:
            raise ClusterError(f"unknown mode {mode!r}; pick from {MODES}")
        if dt <= 0.0:
            raise ClusterError(f"dt must be positive, got {dt!r}")
        if telemetry_sample_period <= 0.0:
            raise ClusterError(
                f"telemetry_sample_period must be positive, "
                f"got {telemetry_sample_period!r}"
            )
        if datagram_latency < 0.0:
            raise ClusterError(
                f"datagram_latency must be non-negative, got {datagram_latency!r}"
            )
        if idle_epsilon <= 0.0:
            raise ClusterError(
                f"idle_epsilon must be positive, got {idle_epsilon!r}"
            )
        self.policy = policy
        self.mode = mode
        self.dt = dt
        if topology is not None and machines is table1.CLUSTER_MACHINES:
            # A topology names its own machines; only an explicit machine
            # list may disagree (and then the solver rejects the mismatch).
            machines = topology.machines
        self.machines = list(machines)
        self.topology = topology
        #: Workload scenario (see :mod:`repro.cluster.scenarios`): fills
        #: in the trace, request mix, and fault script unless each is
        #: explicitly overridden.  None keeps the classic Figure 11 path
        #: untouched (goldens are byte-identical by construction).
        self.scenario = scenario
        if scenario is not None:
            from .scenarios import build_scenario

            built = build_scenario(
                scenario,
                duration=scenario_duration,
                servers=len(self.machines),
                loss=scenario_loss,
            )
            if trace is None:
                trace = built.trace
            if mix is None:
                mix = built.mix
            if fiddle_script is None:
                fiddle_script = built.fiddle_script
        #: Request-cloning policy; None means classic single dispatch.
        self.cloning = cloning
        self._clone_scales: List[float] = []
        self.telemetry = _ensure_telemetry(telemetry)
        #: The discrete-event scheduler every time-driven layer runs on.
        self.kernel = EventKernel()
        # One clock: telemetry timestamps come from the kernel's SimClock.
        self.telemetry.use_clock(self.kernel.clock)
        self._datagram_latency = datagram_latency
        if k_overrides is None:
            k_overrides = FREON_K_OVERRIDES
        cluster_layout = validation_cluster(self.machines, k_overrides=k_overrides)
        self.solver = Solver(
            list(cluster_layout.machines.values()),
            # Spatial topology replaces the scalar cluster coupling: the
            # machines' inlets come from the recirculation operator.
            cluster=None if topology is not None else cluster_layout,
            dt=dt,
            record=False,
            engine=engine,
            telemetry=self.telemetry,
            topology=topology,
        )
        #: Always present; inert until a fault is scheduled or injected.
        self.injector = injector or FaultInjector(seed=fault_seed)
        if self.telemetry.enabled:
            # The injector's own log lists stay authoritative; telemetry
            # mirrors them (and LossyChannel/watchdog read it lazily).
            self.injector.telemetry = self.telemetry
        self.service = SensorService(
            self.solver, aliases=table1.sensor_map(), injector=self.injector,
            telemetry=self.telemetry,
        )
        self.balancer = LoadBalancer(self.machines)
        self.webservers: Dict[str, WebServer] = {
            name: WebServer(name, mix=mix, boot_time=boot_time)
            for name in self.machines
        }
        self.trace = trace if trace is not None else diurnal_trace(
            servers=len(self.machines)
        )
        self.config = freon_config or FreonConfig()
        if self.config.monitor_period < dt:
            raise ClusterError(
                f"monitor_period ({self.config.monitor_period!r}) must be at "
                f"least one tick (dt={dt!r})"
            )
        self._script: Optional[ScriptRunner] = None
        if fiddle_script:
            self._script = ScriptRunner(
                self.solver, parse_script(fiddle_script),
                injector=self.injector, telemetry=self.telemetry,
            )
        self.channel: Optional[LossyChannel] = None
        self._build_policy(regions)
        self.watchdog = DaemonWatchdog(
            self.injector,
            restart=self._restart_daemon,
            restart_delay=watchdog_restart_delay,
        )
        #: Every tick so far, as columns (see :mod:`repro.cluster.records`).
        self.records = RecordTable(self.machines)
        self.total_offered = 0.0
        self.total_dropped = 0.0
        self.time = 0.0
        self._sample_period = max(telemetry_sample_period, dt)
        self._sample_next = False
        self._ticks_done = 0
        self._last_offered = 0.0
        self._last_dropped = 0.0
        #: Lazy per-server ground-truth temperature readers (see
        #: :meth:`_temperature_readers`).
        self._temp_readers: Optional[List[Tuple[
            Dict[str, float], str, Dict[str, float], str]]] = None
        #: Idle fast-forward (opt-in): once every input to the thermal
        #: model has been quiet long enough and a probe step shows the
        #: temperature field converged, the solver coasts (holds
        #: temperatures, advances time) instead of iterating.
        self.fast_forward = bool(idle_fast_forward)
        self.idle_epsilon = idle_epsilon
        self._ff_quiet = 0
        self._ff_coasting = False
        self._ff_dirty = True
        self._ff_next_probe = IDLE_QUIET_TICKS
        self._ff_backoff = 1
        self._ff_last_utils: Dict[str, Tuple[float, float]] = {}
        self._register_handlers()
        self._schedule_initial_events()
        if self.telemetry.enabled:
            self._tel_offered = self.telemetry.counter(
                "cluster_requests_offered_total",
                help="Requests offered to the balancer (rate x dt).",
            )
            self._tel_dropped = self.telemetry.counter(
                "cluster_requests_dropped_total",
                help="Requests dropped for lack of capacity (rate x dt).",
            )
            self._tel_offered_rate = self.telemetry.gauge(
                "cluster_offered_rate",
                help="Offered request rate this tick, requests/second.",
            )
            self._tel_dropped_rate = self.telemetry.gauge(
                "cluster_dropped_rate",
                help="Dropped request rate this tick, requests/second.",
            )
            self._tel_active = self.telemetry.gauge(
                "cluster_active_servers",
                help="Servers currently accepting load (Figure 12's thick line).",
            )
        # Scenario/cloning metrics exist only when the feature is
        # configured: a classic run's registry dump stays byte-identical.
        self._tel_clone_scale = None
        self._tel_clone_shed = None
        if self.telemetry.enabled and self.cloning is not None:
            self._tel_clone_scale = self.telemetry.gauge(
                "cluster_clone_latency_scale",
                help="Response-time factor from request cloning this tick "
                     "(1/clones when cloning, 1.0 when shed).",
            )
            self._tel_clone_shed = self.telemetry.counter(
                "cluster_clone_shed_ticks_total",
                help="Ticks where cloning shed to single dispatch for "
                     "lack of capacity headroom.",
            )
        if self.telemetry.enabled and self.scenario is not None:
            self.telemetry.gauge(
                f"cluster_scenario_{self.scenario.replace('-', '_')}",
                help="Marker gauge: this run executes the named workload "
                     "scenario (1 = active).",
            ).set(1.0)

    # -- policy wiring -----------------------------------------------------

    def _build_policy(self, regions: Optional[RegionMap]) -> None:
        self.admd: Optional[Admd] = None
        self.traditional: Optional[TraditionalControlPolicy] = None
        self.tempds: Dict[str, Tempd] = {}
        self.governors: Dict[str, "DvfsGovernor"] = {}
        if self.policy == "none":
            return
        if self.policy == "local-dvfs":
            from ..freon.local import DvfsGovernor

            for name in self.machines:
                self.governors[name] = DvfsGovernor(
                    read_temperature=self._cpu_reader(name),
                    apply=self._dvfs_applier(name),
                    high=self.config.high("cpu"),
                    low=self.config.low("cpu"),
                    machine=name,
                    telemetry=self.telemetry,
                )
            return
        if self.policy == "traditional":
            # Built from the control registry and driven through this
            # simulation's state view (see _ev_policy).
            self.traditional = _build_control(
                "traditional", "cluster", config=self.config
            )
            return
        if self.policy == "freon":
            self.admd = Admd(
                self.balancer, config=self.config, turn_off=self.request_off,
                telemetry=self.telemetry,
            )
            ec_mode = False
        else:  # freon-ec
            region_map = regions or two_region_split(self.machines)
            self.admd = AdmdEC(
                self.balancer,
                regions=region_map,
                power=self,
                config=self.config,
                telemetry=self.telemetry,
            )
            ec_mode = True
        # tempd -> admd datagrams traverse the (fault-injectable) channel.
        # In event mode each datagram is a real kernel event with a
        # sub-tick network latency; legacy mode flushes once per tick.
        self.channel = LossyChannel(
            self.admd.deliver,
            self.injector,
            clock=self.kernel.clock if self.mode == "event" else None,
            latency=self._datagram_latency if self.mode == "event" else 0.0,
        )
        for name in self.machines:
            self.tempds[name] = Tempd(
                machine=name,
                temperature_reader=self._temperature_reader(name),
                send=self.channel,
                config=self.config,
                utilization_reader=self._utilization_reader(name) if ec_mode else None,
                telemetry=self.telemetry,
            )

    def _cpu_reader(self, name: str):
        def reader() -> float:
            return self.service.read_temperature(name, "cpu")

        return reader

    def _dvfs_applier(self, name: str):
        def apply(frequency_ratio: float, power_ratio: float) -> None:
            self.webservers[name].set_speed_factor(frequency_ratio)
            self.solver.machine(name).set_power_scale(
                table1.CPU, power_ratio
            )
            self._ff_mark_dirty()

        return apply

    def _temperature_reader(self, name: str):
        def reader() -> Dict[str, float]:
            return {
                "cpu": self.service.read_temperature(name, "cpu"),
                "disk": self.service.read_temperature(name, "disk"),
            }

        return reader

    def _utilization_reader(self, name: str):
        def reader() -> Dict[str, float]:
            load = self.webservers[name].load
            return {"cpu": load.cpu_utilization, "disk": load.disk_utilization}

        return reader

    # -- control-plane seam --------------------------------------------------

    def state_view(self):
        """A scalar :class:`~repro.control.ClusterStateView` over this
        simulation, for driving unified :mod:`repro.control` policies
        against the exact sensor/balancer/power paths the native
        daemons use."""
        view = getattr(self, "_state_view", None)
        if view is None:
            from ..control import ClusterStateView

            view = ClusterStateView(self)
            self._state_view = view
        return view

    # -- PowerController interface (used by Freon-EC) -----------------------

    def off_servers(self) -> List[str]:
        """Machines currently powered off."""
        return [
            name for name, ws in self.webservers.items()
            if ws.state is PowerState.OFF
        ]

    def active_servers(self) -> List[str]:
        """Machines currently accepting load."""
        return [
            name for name, ws in self.webservers.items()
            if ws.state is PowerState.ACTIVE
        ]

    def request_on(self, name: str) -> None:
        """Boot a machine; it joins the balancer once booted."""
        server = self.webservers[name]
        if server.state is not PowerState.OFF:
            return
        server.power_on()
        self._set_machine_power(name, on=True)

    def request_off(self, name: str) -> None:
        """Quiesce a machine in LVS and drain it; powers off when empty."""
        server = self.webservers[name]
        if server.state is not PowerState.ACTIVE:
            return
        self.balancer.quiesce(name)
        server.begin_drain()

    def _restart_daemon(self, machine: str, daemon: str) -> None:
        """Watchdog hook: rebuild a crashed daemon's in-memory state.

        A restarted tempd gets a fresh controller bank (derivative state
        does not survive a crash) but keeps knowledge of whether admd
        holds restrictions for its server — in a real deployment the
        supervisor hands that over from admd on reconnect.

        The wake cadence needs no attention here: the kernel keeps one
        "wake" event per machine on the monitor-period grid regardless
        of crashes, so a restarted daemon is structurally aligned with
        the grid rather than re-deriving a phase.
        """
        if daemon != "tempd" or machine not in self.tempds:
            return  # monitord has no in-memory state to rebuild here
        old = self.tempds[machine]
        replacement = Tempd(
            machine=machine,
            temperature_reader=self._temperature_reader(machine),
            send=self.channel,
            config=self.config,
            utilization_reader=old._read_utilizations,
            telemetry=self.telemetry,
        )
        replacement.restricted = old.restricted
        self.tempds[machine] = replacement

    def _set_machine_power(self, name: str, on: bool) -> None:
        factor = 1.0 if on else 0.0
        state = self.solver.machine(name)
        for component in state.layout.components:
            state.set_power_scale(component, factor)
        self._ff_mark_dirty()

    # -- event kernel wiring ---------------------------------------------------

    def _register_handlers(self) -> None:
        """Name every event kind the simulation schedules.

        Handlers are registered unconditionally (even for kinds the
        current policy never schedules) so a checkpointed event queue
        can always be restored onto a freshly constructed simulation.
        """
        k = self.kernel
        k.register("tick", self._ev_tick)
        k.register("record", self._ev_record)
        k.register("faults", self._ev_faults)
        k.register("command", self._ev_command)
        k.register("sample_gate", self._ev_sample_gate)
        k.register("stats", self._ev_stats)
        k.register("wake", self._ev_wake)
        k.register("deliver", self._ev_deliver)
        k.register("evaluate", self._ev_evaluate)
        k.register("policy", self._ev_policy)
        k.register("governor", self._ev_governor)
        k.register("watchdog", self._ev_watchdog)

    def _schedule_initial_events(self) -> None:
        k = self.kernel
        k.schedule(0.0, PRIORITY_FAULTS, "faults")
        k.schedule(0.0, PRIORITY_SAMPLE_GATE, "sample_gate")
        k.schedule(0.0, PRIORITY_TICK, "tick")
        if self._script is not None:
            for index, command in enumerate(self._script.commands):
                k.schedule(
                    command.time, PRIORITY_COMMAND, "command", {"index": index}
                )
        if self.admd is not None:
            k.schedule(self.config.stats_period, PRIORITY_STATS, "stats")
            for name in self.tempds:
                k.schedule(
                    self.config.monitor_period, PRIORITY_WAKE, "wake",
                    {"machine": name},
                )
            if self.mode == "legacy":
                k.schedule(self.dt, PRIORITY_DELIVER, "deliver")
            if isinstance(self.admd, AdmdEC):
                k.schedule(
                    self.config.monitor_period, PRIORITY_EVALUATE, "evaluate"
                )
        if self.traditional is not None:
            k.schedule(self.config.monitor_period, PRIORITY_POLICY, "policy")
        for name, governor in self.governors.items():
            k.schedule(
                governor.period, PRIORITY_GOVERNOR, "governor",
                {"machine": name},
            )
        k.schedule(self.watchdog.check_period, PRIORITY_WATCHDOG, "watchdog")

    # -- main loop ------------------------------------------------------------

    def run(self, duration: Optional[float] = None) -> SimulationResult:
        """Run for ``duration`` more seconds (default: the trace length)."""
        if duration is None:
            duration = self.trace.duration
        self._advance_ticks(int(round(duration / self.dt)))
        return self.result()

    def step(self, ticks: int = 1) -> TickRecord:
        """Advance the whole cluster ``ticks`` ticks; returns the last record.

        Only that one :class:`TickRecord` is built from the columns.
        """
        self._advance_ticks(ticks)
        return self.records[-1]

    def _advance_ticks(self, ticks: int) -> None:
        """Dispatch events until ``ticks`` more solver ticks have run.

        After each tick, same-timestamp management events (daemon
        wakes, deliveries, that tick's record) are drained too, so a
        paused simulation exposes exactly the state the legacy loop
        left behind after ``step()``.  Draining per tick dispatches the
        exact same event sequence as draining once at the end — the
        queue orders those events before the next tick anyway — and it
        gives the sweep batch runner a clean interleaving point.
        """
        for _ in range(ticks):
            self._run_until_tick()
            self._drain_tick_tail()

    def _run_until_tick(self) -> None:
        """Dispatch events until the next solver tick has fired."""
        target = self._ticks_done + 1
        while self._ticks_done < target:
            self.kernel.run_next()

    def _drain_tick_tail(self) -> None:
        """Dispatch the management events closing out the last tick.

        The head inspection reads the kernel's heap entries directly
        (time and priority ride in the tuple) instead of going through
        :meth:`EventKernel.peek`: this loop runs at least twice per
        tick and the method-call round trip shows up in sweeps.
        """
        horizon = self.solver.time + 1e-9
        kernel = self.kernel
        heap = kernel._heap
        while heap:
            time, priority, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if priority >= PRIORITY_FAULTS or time > horizon:
                break
            kernel.run_next()
        self.time = self.solver.time

    # -- event handlers --------------------------------------------------------

    def _ev_tick(self, event: Event) -> None:
        """One solver tick: load balancing, servers, monitord, physics."""
        now = event.time
        dt = self.dt

        # Load balancing.
        offered = self.trace.rate_at(now)
        capacities = {}
        response_times = {}
        active_ps = PowerState.ACTIVE
        for name, ws in self.webservers.items():
            # ws.capacity() inlined on its cached terms: this pair of
            # dict builds runs for every server every tick.
            capacities[name] = (
                ws._capacity_active if ws.state is active_ps else 0.0
            )
            response_times[name] = ws.load.response_time
        if self.cloning is None:
            allocation = self.balancer.allocate(
                offered, capacities, response_times
            )
        else:
            allocation = self.balancer.allocate_cloned(
                offered, capacities, response_times, self.cloning
            )
            self._clone_scales.append(allocation.latency_scale)
            if self._tel_clone_scale is not None:
                self._tel_clone_scale.set(allocation.latency_scale)
                if not allocation.cloned and self.cloning.clones > 1:
                    self._tel_clone_shed.inc()
        self.total_offered += offered * dt
        self.total_dropped += allocation.dropped_rate * dt

        # Servers process their share; balancer stats updated.
        rates = allocation.rates
        balancer_servers = self.balancer.server_map
        draining = PowerState.DRAINING
        off = PowerState.OFF
        for name, ws in self.webservers.items():
            was_draining = ws.state is draining
            # rates covers every registered server (dict.fromkeys in
            # allocate), so plain indexing is safe.
            load = ws.step(rates[name], dt)
            balancer_entry = balancer_servers[name]
            balancer_entry.active_connections = load.connections
            if was_draining and ws.state is off:
                self.balancer.mark_off(name)
                self._set_machine_power(name, on=False)
            if (
                ws.state is active_ps
                and balancer_entry.state is not ServerState.ACTIVE
            ):
                # Finished booting: rejoin the balancer, unrestricted.
                self.balancer.activate(name)
                self.balancer.set_weight(name, self.config.base_weight)
                self.balancer.set_connection_limit(name, None)
                if name in self.tempds:
                    self.tempds[name].restricted = False

        # Monitord feed plus one solver advance (step, or coast when the
        # idle fast-forward has proven the field converged).
        self._solver_tick()

        self.time = self.solver.time
        self._last_offered = offered
        self._last_dropped = allocation.dropped_rate
        self._ticks_done += 1
        self.kernel.schedule(
            self.solver.time, PRIORITY_RECORD, "record", {"time": now}
        )
        self.kernel.schedule(now + dt, PRIORITY_TICK, "tick")

    def _solver_tick(self) -> None:
        utils_changed = self._feed_monitord()
        if not self.fast_forward:
            self.solver.step()
            return
        # The feed's change flag doubles as the input-quiescence test.
        if self._ff_dirty or utils_changed:
            self._ff_dirty = False
            self._ff_quiet = 0
            self._ff_coasting = False
            self._ff_next_probe = IDLE_QUIET_TICKS
            self._ff_backoff = 1
        else:
            self._ff_quiet += 1
        if self._ff_coasting:
            # Inputs still quiet and the field already proved converged:
            # hold temperatures, advance time, skip the solve.
            self.solver.coast()
            return
        probe = self._ff_quiet >= self._ff_next_probe
        before = self._ff_snapshot() if probe else None
        self.solver.step()
        if probe:
            if self._ff_delta(before) <= self.idle_epsilon:
                self._ff_coasting = True
            else:
                self._ff_backoff = min(
                    self._ff_backoff * 2, IDLE_PROBE_BACKOFF_MAX
                )
                self._ff_next_probe = self._ff_quiet + self._ff_backoff

    def _feed_monitord(self) -> bool:
        """Feed utilizations to the solver; True if any machine's moved.

        The monitord path into Mercury.  A stalled or crashed monitord
        leaves the solver holding that machine's previous utilizations
        (stale data, as in life).  Machines whose pair matches the last
        fed values are skipped — set_utilizations is idempotent, and
        _ff_mark_dirty clears _ff_last_utils on every path that can
        touch the solver out of band (commands, faults, power changes),
        forcing a full re-feed.
        """
        changed = False
        last = self._ff_last_utils
        silenced = self.injector.silenced_monitords
        feed = self.solver.set_utilizations
        for name, ws in self.webservers.items():
            if name in silenced:
                continue
            load = ws.load
            pair = (load.cpu_utilization, load.disk_utilization)
            if last.get(name) != pair:
                changed = True
                last[name] = pair
                feed(
                    name,
                    {table1.CPU: pair[0], table1.DISK_PLATTERS: pair[1]},
                )
        return changed

    def _ff_mark_dirty(self) -> None:
        """An input to the thermal model changed: stop any coasting."""
        self._ff_dirty = True
        self._ff_quiet = 0
        self._ff_coasting = False
        self._ff_next_probe = IDLE_QUIET_TICKS
        self._ff_backoff = 1
        # Forget the fed utilizations: the dirtying event may have
        # touched solver state directly, so re-feed everything next tick.
        self._ff_last_utils.clear()

    def _ff_snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: dict(self.solver.machine(name).temperatures)
            for name in self.machines
        }

    def _ff_delta(self, before: Dict[str, Dict[str, float]]) -> float:
        worst = 0.0
        for name, old in before.items():
            for node, temp in self.solver.machine(name).temperatures.items():
                delta = abs(temp - old.get(node, temp))
                if delta > worst:
                    worst = delta
        return worst

    def _ev_record(self, event: Event) -> None:
        """Record the tick that just finished (label = its start time)."""
        label = float(event.payload["time"])
        self._record(label, self._last_offered, self._last_dropped)
        if self.telemetry.enabled:
            # The legacy loop stamped tick metrics at the tick's start;
            # rewind the shared clock for the publish so exposition and
            # sample timestamps stay identical.
            clock = self.kernel.clock
            finish = clock.now
            clock.advance(label)
            try:
                self._publish_tick()
            finally:
                clock.advance(finish)

    def _ev_faults(self, event: Event) -> None:
        before = len(self.injector.log)
        self.injector.advance_to(event.time)
        if len(self.injector.log) != before:
            self._ff_mark_dirty()
        self.kernel.schedule(event.time + self.dt, PRIORITY_FAULTS, "faults")

    def _ev_command(self, event: Event) -> None:
        self._script.fire(int(event.payload["index"]))
        self._ff_mark_dirty()

    def _ev_sample_gate(self, event: Event) -> None:
        self._sample_next = True
        self.kernel.schedule(
            event.time + self._sample_period, PRIORITY_SAMPLE_GATE,
            "sample_gate",
        )

    def _ev_stats(self, event: Event) -> None:
        self.admd.sample(event.time)
        self.kernel.schedule(
            event.time + self.config.stats_period, PRIORITY_STATS, "stats"
        )

    def _ev_wake(self, event: Event) -> None:
        name = event.payload["machine"]
        now = event.time
        tempd = self.tempds.get(name)
        if (
            tempd is not None
            and self.webservers[name].state is PowerState.ACTIVE
            and self.injector.daemon_up(name, "tempd")
        ):
            tempd.wake(now)
            if self.mode == "event":
                self._schedule_delivery()
        self.kernel.schedule(
            now + self.config.monitor_period, PRIORITY_WAKE, "wake",
            {"machine": name},
        )

    def _ev_deliver(self, event: Event) -> None:
        if self.channel is None:
            return
        self.channel.flush(event.time)
        if self.mode == "legacy":
            self.kernel.schedule(
                event.time + self.dt, PRIORITY_DELIVER, "deliver"
            )
        else:
            self._schedule_delivery()

    def _schedule_delivery(self) -> None:
        due = self.channel.next_due()
        if due is not None:
            self.kernel.schedule(
                max(due, self.kernel.clock.now), PRIORITY_DELIVER, "deliver"
            )

    def _ev_evaluate(self, event: Event) -> None:
        # Reconfigure once per monitor period, after the tempds.
        self.admd.evaluate(event.time)
        self.kernel.schedule(
            event.time + self.config.monitor_period, PRIORITY_EVALUATE,
            "evaluate",
        )

    def _ev_policy(self, event: Event) -> None:
        self.traditional.wake(self.state_view(), event.time)
        self.kernel.schedule(
            event.time + self.config.monitor_period, PRIORITY_POLICY, "policy"
        )

    def _ev_governor(self, event: Event) -> None:
        name = event.payload["machine"]
        self.governors[name].wake(event.time)
        self.kernel.schedule(
            event.time + self.governors[name].period, PRIORITY_GOVERNOR,
            "governor", {"machine": name},
        )

    def _ev_watchdog(self, event: Event) -> None:
        self.watchdog.check(event.time)
        self.kernel.schedule(
            event.time + self.watchdog.check_period, PRIORITY_WATCHDOG,
            "watchdog",
        )

    def _publish_tick(self) -> None:
        """Mirror the last recorded tick into the telemetry facade.

        Counters/gauges update every tick; the per-machine temperature
        samples that make up the Figure 11/12 series are emitted to the
        event stream every ``telemetry_sample_period`` seconds.
        """
        records = self.records
        offered = records.offered_rate[-1]
        dropped = records.dropped_rate[-1]
        active = records.active_servers[-1]
        self._tel_offered.inc(offered * self.dt)
        if dropped > 0.0:
            self._tel_dropped.inc(dropped * self.dt)
        self._tel_offered_rate.set(offered)
        self._tel_dropped_rate.set(dropped)
        self._tel_active.set(active)
        # The kernel's sample-gate event arms this flag once per
        # telemetry_sample_period; the next record publishes the series.
        if not self._sample_next:
            return
        self._sample_next = False
        # Straight to the event log (the facade's sample() would only
        # repack **attrs on this per-tick path).
        sample = self.telemetry.events.sample
        sample(
            "cluster_dropped_rate", dropped, "cluster",
            active_servers=active,
        )
        for name, (state, _, _, _, connections, weight, _, cpu, disk) in (
            records.servers.items()
        ):
            sample(
                "server_tick", cpu[-1], "cluster",
                machine=name,
                disk_temperature=disk[-1],
                weight=weight[-1],
                connections=connections[-1],
                state=state[-1],
            )

    def _temperature_readers(self) -> List[Tuple[Dict[str, float], str,
                                                 Dict[str, float], str]]:
        """Per-server (cpu temps dict, node, disk temps dict, node).

        Built once through :meth:`SensorService.true_pair` and then read
        directly every tick: the dicts are the solver's own per-machine
        temperature tables, mutated in place and never rebound (the same
        invariant the sensor service's ``_true_cache`` rests on).
        """
        readers = self._temp_readers
        if readers is None:
            service = self.service
            cache = service._true_cache
            readers = []
            for name in self.webservers:
                service.true_pair(name)  # populates the cache
                readers.append(cache[(name, "cpu")] + cache[(name, "disk")])
            self._temp_readers = readers
        return readers

    def _record(self, now: float, offered: float, dropped: float) -> None:
        """Append one tick's values to every column of ``records``."""
        records = self.records
        active = 0
        off = PowerState.OFF
        is_active = PowerState.ACTIVE
        balancer_servers = self.balancer.server_map
        readers = self._temperature_readers()
        for (name, ws), (cpu_temps, cpu_node, disk_temps, disk_node), (
            states, rates, cpu_utils, disk_utils, connections, weights,
            limits, cpu_temperatures, disk_temperatures,
        ) in zip(self.webservers.items(), readers, records.servers.values()):
            state = ws.state
            if state is is_active:
                active += 1
            balancer_entry = balancer_servers[name]
            load = ws.load
            response_time = load.response_time
            # _value_ is the member's plain attribute; .value is a
            # descriptor, and Enum hashing is Python-level.
            states.append(state._value_)
            rates.append(
                0.0 if state is off else load.connections
                / (response_time if response_time > 1e-9 else 1e-9)
            )
            cpu_utils.append(load.cpu_utilization)
            disk_utils.append(load.disk_utilization)
            connections.append(load.connections)
            weights.append(balancer_entry.weight)
            limits.append(balancer_entry.connection_limit)
            # Records hold the physical ground truth, not what a
            # possibly-faulted sensor claims.
            cpu_temperatures.append(cpu_temps[cpu_node])
            disk_temperatures.append(disk_temps[disk_node])
        records.time.append(now)
        records.offered_rate.append(offered)
        records.dropped_rate.append(dropped)
        records.active_servers.append(active)

    # -- checkpoint / restore ------------------------------------------------

    #: Checkpoint format version; bumped on incompatible layout changes.
    #: Version 2 added the pending event queue (the kernel refactor);
    #: version 3 stores the traditional policy's own checkpoint (dead
    #: machines and shutdowns, no cadence clock).
    CHECKPOINT_VERSION = 3

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the entire simulation as plain JSON-able data.

        Captures everything :meth:`apply_checkpoint` needs to continue
        the run bit-for-bit on a *freshly constructed* simulation built
        with the same configuration: solver state, balancer and web
        server state, every daemon's state, the fault injector
        (including its RNG stream), in-flight datagrams, the
        fiddle-script cursor, the kernel's pending event queue (wakes,
        deliveries, script statements — all cadence lives there), and
        the per-tick records so far.

        Telemetry is deliberately *not* checkpointed: a resumed run
        re-emits metrics from the resume point; sweep workers report
        whole-run registries, so resumed shards are compared on records
        and temperatures (see ``tests/parallel/test_checkpoint.py``).
        """
        script_state = None
        if self._script is not None:
            script_state = {
                "cursor": self._script._next,
                "fiddle_log": list(self._script.fiddle.log),
            }
        channel_state = None
        if self.channel is not None:
            channel_state = self.channel.checkpoint(encode=asdict)
        balancer_state = {
            "total_offered": self.balancer.total_offered,
            "total_dropped": self.balancer.total_dropped,
            "servers": {
                s.name: {
                    "weight": s.weight,
                    "connection_limit": s.connection_limit,
                    "state": s.state.value,
                    "active_connections": s.active_connections,
                }
                for s in self.balancer.servers()
            },
        }
        webserver_state = {
            name: {
                "state": ws.state.value,
                "boot_remaining": ws._boot_remaining,
                "speed_factor": ws.speed_factor,
                "load": asdict(ws.load),
            }
            for name, ws in self.webservers.items()
        }
        tempd_state = {
            name: self._tempd_checkpoint(tempd)
            for name, tempd in self.tempds.items()
        }
        admd_state = self._admd_checkpoint() if self.admd is not None else None
        traditional_state = (
            None if self.traditional is None else self.traditional.checkpoint()
        )
        governor_state = {
            name: {
                "index": g.index,
                "elapsed": g._elapsed,
                "time": g.time,
                "changes": [asdict(c) for c in g.changes],
            }
            for name, g in self.governors.items()
        }
        state: Dict[str, object] = {
            "version": self.CHECKPOINT_VERSION,
            "policy": self.policy,
            "time": self.time,
            "total_offered": self.total_offered,
            "total_dropped": self.total_dropped,
            "ticks_done": self._ticks_done,
            "last_offered": self._last_offered,
            "last_dropped": self._last_dropped,
            "sample_next": self._sample_next,
            "kernel": self.kernel.checkpoint(),
            "fast_forward": {
                "dirty": self._ff_dirty,
                "quiet": self._ff_quiet,
                "coasting": self._ff_coasting,
                "next_probe": self._ff_next_probe,
                "backoff": self._ff_backoff,
                "last_utils": {
                    name: [cpu, disk]
                    for name, (cpu, disk) in self._ff_last_utils.items()
                },
            },
            "solver": self.solver.checkpoint(),
            "injector": self.injector.checkpoint(),
            "watchdog": self.watchdog.checkpoint(),
            "script": script_state,
            "channel": channel_state,
            "balancer": balancer_state,
            "webservers": webserver_state,
            "tempds": tempd_state,
            "admd": admd_state,
            "traditional": traditional_state,
            "governors": governor_state,
            "records": self.records.to_dicts(),
        }
        if self.cloning is not None:
            # Key present only when cloning is configured, so classic
            # checkpoints keep their historical layout byte-for-byte.
            state["clone_scales"] = list(self._clone_scales)
        return state

    def apply_checkpoint(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` onto this simulation.

        The simulation must have been constructed with the same
        configuration (policy, machines, trace, script, seeds, engine)
        that produced the checkpoint; this method rewinds/forwards its
        mutable state only.
        """
        version = data.get("version")
        if version != self.CHECKPOINT_VERSION:
            raise ClusterError(
                f"checkpoint version {version!r} does not match "
                f"{self.CHECKPOINT_VERSION}"
            )
        if data["policy"] != self.policy:
            raise ClusterError(
                f"checkpoint policy {data['policy']!r} does not match "
                f"simulation policy {self.policy!r}"
            )
        records = RecordTable.from_dicts(self.machines, data["records"])
        self.solver.restore(data["solver"])
        self.injector.restore(data["injector"])
        self.watchdog.restore(data["watchdog"])
        if self._script is not None and data["script"] is not None:
            self._script._next = int(data["script"]["cursor"])
            self._script.fiddle.log[:] = list(data["script"]["fiddle_log"])
        if self.channel is not None and data["channel"] is not None:
            self.channel.restore(
                data["channel"], decode=lambda d: TempdMessage(**d)
            )
        balancer_state = data["balancer"]
        self.balancer.total_offered = float(balancer_state["total_offered"])
        self.balancer.total_dropped = float(balancer_state["total_dropped"])
        for name, saved in balancer_state["servers"].items():
            server = self.balancer.server(name)
            server.weight = float(saved["weight"])
            server.connection_limit = (
                None if saved["connection_limit"] is None
                else float(saved["connection_limit"])
            )
            server.state = ServerState(saved["state"])
            server.active_connections = float(saved["active_connections"])
        self.balancer.invalidate_caches()
        from .webserver import ServerLoad

        for name, saved in data["webservers"].items():
            ws = self.webservers[name]
            ws.state = PowerState(saved["state"])
            ws._boot_remaining = float(saved["boot_remaining"])
            ws.speed_factor = float(saved["speed_factor"])
            ws._refresh_speed_terms()
            ws.load = ServerLoad(**saved["load"])
        for name, saved in data["tempds"].items():
            if name in self.tempds:
                self._tempd_restore(self.tempds[name], saved)
        if self.admd is not None and data["admd"] is not None:
            self._admd_restore(data["admd"])
        if self.traditional is not None and data["traditional"] is not None:
            self.traditional.restore(data["traditional"])
        for name, saved in data["governors"].items():
            governor = self.governors.get(name)
            if governor is None:
                continue
            # Actuation effects (power scales, speed factors) are part
            # of the solver/webserver state restored above; only the
            # governor's own clock and history are rebuilt here.
            governor.index = int(saved["index"])
            governor._elapsed = float(saved["elapsed"])
            governor.time = float(saved["time"])
            from ..freon.local import PStateChange

            governor.changes = [PStateChange(**c) for c in saved["changes"]]
        self.time = float(data["time"])
        self.total_offered = float(data["total_offered"])
        self.total_dropped = float(data["total_dropped"])
        self._ticks_done = int(data["ticks_done"])
        self._last_offered = float(data["last_offered"])
        self._last_dropped = float(data["last_dropped"])
        self._sample_next = bool(data["sample_next"])
        ff = data["fast_forward"]
        self._ff_dirty = bool(ff["dirty"])
        self._ff_quiet = int(ff["quiet"])
        self._ff_coasting = bool(ff["coasting"])
        self._ff_next_probe = int(ff["next_probe"])
        self._ff_backoff = int(ff["backoff"])
        self._ff_last_utils = {
            name: (float(pair[0]), float(pair[1]))
            for name, pair in ff["last_utils"].items()
        }
        self.kernel.restore(data["kernel"])
        self.records = records
        self._clone_scales = [
            float(s) for s in data.get("clone_scales", [])
        ]

    @staticmethod
    def _tempd_checkpoint(tempd: Tempd) -> Dict[str, object]:
        last_good = tempd._last_good
        return {
            "restricted": tempd.restricted,
            "hot_components": list(tempd.hot_components),
            "elapsed": tempd._elapsed,
            "last_good": (
                None if last_good is None
                else [last_good[0], dict(last_good[1])]
            ),
            "last_output": tempd._last_output,
            "read_failures": tempd.read_failures,
            "stale_wakes": tempd.stale_wakes,
            "conservative_wakes": tempd.conservative_wakes,
            "messages_sent": tempd.messages_sent,
            "controllers": {
                component: controller._last_temperature
                for component, controller
                in tempd._controllers._controllers.items()
            },
        }

    @staticmethod
    def _tempd_restore(tempd: Tempd, saved: Mapping[str, object]) -> None:
        tempd.restricted = bool(saved["restricted"])
        tempd.hot_components = list(saved["hot_components"])
        tempd._elapsed = float(saved["elapsed"])
        last_good = saved["last_good"]
        tempd._last_good = (
            None if last_good is None
            else (float(last_good[0]), dict(last_good[1]))
        )
        tempd._last_output = (
            None if saved["last_output"] is None
            else float(saved["last_output"])
        )
        tempd.read_failures = int(saved["read_failures"])
        tempd.stale_wakes = int(saved["stale_wakes"])
        tempd.conservative_wakes = int(saved["conservative_wakes"])
        tempd.messages_sent = int(saved["messages_sent"])
        for component, last in saved["controllers"].items():
            tempd._controllers.controller(component)._last_temperature = last

    def _admd_checkpoint(self) -> Dict[str, object]:
        admd = self.admd
        assert admd is not None
        state: Dict[str, object] = {
            "stats_elapsed": admd._stats_elapsed,
            "samples": {
                name: [[t, c] for t, c in window]
                for name, window in admd._samples.items()
            },
            "adjustments": [list(a) for a in admd.adjustments],
            "releases": [list(r) for r in admd.releases],
            "redlined": [list(r) for r in admd.redlined],
        }
        if isinstance(admd, AdmdEC):
            state["ec"] = {
                "utilizations": {
                    name: dict(u) for name, u in admd._utilizations.items()
                },
                "previous_average": (
                    None if admd._previous_average is None
                    else dict(admd._previous_average)
                ),
                "hot": dict(admd._hot),
                "events": [asdict(e) for e in admd.events],
                "emergencies": dict(admd.regions._emergencies),
                "rr_index": admd.regions._rr_index,
            }
        return state

    def _admd_restore(self, saved: Mapping[str, object]) -> None:
        from collections import deque

        admd = self.admd
        assert admd is not None
        admd._stats_elapsed = float(saved["stats_elapsed"])
        for name, window in saved["samples"].items():
            admd._samples[name] = deque(
                (float(t), float(c)) for t, c in window
            )
        admd.adjustments = [
            (float(t), str(m), float(o)) for t, m, o in saved["adjustments"]
        ]
        admd.releases = [(float(t), str(m)) for t, m in saved["releases"]]
        admd.redlined = [(float(t), str(m)) for t, m in saved["redlined"]]
        if isinstance(admd, AdmdEC) and "ec" in saved:
            from ..freon.ec import EcEvent

            ec = saved["ec"]
            admd._utilizations = {
                name: dict(u) for name, u in ec["utilizations"].items()
            }
            admd._previous_average = (
                None if ec["previous_average"] is None
                else dict(ec["previous_average"])
            )
            admd._hot = {name: bool(v) for name, v in ec["hot"].items()}
            admd.events = [EcEvent(**e) for e in ec["events"]]
            admd.regions._emergencies = {
                region: int(n) for region, n in ec["emergencies"].items()
            }
            admd.regions._rr_index = int(ec["rr_index"])

    def result(self) -> SimulationResult:
        """Bundle the run's records and policy logs."""
        adjustments = self.admd.adjustments if self.admd else []
        releases = self.admd.releases if self.admd else []
        redlined = self.admd.redlined if self.admd else []
        ec_events = self.admd.events if isinstance(self.admd, AdmdEC) else []
        shutdowns = self.traditional.shutdowns if self.traditional else []
        pstate_changes = [
            change
            for governor in self.governors.values()
            for change in governor.changes
        ]
        pstate_changes.sort(key=lambda c: c.time)
        drop_fraction = (
            self.total_dropped / self.total_offered if self.total_offered else 0.0
        )
        datagram_stats = {}
        if self.channel is not None:
            datagram_stats = {
                "sent": self.channel.sent,
                "delivered": self.channel.delivered,
                "dropped": self.channel.dropped,
                "duplicated": self.channel.duplicated,
                "delayed": self.channel.delayed,
            }
        return SimulationResult(
            records=self.records.copy(),
            drop_fraction=drop_fraction,
            total_offered=self.total_offered,
            total_dropped=self.total_dropped,
            adjustments=list(adjustments),
            releases=list(releases),
            redlined=list(redlined),
            ec_events=list(ec_events),
            shutdowns=list(shutdowns),
            pstate_changes=pstate_changes,
            fiddle_log=list(self._script.fiddle.log) if self._script else [],
            fault_log=list(self.injector.log),
            restarts=list(self.watchdog.events),
            datagram_stats=datagram_stats,
            clone_latency_scales=list(self._clone_scales),
        )


def emergency_script(
    time: float = table1.EMERGENCY_TIME,
    inlet_m1: float = table1.EMERGENCY_INLET_M1,
    inlet_m3: float = table1.EMERGENCY_INLET_M3,
) -> str:
    """The section 5 emergency: fiddle raises two machines' inlets.

    "At 480 seconds, fiddle raised the inlet temperature of machine 1 to
    38.6 C and machine 3 to 35.6 C.  (The emergencies are set to last the
    entire experiment.)"
    """
    return (
        f"#!/bin/bash\n"
        f"sleep {time:g}\n"
        f"fiddle machine1 temperature inlet {inlet_m1:g}\n"
        f"fiddle machine3 temperature inlet {inlet_m3:g}\n"
    )


def chaos_script(
    loss: float = 0.05,
    stuck_machine: str = "machine2",
    stuck_value: float = 45.0,
    crash_machine: str = "machine1",
    crash_time: float = 1060.0,
) -> str:
    """The section 5 emergency plus an infrastructure-failure storm.

    On top of the Figure 11 thermal emergencies: ``loss`` datagram loss
    on the tempd -> admd path for the whole run, one disk sensor stuck
    at a plausible-but-frozen value, and one tempd crash while its
    server is hot and restricted (left for the watchdog to restart).
    This is the scenario the chaos benchmark and ``repro chaos`` replay.
    """
    emergency = emergency_script()
    tail_sleep = crash_time - table1.EMERGENCY_TIME
    return (
        f"fault net loss {loss:g}\n"
        + emergency
        + f"fault {stuck_machine} sensor stuck disk {stuck_value:g}\n"
        + f"sleep {tail_sleep:g}\n"
        + f"fault {crash_machine} daemon crash tempd\n"
    )
