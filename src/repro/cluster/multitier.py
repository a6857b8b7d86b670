"""Multi-tier services under Freon (paper section 7, future work).

"Freon needs to be extended to deal with multi-tier services."  This
module builds that extension on the existing pieces: a **web tier**
(static-heavy front ends) calls into an **application tier** (CPU-heavy
back ends); each tier sits behind its own weighted least-connections
balancer with its own tempd/admd pair, so a thermal emergency anywhere
in the pipeline is handled by the tier that feels it.

The tiers are coupled the way real request pipelines are: every web
request served spawns an application-tier request with probability
``app_fraction``, so the app tier's offered load is the web tier's
*served* throughput scaled — web-tier drops shield the app tier, and
app-tier drops show up as end-to-end failures of served web requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import table1
from ..config.layouts import validation_cluster
from ..control import ClusterStateView
from ..core.solver import Solver
from ..daemons.admd import Admd
from ..daemons.tempd import Tempd
from ..errors import ClusterError
from ..fiddle.script import ScriptRunner, parse_script
from ..freon.policy import FreonConfig
from ..sensors.server import SensorService
from .lvs import LoadBalancer
from .simulation import FREON_K_OVERRIDES
from .tracegen import RequestTrace, diurnal_trace
from .webserver import RequestMix, WebServer

#: Request mixes per tier: the front ends mostly serve files, the back
#: ends mostly compute.
WEB_TIER_MIX = RequestMix(
    dynamic_fraction=0.05, dynamic_cpu=0.010, static_cpu=0.002,
    static_disk=0.008, dynamic_disk=0.002,
)
APP_TIER_MIX = RequestMix(
    dynamic_fraction=1.0, dynamic_cpu=0.025, static_cpu=0.0,
    static_disk=0.0, dynamic_disk=0.002,
)


@dataclass
class TierRecord:
    """One tier's aggregate observables at one tick."""

    offered: float
    dropped: float
    cpu_utilizations: Dict[str, float] = field(default_factory=dict)
    cpu_temperatures: Dict[str, float] = field(default_factory=dict)


@dataclass
class MultiTierTick:
    """One tick of the whole pipeline."""

    time: float
    web: TierRecord
    app: TierRecord


@dataclass
class MultiTierResult:
    """Outcome of a multi-tier run."""

    records: List[MultiTierTick]
    web_drop_fraction: float
    app_drop_fraction: float
    end_to_end_drop_fraction: float
    adjustments: Dict[str, List[Tuple[float, str, float]]]

    def max_temperature(self, tier: str, machine: str) -> float:
        """Peak CPU temperature of one machine in one tier."""
        return max(
            getattr(r, tier).cpu_temperatures[machine] for r in self.records
        )


class _Tier:
    """One tier: servers, balancer, Mercury machines, Freon daemons.

    The tier's tempd and admd act through a
    :class:`~repro.control.view.ClusterStateView` over the tier itself.
    Tiers have no power control and no fault injector: a REDLINE is
    recorded and nothing powers off.
    """

    injector = None

    def __init__(
        self,
        label: str,
        machines: Sequence[str],
        mix: RequestMix,
        solver: Solver,
        service: SensorService,
        config: FreonConfig,
        managed: bool,
    ) -> None:
        self.label = label
        self.machines = list(machines)
        self.solver = solver
        self.service = service
        self.balancer = LoadBalancer(self.machines)
        self.webservers = {
            name: WebServer(name, mix=mix) for name in self.machines
        }
        self.config = config
        self.admd: Optional[Admd] = None
        self.tempd: Optional[Tempd] = None
        if managed:
            view = ClusterStateView(self)
            self.admd = Admd(view, config=config)
            # No network between them: admd handles each message at once.
            self.tempd = Tempd(view, self.admd.deliver, config=config)
        self._stats_clock = 0.0
        self._wake_clock = 0.0

    def request_on(self, name: str) -> None:
        """Tiers have no power control."""

    def request_off(self, name: str) -> None:
        """Tiers have no power control."""

    def step(self, offered: float, dt: float, now: float) -> TierRecord:
        capacities = {
            name: server.capacity() for name, server in self.webservers.items()
        }
        response_times = {
            name: server.load.response_time
            for name, server in self.webservers.items()
        }
        allocation = self.balancer.allocate(offered, capacities, response_times)
        record = TierRecord(offered=offered, dropped=allocation.dropped_rate)
        for name, server in self.webservers.items():
            load = server.step(allocation.rates.get(name, 0.0), dt)
            self.balancer.server(name).active_connections = load.connections
            self.solver.set_utilizations(
                name,
                {
                    table1.CPU: load.cpu_utilization,
                    table1.DISK_PLATTERS: load.disk_utilization,
                },
            )
            record.cpu_utilizations[name] = load.cpu_utilization
        return record

    def observe(self, record: TierRecord) -> None:
        for name in self.machines:
            record.cpu_temperatures[name] = self.service.read_temperature(
                name, "cpu"
            )

    def tick_daemons(self, dt: float, now: float) -> None:
        """Advance the daemon clocks: admd samples LVS every stats
        period, tempd wakes every monitor period."""
        if self.admd is None:
            return
        config = self.config
        self._stats_clock += dt
        if self._stats_clock + 1e-9 >= config.stats_period:
            self._stats_clock = 0.0
            self.admd.sample(now)
        self._wake_clock += dt
        if self._wake_clock + 1e-9 >= config.monitor_period:
            self._wake_clock = 0.0
            self.tempd.wake(now)


class MultiTierSimulation:
    """A two-tier service with per-tier Freon management."""

    def __init__(
        self,
        web_machines: Sequence[str] = ("web1", "web2", "web3", "web4"),
        app_machines: Sequence[str] = ("app1", "app2", "app3", "app4"),
        app_fraction: float = 0.30,
        policy: str = "freon",
        trace: Optional[RequestTrace] = None,
        fiddle_script: Optional[str] = None,
        freon_config: Optional[FreonConfig] = None,
        dt: float = 1.0,
    ) -> None:
        if policy not in ("none", "freon"):
            raise ClusterError(f"multi-tier supports 'none'/'freon', not {policy!r}")
        if not 0.0 <= app_fraction <= 1.0:
            raise ClusterError("app_fraction must be in [0, 1]")
        if set(web_machines) & set(app_machines):
            raise ClusterError("tier machine names must be disjoint")
        self.app_fraction = app_fraction
        self.dt = dt
        all_names = list(web_machines) + list(app_machines)
        cluster = validation_cluster(all_names, k_overrides=FREON_K_OVERRIDES)
        self.solver = Solver(
            list(cluster.machines.values()), cluster=cluster, dt=dt,
            record=False,
        )
        self.service = SensorService(self.solver, aliases=table1.sensor_map())
        config = freon_config or FreonConfig()
        managed = policy == "freon"
        self.web = _Tier(
            "web", web_machines, WEB_TIER_MIX, self.solver, self.service,
            config, managed,
        )
        self.app = _Tier(
            "app", app_machines, APP_TIER_MIX, self.solver, self.service,
            config, managed,
        )
        # The web tier must saturate *after* the app tier at the default
        # trace: size the offered load to the app tier's capability.
        self.trace = trace if trace is not None else diurnal_trace(
            servers=len(app_machines),
            mix=APP_TIER_MIX,
            peak_utilization=0.70,
        )
        self._script: Optional[ScriptRunner] = None
        if fiddle_script:
            self._script = ScriptRunner(self.solver, parse_script(fiddle_script))
        self.records: List[MultiTierTick] = []
        self.time = 0.0

    def run(self, duration: Optional[float] = None) -> MultiTierResult:
        """Run the pipeline for ``duration`` seconds (default: the trace)."""
        if duration is None:
            duration = self.trace.duration
        ticks = int(round(duration / self.dt))
        for _ in range(ticks):
            self.step()
        return self.result()

    def step(self) -> MultiTierTick:
        """One tick: web tier first, then the app tier it feeds."""
        now = self.time
        if self._script is not None:
            self._script.advance_to(now)
        # The incoming trace is sized in app-tier units; the web tier
        # sees every end-user request.
        offered_web = self.trace.rate_at(now) / max(self.app_fraction, 1e-9)
        web_record = self.web.step(offered_web, self.dt, now)
        served_web = offered_web - web_record.dropped
        offered_app = served_web * self.app_fraction
        app_record = self.app.step(offered_app, self.dt, now)
        self.solver.step()
        self.time = self.solver.time
        self.web.observe(web_record)
        self.app.observe(app_record)
        self.web.tick_daemons(self.dt, self.time)
        self.app.tick_daemons(self.dt, self.time)
        tick = MultiTierTick(time=now, web=web_record, app=app_record)
        self.records.append(tick)
        return tick

    def result(self) -> MultiTierResult:
        """Aggregate the run."""
        web_offered = sum(r.web.offered for r in self.records) * self.dt
        web_dropped = sum(r.web.dropped for r in self.records) * self.dt
        app_offered = sum(r.app.offered for r in self.records) * self.dt
        app_dropped = sum(r.app.dropped for r in self.records) * self.dt
        # End-to-end: a user request fails if dropped at the web tier or
        # if its spawned app request is dropped.
        failed = web_dropped + (
            app_dropped / max(self.app_fraction, 1e-9)
        )
        adjustments = {}
        for tier in (self.web, self.app):
            adjustments[tier.label] = (
                list(tier.admd.adjustments) if tier.admd else []
            )
        return MultiTierResult(
            records=list(self.records),
            web_drop_fraction=web_dropped / web_offered if web_offered else 0.0,
            app_drop_fraction=app_dropped / app_offered if app_offered else 0.0,
            end_to_end_drop_fraction=(
                failed / web_offered if web_offered else 0.0
            ),
            adjustments=adjustments,
        )
