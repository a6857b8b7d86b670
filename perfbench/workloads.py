"""The four benchmark workloads, built through repro's public APIs.

Each workload turns a :class:`Seeds` into one *repetition*: a complete
experiment (build, step to the end, collect), whose simulated outcomes
are checked and returned with the host time its stepping phase took.
Stepping runs in chunks of :data:`perfbench.host.CHUNK_S`; each chunk is
closed by a reference slice (:class:`perfbench.host.HostMeter`), which
is how the workloads report normalised throughput.  ``serve-scrape``
steps inside an asyncio loop, so its slices run as a task on that loop.

All program calls go through module attributes (``engine.collect_result``,
``exposition.to_prometheus``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import repro.parallel.engine as engine
import repro.telemetry.exposition as exposition
from repro.cluster.simulation import ClusterSimulation, chaos_script
from repro.config import table1
from repro.control import POWER_OFF
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultSchedule
from repro.parallel.batch import BatchMember, BatchRunner, partition_specs
from repro.parallel.spec import expand_grid, fig11_grid
from repro.serve import ThermalService, http_get
from repro.telemetry import Telemetry
from repro.topology import ScaleSimulation, grid_topology, inlet_events_from_script

from .host import CHUNK_S, NOMINAL_REF_S, HostMeter

#: The paper's CPU red line; Freon and Freon-EC must keep every CPU below.
T_RED_CPU = table1.T_RED_CPU

#: Policies whose runs are held to the red line and report ``peak_cpu_c``.
MANAGED = ("freon", "freon-ec")

#: Relative tolerance of the offered = served + dropped check.
CONSERVATION_RTOL = 1e-9

#: serve-scrape: mean scrapes per second (Poisson arrivals), simulated
#: seconds per session (``repro serve``'s default duration), and the
#: latency a failed scrape is recorded at (beyond every sample).
SCRAPE_RATE = 50.0
SESSION_SIM_S = 2000.0
SCRAPE_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class Seeds:
    """The inputs derived from ``--seed``; repro sees only these."""

    fault: int
    phase: int
    sweep: Tuple[int, ...]


def derive_seeds(seed: int) -> Seeds:
    """Fault-injector seed, diurnal phase seed and the four per-run
    sweep seeds, all drawn from one stream seeded by ``seed``."""
    rng = random.Random(seed)
    return Seeds(
        fault=rng.randrange(1, 2**31),
        phase=rng.randrange(1, 2**31),
        sweep=tuple(rng.sample(range(2**31), 4)),
    )


@dataclass(frozen=True)
class Outcome:
    """Simulated results; identical for a seed whatever the host does."""

    served_frac: float
    peak_cpu_c: float
    energy_frac: float


@dataclass
class Repetition:
    """One complete experiment of a workload (its host time goes to the
    HostMeter passed to :meth:`Workload.repeat`)."""

    sim_s: float
    outcome: Outcome
    #: Operations checked (runs; scrapes plus the session for
    #: serve-scrape) and how many of them failed a check.
    attempted: int
    failed: int
    failures: List[str]
    #: Normalised scrape latencies, s (on the batch workloads, the one
    #: snapshot render of the run); generator lateness (serve-scrape).
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)


def _has_family(families, name: str) -> bool:
    return any(key[0] == name for key in families)


def check_cluster_run(simulation: ClusterSimulation, label: str):
    """Checks and outcome sums for one finished cluster-stack run.

    Returns ``(failures, offered, dropped, peak, on_ticks, server_ticks)``
    where ``peak`` is the run's hottest CPU (``-inf`` for unmanaged
    policies, which are not held to the red line).
    """
    result = simulation.result()
    failures = []
    served = 0.0
    on_ticks = 0
    server_ticks = 0
    hottest = -math.inf
    finite = True
    for record in result.records:
        for server in record.servers.values():
            served += server.rate
            server_ticks += 1
            if server.state != "off":
                on_ticks += 1
            finite = finite and math.isfinite(server.cpu_temperature) \
                and math.isfinite(server.disk_temperature)
            hottest = max(hottest, server.cpu_temperature)
    if not finite:
        failures.append(f"{label}: non-finite temperature")
    served *= simulation.dt
    offered, dropped = result.total_offered, result.total_dropped
    if not math.isclose(offered, served + dropped,
                        rel_tol=CONSERVATION_RTOL, abs_tol=1e-6):
        failures.append(f"{label}: offered {offered!r} != served {served!r} "
                        f"+ dropped {dropped!r}")
    if simulation.policy in MANAGED:
        if hottest >= T_RED_CPU:
            failures.append(f"{label}: peak CPU {hottest:.3f} C reached "
                            f"T_red {T_RED_CPU} C")
    else:
        hottest = -math.inf
    return failures, offered, dropped, hottest, on_ticks, server_ticks


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    #: A metric family every scrape of this workload must contain.
    expected_family = ""

    def build(self, seeds: Seeds):
        """Everything a repetition needs, ready to step."""
        raise NotImplementedError

    def warm(self, seeds: Seeds) -> None:
        """Touch every code path once so lazy imports and first-call
        costs land outside the measurement."""
        raise NotImplementedError

    def repeat(self, seeds: Seeds, meter: HostMeter) -> Repetition:
        raise NotImplementedError


class ScaleWorkload(Workload):
    """A ``repro scale --telemetry`` run: one ScaleSimulation stepped to
    the end, then its Prometheus snapshot rendered."""

    expected_family = "sim_machines"

    def __init__(self, name: str, machines: int, zones: int,
                 duration: float, policy: str, chaos: bool) -> None:
        self.name = name
        self.machines = machines
        self.zones = zones
        self.duration = duration
        self.policy = policy
        self.chaos = chaos

    def build(self, seeds: Seeds) -> ScaleSimulation:
        topology = grid_topology(self.machines, zones=self.zones,
                                 machines_per_rack=20)
        injector = None
        inlet_events = None
        if self.chaos:
            script = chaos_script()
            inlet_events = inlet_events_from_script(script)
            injector = FaultInjector(FaultSchedule.from_script(script),
                                     seed=seeds.fault)
        return ScaleSimulation(
            topology, duration=self.duration, policy=self.policy,
            telemetry=Telemetry(), injector=injector,
            inlet_events=inlet_events, fault_seed=seeds.fault,
            phase_seed=seeds.phase,
        )

    def warm(self, seeds: Seeds) -> None:
        sim = self.build(seeds)
        sim.step(20)
        exposition.to_prometheus(sim.telemetry.registry)

    def repeat(self, seeds: Seeds, meter: HostMeter) -> Repetition:
        sim = self.build(seeds)
        dt = sim.dt
        ticks = int(round(self.duration / dt))
        base_rt = sim.mix.base_response_time
        served = 0.0
        powered = 0
        hottest = -math.inf
        finite = True
        done = 0
        clock = time.perf_counter
        while done < ticks:
            elapsed = 0.0
            while done < ticks and elapsed < CHUNK_S:
                start = clock()
                sim.step(1)
                elapsed += clock() - start
                done += 1
                # Bookkeeping for the output checks, outside the timing.
                peak = float(sim.solver.node_column(table1.CPU).max())
                if math.isfinite(peak):
                    hottest = max(hottest, peak)
                else:
                    finite = False
                served += float(sim.connections().sum()) / base_rt * dt
                powered += int(np.count_nonzero(sim.power != POWER_OFF))
            meter.account(elapsed)
        failures = []
        offered, dropped = sim.offered_total, sim.dropped_total
        if not math.isclose(offered, served + dropped,
                            rel_tol=CONSERVATION_RTOL, abs_tol=1e-6):
            failures.append(f"offered {offered!r} != served {served!r} + "
                            f"dropped {dropped!r}")
        if not (finite and np.isfinite(sim.solver.group.T).all()):
            failures.append("non-finite temperature")
        if self.policy in MANAGED and hottest >= T_RED_CPU:
            failures.append(f"peak CPU {hottest:.3f} C reached T_red "
                            f"{T_RED_CPU} C")
        outcome = Outcome(
            served_frac=1.0 - dropped / offered if offered else 0.0,
            peak_cpu_c=hottest,
            energy_frac=powered / (sim.solver.n * ticks),
        )
        latency = render_snapshot(
            self, lambda: exposition.to_prometheus(sim.telemetry.registry),
            meter, failures)
        return Repetition(ticks * dt, outcome, 1, int(bool(failures)),
                          failures, [latency])


class GridWorkload(Workload):
    """``fig11_grid`` under the chaos storm through the batch sweep:
    build every spec, step them in lockstep on one BatchRunner, then
    collect and merge the artifact, as ``sweep(strategy="batch",
    workers=1)`` does for a grid with one layout signature."""

    name = "grid16-chaos"
    expected_family = "cluster_requests_offered_total"
    policies = ("none", "traditional", "freon", "freon-ec")
    duration = 2000.0

    def specs(self, seeds: Seeds):
        grid = fig11_grid(duration=self.duration, seeds=len(seeds.sweep),
                          engine="compiled", policies=self.policies)
        grid["base"]["scenario"] = "chaos"
        grid["axes"]["seed"] = list(seeds.sweep)
        specs = expand_grid(grid)
        _, evicted = partition_specs(specs)
        if evicted:
            raise ReproError(f"grid16-chaos runs left the batch path: {evicted}")
        return specs

    def build(self, seeds: Seeds) -> BatchRunner:
        return BatchRunner([
            BatchMember(spec, engine.build_simulation(spec))
            for spec in self.specs(seeds)
        ])

    def warm(self, seeds: Seeds) -> None:
        runner = self.build(seeds)
        runner.run_ticks(10)
        artifact = engine.merge_results([
            engine.collect_result(m.spec, m.simulation) for m in runner.members
        ])
        exposition.to_prometheus(engine.artifact_registry(artifact))

    def repeat(self, seeds: Seeds, meter: HostMeter) -> Repetition:
        runner = self.build(seeds)
        clock = time.perf_counter
        ticks = 1
        while ticks:
            elapsed = 0.0
            while ticks and elapsed < CHUNK_S:
                start = clock()
                ticks = runner.run_ticks(1)
                elapsed += clock() - start
            meter.account(elapsed)
        # Collecting and merging is the sweep's tail, part of its wall
        # time; each collect is a chunk of its own (~40 ms).
        results = []
        for member in runner.members:
            start = clock()
            results.append(engine.collect_result(
                member.spec, member.simulation, member.resumed))
            meter.account(clock() - start)
        start = clock()
        artifact = engine.merge_results(results)
        meter.account(clock() - start)

        failures = []
        failed = 0
        offered = dropped = 0.0
        hottest = -math.inf
        on_ticks = server_ticks = 0
        for member in runner.members:
            fails, off, drop, peak, on, total = check_cluster_run(
                member.simulation, member.spec.run_id)
            failures.extend(fails)
            failed += int(bool(fails))
            offered += off
            dropped += drop
            hottest = max(hottest, peak)
            on_ticks += on
            server_ticks += total
        if [r["run_id"] for r in artifact["runs"]] != sorted(
                m.spec.run_id for m in runner.members):
            failures.append("merged artifact does not list every run once")
            failed = max(failed, 1)
        outcome = Outcome(
            served_frac=1.0 - dropped / offered if offered else 0.0,
            peak_cpu_c=hottest,
            energy_frac=on_ticks / server_ticks,
        )
        sim_s = sum(m.simulation.time for m in runner.members)
        checked = len(failures)
        latency = render_snapshot(self, lambda: exposition.to_prometheus(
            engine.artifact_registry(artifact)), meter, failures)
        if len(failures) > checked:
            failed = max(failed, 1)
        return Repetition(sim_s, outcome, len(runner.members), failed,
                          failures, [latency])


class ServeWorkload(Workload):
    """``repro serve --chaos --policy freon-ec --pace 0``: the service
    free-runs (one 5 s frame of simulation between event-loop turns)
    while one open-loop client scrapes ``/metrics`` at Poisson arrival
    times drawn from the seed.

    Each scrape is timed from its due time, so a scrape held up behind
    simulation chunks (or a late generator) counts the whole wait.  A
    paced service was tried first; its latencies swung by 15-45 % between
    runs with the neighbours' load, while free-running ones stayed within
    a few percent, since every wait is then a whole number of chunks.
    """

    name = "serve-scrape"
    expected_family = "cluster_requests_offered_total"

    def build(self, seeds: Seeds) -> ThermalService:
        simulation = ClusterSimulation(
            policy="freon-ec", fiddle_script=chaos_script(),
            injector=FaultInjector(seed=seeds.fault), engine="python",
            telemetry=Telemetry(),
        )
        return ThermalService(simulation)

    def warm(self, seeds: Seeds) -> None:
        self.build(seeds).advance(5)

    async def _scrape(self, host: str, port: int, due: float):
        loop = asyncio.get_running_loop()
        late = loop.time() - due
        try:
            status, _, body = await asyncio.wait_for(
                http_get(host, port, "/metrics"), SCRAPE_TIMEOUT_S)
            latency = loop.time() - due
            families = exposition.parse_prometheus(body.decode("utf-8"))
        except (OSError, asyncio.TimeoutError, ValueError, ReproError) as exc:
            return SCRAPE_TIMEOUT_S, late, f"scrape failed: {exc!r}", 0.0
        if status != 200:
            return SCRAPE_TIMEOUT_S, late, f"scrape returned HTTP {status}", 0.0
        if not _has_family(families, self.expected_family):
            return (SCRAPE_TIMEOUT_S, late,
                    "scrape lacks the simulation's series", 0.0)
        return latency, late, None, due + latency

    async def _session(self, service: ThermalService, arrivals: random.Random,
                       meter: HostMeter):
        """One served run.  Every :data:`CHUNK_S` a reference slice runs
        on the loop itself (the slices need the process to themselves,
        and the loop is this process); the session's host time between
        slices and each scrape's latency are scaled by the slices next
        to them.  Returns ``(latency, lateness, error)`` per scrape."""
        async with service:
            host, port = service.address
            loop = asyncio.get_running_loop()
            started = loop.time()
            slices: List[Tuple[float, float]] = []  # (end time, scale)

            async def serve() -> float:
                await service.serve(duration=SESSION_SIM_S, pace=0.0)
                return loop.time()

            async def measure() -> float:
                last = started
                while True:
                    await asyncio.sleep(CHUNK_S)
                    if run.done():
                        return last
                    begin = loop.time()
                    meter.reference()
                    scale = NOMINAL_REF_S / meter.ref_s[-1]
                    meter.add(begin - last, scale)
                    last = loop.time()
                    slices.append((last, scale))

            run = asyncio.create_task(serve())
            slicer = asyncio.create_task(measure())
            scrapes = []
            due = started
            while not run.done():
                due += arrivals.expovariate(SCRAPE_RATE)
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                    if run.done():
                        break
                scrapes.append(asyncio.create_task(
                    self._scrape(host, port, due)))
            finished = await run
            last = await slicer
            outcomes = await asyncio.gather(*scrapes)
        if not slices:
            raise ReproError("serve-scrape session too short to measure")
        meter.add(finished - last, slices[-1][1])
        ends = [end for end, _ in slices]
        scaled = []
        for latency, late, error, done_at in outcomes:
            if error is None:
                i = bisect.bisect_left(ends, done_at)
                near = [scale for _, scale in slices[max(0, i - 2):i + 2]]
                latency *= statistics.median(near)
            scaled.append((latency, late, error))
        return scaled

    def repeat(self, seeds: Seeds, meter: HostMeter) -> Repetition:
        service = self.build(seeds)
        scrapes = asyncio.run(
            self._session(service, random.Random(seeds.phase), meter))
        simulation = service.simulation
        failures, offered, dropped, hottest, on, total = check_cluster_run(
            simulation, "session")
        session_failed = int(bool(failures))
        scrape_errors = [error for _, _, error in scrapes if error]
        failures.extend(scrape_errors)
        outcome = Outcome(
            served_frac=1.0 - dropped / offered if offered else 0.0,
            peak_cpu_c=hottest,
            energy_frac=on / total,
        )
        return Repetition(
            simulation.time, outcome, len(scrapes) + 1,
            len(scrape_errors) + session_failed, failures,
            latencies=[latency for latency, _, _ in scrapes],
            lateness=[late for _, late, _ in scrapes],
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        ScaleWorkload("scale1k-ec-chaos", machines=1000, zones=4,
                      duration=3600.0, policy="freon-ec", chaos=True),
        ScaleWorkload("scale10k-freon", machines=10000, zones=8,
                      duration=600.0, policy="freon", chaos=False),
        GridWorkload(),
        ServeWorkload(),
    )
}


def render_snapshot(workload: Workload, render, meter: HostMeter,
                    failures: List[str]) -> float:
    """Render a finished run's Prometheus snapshot once, as ``repro scale
    --telemetry`` (``write_snapshot``) and ``repro sweep``
    (``write_artifact``) do at the end of a run: the batch workloads'
    scrape.  Returns its latency in seconds, normalised by the reference
    slices either side of it.  A snapshot that does not parse or lacks
    the run's series is appended to ``failures`` and recorded at
    :data:`SCRAPE_TIMEOUT_S`, beyond every other sample.

    The render is timed in CPU seconds: a run has only 5-9 samples, so
    its p90 rests on its two slowest renders, and on the wall clock one
    render that lost the CPU to another process would set it."""
    gc.collect()  # the stepping phase's garbage is not the render's cost
    before = meter.reference()
    start = time.process_time()
    text = render()
    elapsed = time.process_time() - start
    after = meter.reference()
    try:
        families = exposition.parse_prometheus(text)
    except (ValueError, ReproError) as exc:
        failures.append(f"snapshot does not parse: {exc!r}")
        return SCRAPE_TIMEOUT_S
    if not _has_family(families, workload.expected_family):
        failures.append("snapshot lacks the run's series")
        return SCRAPE_TIMEOUT_S
    return elapsed * 2 * NOMINAL_REF_S / (before + after)


def percentile(values: List[float], q: float) -> float:
    """Percentile interpolated between the two nearest ranks (NumPy's
    default), so that with the 5-9 samples of a batch workload the p90
    is not simply the slowest render."""
    return float(np.percentile(values, q * 100.0))
