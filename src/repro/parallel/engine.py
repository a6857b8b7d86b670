"""The sweep engine: fan runs across workers, merge one artifact.

The parent expands a grid into :class:`~repro.parallel.spec.RunSpec`
lists, ships them to a ``multiprocessing`` pool as plain dicts, and
merges what comes back.  Three properties make the fan-out safe:

* **Determinism** — a run is a pure function of its spec (the fault RNG
  is seeded via :func:`repro.faults.derive_seed` from the spec's seed
  and run id), and the merge is order-independent, so any worker count
  and any completion order produce a byte-identical artifact.
* **Crash recovery** — workers checkpoint every ``checkpoint_every``
  simulated seconds; a crashed run is resumed by the parent from the
  last checkpoint instead of restarting the sweep.
* **Plain-data boundaries** — specs, checkpoints, records, and dumped
  telemetry registries are JSON-able dicts; no live object (solver,
  socket, clock closure) ever crosses a process boundary.

Per-run telemetry registries are merged into one
:class:`~repro.telemetry.Registry` with a ``run`` label namespacing
every child, so the merged Prometheus snapshot holds the whole sweep.
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.lvs import CloningConfig
from ..cluster.simulation import (
    FREON_K_OVERRIDES,
    ClusterSimulation,
    chaos_script,
    emergency_script,
)
from ..config.layouts import validation_cluster
from ..core.compiled import compile_layout
from ..errors import SweepError
from ..faults import derive_seed
from ..freon.policy import ComponentThresholds, FreonConfig
from ..telemetry import (
    Registry,
    Telemetry,
    dump_registry,
    load_registry,
    to_prometheus,
)
from .spec import RunResult, RunSpec

#: Version tag of the merged sweep artifact layout.
ARTIFACT_VERSION = 1

#: Metric families measuring *host* performance (wall-clock durations).
#: Every other family is a pure function of the simulation and therefore
#: identical across processes; these vary per machine and per run, so
#: they are dropped from sweep results to keep the merged artifact
#: byte-identical regardless of worker count.  (They remain available
#: in single-run tools like ``repro top``.)
HOST_METRICS = frozenset({"solver_tick_seconds"})


class WorkerCrash(SweepError):
    """A worker died mid-run (test hook: ``RunSpec.crash_at``).

    Carries the run's last periodic checkpoint (or ``None`` when the
    crash predates the first one) so the parent can resume instead of
    restarting.
    """

    def __init__(self, message: str, checkpoint: Optional[dict] = None) -> None:
        super().__init__(message)
        self.checkpoint = checkpoint


def _build_scale_simulation(spec: RunSpec):
    """Construct the flattened-datacenter run a ``stack="scale"`` spec
    describes.

    The topology comes from the spec's ``topology`` JSON when set;
    otherwise ``cluster_size`` doubles as the size of a default grid
    room.  Scenarios map exactly as on the cluster stack: the legacy
    names pick a fiddle script (inlet emergencies feed the solver's
    overrides, fault statements build an injector), workload names
    build the full trace/mix/fault bundle.
    """
    from ..cluster.scenarios import build_scenario
    from ..faults.injector import FaultInjector
    from ..faults.schedule import FaultSchedule
    from ..topology.model import grid_topology
    from ..topology.sim import ScaleSimulation, inlet_events_from_script

    topology = spec.load_topology()
    if topology is None:
        size = spec.cluster_size or len(table1_machines())
        topology = grid_topology(size)
    seed = derive_seed(spec.seed, spec.run_id)
    workload = None
    inlet_events = None
    injector = None
    if spec.scenario == "emergency":
        script: Optional[str] = emergency_script()
    elif spec.scenario == "chaos":
        script = chaos_script(loss=spec.loss)
    elif spec.scenario == "none":
        script = None
    else:
        workload = build_scenario(
            spec.scenario, duration=spec.duration,
            servers=len(topology.machines), loss=spec.loss,
        )
        script = None
    if script is not None:
        inlet_events = inlet_events_from_script(script)
        schedule = FaultSchedule.from_script(script)
        if len(schedule):
            injector = FaultInjector(schedule, seed=seed)
    kwargs: Dict[str, object] = {}
    if spec.cpu_high is not None:
        kwargs["cpu_high"] = spec.cpu_high
        kwargs["cpu_low"] = spec.cpu_low
    return ScaleSimulation(
        topology,
        duration=spec.duration,
        policy=spec.policy,
        cloning=CloningConfig(clones=spec.cloning) if spec.cloning else None,
        telemetry=Telemetry(),
        scenario=workload,
        injector=injector,
        inlet_events=inlet_events,
        fault_seed=seed,
        **kwargs,
    )


def table1_machines() -> Tuple[str, ...]:
    """The paper's default validation-cluster machine names."""
    from ..config import table1

    return tuple(table1.CLUSTER_MACHINES)


def build_simulation(spec: RunSpec):
    """Construct the fully-configured simulation a spec describes.

    Telemetry is always enabled: sweep workers report their whole-run
    registry back to the parent for the merged snapshot.  Returns a
    :class:`ClusterSimulation` or, for ``stack="scale"`` specs, a
    :class:`~repro.topology.sim.ScaleSimulation` (both satisfy the
    ``dt``/``time``/``step``/``checkpoint`` stepping contract
    :func:`execute_spec` drives).
    """
    if spec.stack == "scale":
        return _build_scale_simulation(spec)
    workload = None
    if spec.scenario == "emergency":
        script: Optional[str] = emergency_script()
    elif spec.scenario == "chaos":
        script = chaos_script(loss=spec.loss)
    elif spec.scenario == "none":
        script = None
    else:
        # A workload scenario from the library: the simulation builds
        # its trace, request mix, and fault script from the name.
        workload = spec.scenario
        script = None
    config = FreonConfig()
    if spec.cpu_high is not None:
        config.thresholds["cpu"] = ComponentThresholds(
            high=spec.cpu_high, low=spec.cpu_low, red=spec.cpu_high + 2.0
        )
    cloning = CloningConfig(clones=spec.cloning) if spec.cloning else None
    return ClusterSimulation(
        policy=spec.policy,
        machines=spec.machine_names(),
        fiddle_script=script,
        freon_config=config,
        fault_seed=derive_seed(spec.seed, spec.run_id),
        engine=spec.engine,
        telemetry=Telemetry(),
        topology=spec.load_topology(),
        scenario=workload,
        scenario_duration=spec.duration,
        scenario_loss=spec.loss,
        cloning=cloning,
    )


def execute_spec(
    spec: RunSpec, checkpoint: Optional[Mapping[str, object]] = None
) -> RunResult:
    """Run one spec to completion, optionally resuming from a checkpoint.

    Honors the spec's ``checkpoint_every`` cadence (keeping only the
    most recent snapshot) and the test-only ``crash_at`` hook, which
    raises :class:`WorkerCrash` carrying that snapshot.
    """
    simulation = build_simulation(spec)
    resumed = checkpoint is not None
    if resumed:
        simulation.apply_checkpoint(checkpoint)
    ticks = int(round(spec.duration / simulation.dt))
    done = int(round(simulation.time / simulation.dt))
    last: Optional[dict] = None
    since_checkpoint = 0.0
    for _ in range(ticks - done):
        if spec.crash_at is not None and simulation.time >= spec.crash_at:
            raise WorkerCrash(
                f"injected worker crash in {spec.run_id!r} "
                f"at t={simulation.time:g}",
                checkpoint=last,
            )
        simulation._advance_ticks(1)  # no TickRecord is needed here
        since_checkpoint += simulation.dt
        if spec.checkpoint_every > 0 and since_checkpoint >= spec.checkpoint_every:
            last = simulation.checkpoint()
            since_checkpoint = 0.0
    return collect_result(spec, simulation, resumed)


def collect_result(
    spec: RunSpec, simulation, resumed: bool = False
) -> RunResult:
    """Assemble the canonical :class:`RunResult` for a finished run.

    Both execution paths (per-run :func:`execute_spec` and the batched
    runner in :mod:`repro.parallel.batch`) funnel through this single
    function, so their results can only differ if the simulations
    themselves diverged.
    """
    if spec.stack == "scale":
        # The flattened stack reports its scalar summary; there are no
        # per-tick records (one array, not per-machine record rows).
        return RunResult(
            run_id=spec.run_id,
            spec=spec.to_dict(),
            summary=simulation.summary(),
            records=[],
            registry=[
                family
                for family in dump_registry(simulation.telemetry.registry)
                if family["name"] not in HOST_METRICS
            ],
            resumed=resumed,
        )
    outcome = simulation.result()
    summary: Dict[str, object] = {
        "drop_fraction": outcome.drop_fraction,
        "total_offered": outcome.total_offered,
        "total_dropped": outcome.total_dropped,
        "adjustments": len(outcome.adjustments),
        "shutdowns": len(outcome.shutdowns),
        "ec_events": len(outcome.ec_events),
        "pstate_changes": len(outcome.pstate_changes),
        "restarts": len(outcome.restarts),
        "fault_events": len(outcome.fault_log),
        "peak_cpu": {
            name: outcome.max_temperature(name)
            for name in simulation.machines
        },
    }
    if spec.cloning or simulation.scenario is not None:
        # Only scenario/cloning runs report latency: the key is absent
        # from classic artifacts so golden digests keep their bytes.
        summary["p99_latency"] = outcome.p99_latency()
        if spec.cloning:
            scales = outcome.clone_latency_scales
            summary["clone_shed_ticks"] = sum(
                1 for s in scales if s >= 1.0
            )
            summary["clone_ticks"] = sum(1 for s in scales if s < 1.0)
    return RunResult(
        run_id=spec.run_id,
        spec=spec.to_dict(),
        summary=summary,
        records=outcome.records.to_dicts(),
        registry=[
            family
            for family in dump_registry(simulation.telemetry.registry)
            if family["name"] not in HOST_METRICS
        ],
        resumed=resumed,
    )


def _worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Pool entry point: dict in, dict out (both JSON-able).

    A :class:`WorkerCrash` becomes a structured failure the parent can
    resume from; anything else propagates and fails the sweep loudly.
    """
    spec = RunSpec.from_dict(payload)
    try:
        return {"ok": execute_spec(spec).to_dict()}
    except WorkerCrash as crash:
        return {
            "run_id": spec.run_id,
            "error": str(crash),
            "checkpoint": crash.checkpoint,
        }


#: Valid ``sweep(..., strategy=)`` values.
STRATEGIES = ("batch", "fork")


def _fan_out(specs: Sequence[RunSpec], workers: int) -> List[RunResult]:
    """The fork path: one worker invocation per spec, crash-resumable.

    ``workers > 1`` fans runs across a ``multiprocessing`` pool; the
    serial path runs the identical worker function in-process, so both
    produce byte-identical results.  A run whose worker crashed is
    resumed in the parent from its last checkpoint (the crash hook is
    stripped on retry).
    """
    payloads = [s.to_dict() for s in specs]
    if workers > 1 and len(specs) > 1:
        with multiprocessing.Pool(min(workers, len(specs))) as pool:
            outcomes = pool.map(_worker, payloads)
    else:
        outcomes = [_worker(p) for p in payloads]
    results: List[RunResult] = []
    for payload, outcome in zip(payloads, outcomes):
        if "ok" in outcome:
            results.append(RunResult.from_dict(outcome["ok"]))
            continue
        retry = RunSpec.from_dict({**payload, "crash_at": None})
        results.append(execute_spec(retry, checkpoint=outcome["checkpoint"]))
    return results


#: machine-name tuple -> layout-signature key, memoized because every
#: spec with the same cluster size reuses the same layouts.
_SIGNATURE_CACHE: Dict[Tuple[str, ...], Tuple] = {}


def _spec_signature(spec: RunSpec) -> Tuple:
    """The compiled-layout signature key of a spec's cluster.

    Specs with equal keys can share one batch pool (their machines stack
    on the same compiled groups); unequal keys batch separately.
    """
    names = tuple(spec.machine_names())
    key = _SIGNATURE_CACHE.get(names)
    if key is None:
        layout = validation_cluster(names, k_overrides=FREON_K_OVERRIDES)
        key = tuple(
            sorted(
                {
                    compile_layout(machine).signature
                    for machine in layout.machines.values()
                }
            )
        )
        _SIGNATURE_CACHE[names] = key
    return key


def _signature_batches(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Group specs into batches sharing a layout signature."""
    batches: Dict[Tuple, List[RunSpec]] = {}
    for spec in specs:
        batches.setdefault(_spec_signature(spec), []).append(spec)
    return list(batches.values())


def _batch_worker(payloads: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Pool entry point for one signature batch: dicts in, dicts out."""
    from .batch import run_batch

    specs = [RunSpec.from_dict(p) for p in payloads]
    return [result.to_dict() for result in run_batch(specs)]


def sweep(
    specs: Sequence[RunSpec],
    workers: int = 1,
    strategy: str = "batch",
) -> Dict[str, object]:
    """Run every spec and return the merged artifact.

    ``strategy`` picks the execution path:

    * ``"fork"`` — one worker invocation per run (the original path).
    * ``"batch"`` — stack runs sharing a layout signature onto one
      vectorized solver (:mod:`repro.parallel.batch`); runs the batch
      cannot express fall back to the fork path.  ``workers`` then fans
      out across signature *batches*, not runs.

    All strategies produce byte-identical artifacts; the property-test
    harness in ``tests/parallel/test_batch_equivalence.py`` holds them
    to that.
    """
    if strategy not in STRATEGIES:
        raise SweepError(
            f"unknown sweep strategy {strategy!r}; pick one of {STRATEGIES}"
        )
    if not specs:
        raise SweepError("nothing to sweep: the grid expanded to no runs")
    ids = [s.run_id for s in specs]
    if len(set(ids)) != len(ids):
        raise SweepError("duplicate run_ids in sweep")
    if strategy == "fork":
        return merge_results(_fan_out(specs, workers))

    from .batch import partition_specs, run_batch

    eligible, evicted = partition_specs(specs)
    results: List[RunResult] = []
    if evicted:
        results.extend(_fan_out([spec for spec, _ in evicted], workers))
    if eligible:
        batches = _signature_batches(eligible)
        if workers > 1 and len(batches) > 1:
            payload_batches = [
                [spec.to_dict() for spec in batch] for batch in batches
            ]
            with multiprocessing.Pool(min(workers, len(batches))) as pool:
                outcome_batches = pool.map(_batch_worker, payload_batches)
            for outcomes in outcome_batches:
                results.extend(RunResult.from_dict(o) for o in outcomes)
        else:
            for batch in batches:
                results.extend(run_batch(batch))
    return merge_results(results)


def merge_results(results: Sequence[RunResult]) -> Dict[str, object]:
    """Deterministically merge per-run results into one artifact.

    Runs are ordered by ``run_id`` and registries merged under a
    ``{"run": run_id}`` namespace label, so the artifact is independent
    of worker count and completion order.
    """
    ordered = sorted(results, key=lambda r: r.run_id)
    merged = Registry()
    for result in ordered:
        load_registry(result.registry, merged, labels={"run": result.run_id})
    return {
        "version": ARTIFACT_VERSION,
        "runs": [r.to_dict() for r in ordered],
        "registry": dump_registry(merged),
    }


def artifact_registry(artifact: Mapping[str, object]) -> Registry:
    """Rebuild the merged registry from an artifact (for exposition)."""
    registry = Registry()
    load_registry(artifact["registry"], registry)
    return registry


def write_artifact(
    artifact: Mapping[str, object], path
) -> Tuple[Path, Path]:
    """Write the artifact JSON plus its Prometheus snapshot sibling.

    Serialized with sorted keys and a fixed layout, so equal artifacts
    are byte-identical on disk.  Returns ``(json_path, prom_path)``.
    """
    json_path = Path(path)
    json_path.write_text(json.dumps(artifact, sort_keys=True) + "\n")
    prom_path = json_path.with_suffix(".prom")
    prom_path.write_text(to_prometheus(artifact_registry(artifact)))
    return json_path, prom_path
