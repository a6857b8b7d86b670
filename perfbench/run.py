#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload grid16-chaos --seed 2006 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half and
prints the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The seed a run uses when ``--seed`` is not given.
DEFAULT_SEED = 2006

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Units of every metric this script can print (BENCHMARK.json lists
#: the same names; the self-tests hold the two together).
END_TO_END_UNITS = {
    "sim_s_per_s": "sim-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "served_frac": "fraction",
    "peak_cpu_c": "C",
    "energy_frac": "fraction",
    "scrape_p50_ms": "ms",
    "scrape_p90_ms": "ms",
}


def _bootstrap() -> None:
    """Put the checkout's sources first on the path, or exit non-zero:
    the benchmark measures the tree it sits in, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}")
    sys.path[:0] = [ROOT, SRC]
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _probe_setup(workload: str, seed: int) -> None:
    """Child side of :func:`measure_setup`: import, build, report."""
    start = time.perf_counter()
    _bootstrap()
    from perfbench import workloads

    imported = time.perf_counter()
    workloads.WORKLOADS[workload].build(workloads.derive_seeds(seed))
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}),
          flush=True)


def measure_setup(workload: str, seed: int):
    """Median over fresh interpreters of the wall time from spawning the
    interpreter until the workload is built and ready to step, plus the
    medians of its import and build parts.  Every child has exited
    before this returns."""
    ready, imports, builds = [], [], []
    command = [sys.executable, os.path.join(HERE, "run.py"), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            ready.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or not line:
            sys.exit(f"perfbench: set-up probe exited with {child.returncode}")
        probe = json.loads(line)
        imports.append(probe["import_s"])
        builds.append(probe["build_s"])
    return (statistics.median(ready), statistics.median(imports),
            statistics.median(builds))


def run_phase(workload, seeds, seconds: float, meter):
    """Whole repetitions until ``seconds`` have passed (at least one).
    Each repetition's simulation is collected before the next is built,
    so peak memory is one repetition's, however many fit."""
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(workload.repeat(seeds, meter))
        gc.collect()
    return reps


def throughput(reps, meter):
    """``(normalised, raw)`` simulated seconds per host second."""
    sim_s = sum(r.sim_s for r in reps)
    return sim_s / meter.normalised_s, sim_s / meter.raw_s


@dataclass
class Measurement:
    """One run's metrics and checks.  ``outcomes`` lists every
    repetition's simulated outcome, untraced ones first."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    reps: List = field(default_factory=list)
    report: List[str] = field(default_factory=list)

    @property
    def outcomes(self):
        return [r.outcome for r in self.reps]

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.reps)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.reps)

    @property
    def failures(self) -> List[str]:
        """Failed checks, including any repetition whose outcome differs
        from the first: one seed must reproduce one outcome."""
        first = self.reps[0].outcome
        found = [
            f"repetition {i} outcome {r.outcome} differs from {first}"
            for i, r in enumerate(self.reps) if r.outcome != first
        ]
        for r in self.reps:
            found.extend(r.failures)
        return found

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def _prepare(name: str, seed: int):
    from perfbench import workloads

    workload = workloads.WORKLOADS[name]
    seeds = workloads.derive_seeds(seed)
    workload.warm(seeds)
    return workload, seeds


def measure(name: str, seed: int, seconds: float) -> Measurement:
    """The untraced run: every end-to-end metric."""
    from perfbench import workloads
    from perfbench.host import HostMeter

    setup_s, _, _ = measure_setup(name, seed)
    workload, seeds = _prepare(name, seed)
    meter = HostMeter()
    reps = run_phase(workload, seeds, seconds, meter)
    sim_s_per_s, raw = throughput(reps, meter)
    latencies = [x for r in reps for x in r.latencies]
    outcome = reps[0].outcome
    metrics = {
        "sim_s_per_s": sim_s_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "served_frac": outcome.served_frac,
        "peak_cpu_c": outcome.peak_cpu_c,
        "energy_frac": outcome.energy_frac,
        "scrape_p50_ms": workloads.percentile(latencies, 0.50) * 1e3,
        "scrape_p90_ms": workloads.percentile(latencies, 0.90) * 1e3,
    }
    report = [
        f"workload {name}: seed {seed} -> {seeds}",
        f"{len(reps)} repetition(s), {len(latencies)} scrape sample(s)",
        f"sim_s_per_s {sim_s_per_s:.6g} (raw {raw:.6g} sim-s/s, host factor "
        f"{meter.host_factor:.4f} over {len(meter.ref_s)} reference slice(s), "
        f"median slice {meter.ref_ms:.3f} ms)",
    ]
    return Measurement(metrics, dict(END_TO_END_UNITS), reps, report)


def measure_traced(name: str, seed: int, seconds: float) -> Measurement:
    """The traced run: an untraced half, then a traced half of the same
    seed; per-layer metrics come from the traced half."""
    from perfbench import tracing
    from perfbench.host import HostMeter

    _, import_s, build_s = measure_setup(name, seed)
    workload, seeds = _prepare(name, seed)
    meter = HostMeter()
    plain = run_phase(workload, seeds, seconds / 2, meter)
    plain_sps, plain_raw = throughput(plain, meter)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_meter = HostMeter()
        traced = run_phase(workload, seeds, seconds / 2, traced_meter)
    finally:
        tracer.uninstall()
    traced_sps, _ = throughput(traced, traced_meter)

    lateness = [x for r in traced for x in r.lateness]
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics.update(
        {
            "serve.gen_late_ms": statistics.median(lateness) * 1e3 if lateness else 0.0,
            "setup.import_s": import_s,
            "setup.build_s": build_s,
            "host.ref_ms": meter.ref_ms,
            "host.raw_sim_s_per_s": plain_raw,
            "trace.overhead_frac": plain_sps / traced_sps - 1.0,
        }
    )
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    dump = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    tracer.dump(dump, {"workload": name, "seed": seed, "repetitions": len(traced)})
    report = [
        f"workload {name} (traced): seed {seed} -> {seeds}",
        f"untraced {len(plain)} repetition(s) at {plain_sps:.6g} sim-s/s, "
        f"traced {len(traced)} at {traced_sps:.6g} sim-s/s",
        f"spans -> {dump} ({len(tracer.spans)} kept, {tracer.dropped} dropped)",
    ]
    units = {key: tracing.unit_of(key) for key in metrics}
    return Measurement(metrics, units, plain + traced, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0
    _bootstrap()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from "
                     f"{sorted(workloads.WORKLOADS)}")
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    for line in result.report:
        print(line)
    print(f"{result.attempted} operation(s) checked, {result.failed} failed")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    for key, value in result.metrics.items():
        print(f"  {key} {value:.6g} {result.units[key]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": result.units[k]}
                    for k, v in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
