"""Telemetry overhead gate: disabled must be free, enabled must be cheap.

Three configurations of the same 40-machine compiled-engine solver loop:

* ``baseline`` — no telemetry argument at all (the pre-telemetry path);
* ``disabled`` — explicit ``telemetry=None`` resolving to the shared
  null facade (this IS the default; measured separately so the gate can
  distinguish "flag check" cost from measurement noise);
* ``enabled`` — a live :class:`~repro.telemetry.Telemetry` recording
  per-tick latency histograms and counters.

The rounds are interleaved (baseline, disabled, enabled, repeat) and the
best-of-N throughput per configuration is compared, which cancels
machine-wide drift.  The gate: the disabled path stays within noise of
baseline (< 5%), and full recording costs < 10% — so the compiled
engine's throughput win survives instrumentation.

Writes ``benchmark_results/BENCH_telemetry.json`` for the CI artifact.
"""

import time

from repro.config import table1
from repro.config.layouts import validation_cluster
from repro.core.solver import Solver
from repro.telemetry import Telemetry

from .conftest import emit, write_bench

#: Cluster size of the gate (the scale the compiled engine targets).
N_MACHINES = 40

#: Interleaved measurement rounds per configuration.
ROUNDS = 5

#: Ticks per measurement round.
TICKS = 200

#: Disabled telemetry must stay within measurement noise of baseline.
DISABLED_TOLERANCE = 0.05

#: Full recording must cost less than this fraction of throughput.
ENABLED_TOLERANCE = 0.10


def _make_solver(telemetry):
    names = [f"machine{i}" for i in range(1, N_MACHINES + 1)]
    cluster = validation_cluster(machine_names=names)
    solver = Solver(
        list(cluster.machines.values()), cluster=cluster,
        record=False, engine="compiled", telemetry=telemetry,
    )
    for machine in names:
        solver.set_utilization(machine, table1.CPU, 0.7)
    for _ in range(5):  # warm up; the first compiled tick pays compilation
        solver.step()
    return solver


def _round_ticks_per_second(solver) -> float:
    start = time.perf_counter()
    for _ in range(TICKS):
        solver.step()
    return TICKS / (time.perf_counter() - start)


def test_telemetry_overhead_gate():
    solvers = {
        "baseline": _make_solver(None),
        "disabled": _make_solver(None),
        "enabled": _make_solver(Telemetry()),
    }
    best = {name: 0.0 for name in solvers}
    for _ in range(ROUNDS):
        for name, solver in solvers.items():
            best[name] = max(best[name], _round_ticks_per_second(solver))

    disabled_overhead = 1.0 - best["disabled"] / best["baseline"]
    enabled_overhead = 1.0 - best["enabled"] / best["baseline"]
    results = {
        "machines": N_MACHINES,
        "engine": "compiled",
        "rounds": ROUNDS,
        "ticks_per_round": TICKS,
        "baseline_ticks_per_sec": best["baseline"],
        "disabled_ticks_per_sec": best["disabled"],
        "enabled_ticks_per_sec": best["enabled"],
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "disabled_tolerance": DISABLED_TOLERANCE,
        "enabled_tolerance": ENABLED_TOLERANCE,
    }
    write_bench("BENCH_telemetry.json", results)

    emit(
        "telemetry_overhead",
        "Telemetry overhead — 40-machine compiled-engine solver loop\n"
        f"{'config':>10} {'best ticks/s':>14} {'overhead':>10}\n"
        f"{'baseline':>10} {best['baseline']:>14.1f} {'-':>10}\n"
        f"{'disabled':>10} {best['disabled']:>14.1f} "
        f"{disabled_overhead * 100:>9.2f}%\n"
        f"{'enabled':>10} {best['enabled']:>14.1f} "
        f"{enabled_overhead * 100:>9.2f}%\n",
    )

    # Sanity: the enabled run actually recorded the loop.
    telemetry = solvers["enabled"].telemetry
    expected_ticks = 5 + ROUNDS * TICKS
    assert telemetry.registry.total("solver_ticks_total") == expected_ticks
    assert telemetry.registry.total("solver_tick_seconds") == expected_ticks

    # The gate.
    assert disabled_overhead < DISABLED_TOLERANCE, (
        f"null-telemetry path costs {disabled_overhead * 100:.2f}% "
        f"(must be within noise)"
    )
    assert enabled_overhead < ENABLED_TOLERANCE, (
        f"enabled telemetry costs {enabled_overhead * 100:.2f}% "
        f"(gate: < {ENABLED_TOLERANCE * 100:.0f}%)"
    )
