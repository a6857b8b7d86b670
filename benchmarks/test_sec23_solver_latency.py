"""Section 2.3 timing claims: solver iteration and readsensor latency.

The paper reports the solver taking "roughly 100 usec on average to
compute each iteration" on the Figure 1 graphs, and readsensor() having
"an average response time of 300 usec", beating the 500 usec access time
of the real SCSI in-disk sensor.
"""

import statistics
import time

from repro.config import table1
from repro.config.layouts import validation_cluster, validation_machine
from repro.core.solver import Solver
from repro.sensors.api import SensorConnection
from repro.sensors.server import SensorService, UdpSensorServer

from .conftest import SOLVER_ENGINE, emit, write_bench

#: The real SCSI in-disk sensor's average access time (paper).
SCSI_SENSOR_LATENCY = 500e-6


def test_sec23_solver_iteration_time(benchmark):
    layout = validation_machine()
    solver = Solver([layout], record=False, engine=SOLVER_ENGINE)
    solver.set_utilization("machine1", table1.CPU, 0.7)
    solver.set_utilization("machine1", table1.DISK_PLATTERS, 0.4)

    result = benchmark(solver.step)

    mean = benchmark.stats.stats.mean
    emit(
        "sec23_solver_iteration",
        f"Section 2.3 — solver iteration time (Figure 1 graphs)\n"
        f"measured mean: {mean * 1e6:.1f} usec per iteration\n"
        f"paper: ~100 usec per iteration\n",
    )
    # Same order of magnitude as the paper's C implementation.
    assert mean < 1e-3


def test_sec23_cluster_iteration_time(benchmark):
    cluster = validation_cluster()
    solver = Solver(list(cluster.machines.values()), cluster=cluster,
                    record=False, engine=SOLVER_ENGINE)
    for machine in solver.machines:
        solver.set_utilization(machine, table1.CPU, 0.7)

    benchmark(solver.step)
    mean = benchmark.stats.stats.mean
    emit(
        "sec23_cluster_iteration",
        f"Section 2.3 — solver iteration time, 4-machine cluster\n"
        f"measured mean: {mean * 1e6:.1f} usec per iteration\n",
    )
    assert mean < 4e-3


def test_sec23_readsensor_inprocess_latency(benchmark):
    layout = validation_machine()
    service = SensorService(Solver([layout], record=False),
                            aliases=table1.sensor_map())
    with SensorConnection(service, component="disk") as sensor:
        benchmark(sensor.read)
    mean = benchmark.stats.stats.mean
    emit(
        "sec23_readsensor_inprocess",
        f"Section 2.3 — readsensor() latency, in-process transport\n"
        f"measured mean: {mean * 1e6:.1f} usec\n"
        f"real SCSI in-disk sensor: {SCSI_SENSOR_LATENCY * 1e6:.0f} usec\n",
    )
    assert mean < SCSI_SENSOR_LATENCY


def test_sec23_readsensor_udp_latency(benchmark):
    layout = validation_machine()
    service = SensorService(Solver([layout], record=False),
                            aliases=table1.sensor_map())
    with UdpSensorServer(service) as server:
        host, port = server.address
        with SensorConnection(host, port, component="disk") as sensor:
            sensor.read()  # warm both ends
            benchmark.pedantic(sensor.read, iterations=50, rounds=10)
    mean = benchmark.stats.stats.mean
    emit(
        "sec23_readsensor_udp",
        f"Section 2.3 — readsensor() latency, UDP loopback transport\n"
        f"measured mean: {mean * 1e6:.1f} usec\n"
        f"paper: ~300 usec over the network; real SCSI sensor ~500 usec\n",
    )
    # Localhost UDP should comfortably beat the physical disk sensor.
    assert mean < 5e-3


# ----------------------------------------------------------------------
# engine comparison: python vs compiled ticks/sec at 1/10/40 machines
# ----------------------------------------------------------------------

#: Cluster sizes the comparison sweeps (the paper emulates large clusters
#: by replication; 40 machines is the scale the compiled engine targets).
COMPARISON_SIZES = (1, 10, 40)


def _ticks_per_second(engine: str, n_machines: int) -> float:
    """Measure steady-state solver throughput for one engine/size point."""
    names = [f"machine{i}" for i in range(1, n_machines + 1)]
    cluster = validation_cluster(machine_names=names)
    solver = Solver(list(cluster.machines.values()), cluster=cluster,
                    record=False, engine=engine)
    for machine in names:
        solver.set_utilization(machine, table1.CPU, 0.7)
    for _ in range(5):  # warm up (first compiled tick pays compilation)
        solver.step()
    ticks = 0
    elapsed = 0.0
    while elapsed < 0.25:
        start = time.perf_counter()
        for _ in range(20):
            solver.step()
        elapsed += time.perf_counter() - start
        ticks += 20
    return ticks / elapsed


def test_sec23_engine_comparison():
    """Write BENCH_solver.json: python vs compiled throughput by size."""
    results = {}
    for n in COMPARISON_SIZES:
        python_tps = _ticks_per_second("python", n)
        compiled_tps = _ticks_per_second("compiled", n)
        results[str(n)] = {
            "machines": n,
            "python_ticks_per_sec": python_tps,
            "compiled_ticks_per_sec": compiled_tps,
            "speedup": compiled_tps / python_tps,
        }

    write_bench("BENCH_solver.json", results)

    lines = ["Section 2.3 — solver throughput, python vs compiled engine",
             f"{'machines':>10} {'python t/s':>12} {'compiled t/s':>13} "
             f"{'speedup':>9}"]
    for n in COMPARISON_SIZES:
        row = results[str(n)]
        lines.append(
            f"{n:>10} {row['python_ticks_per_sec']:>12.1f} "
            f"{row['compiled_ticks_per_sec']:>13.1f} "
            f"{row['speedup']:>8.2f}x"
        )
    emit("sec23_engine_comparison", "\n".join(lines) + "\n")

    # The CI gate: at cluster scale the vectorized engine must win.
    assert results["40"]["speedup"] > 1.0
