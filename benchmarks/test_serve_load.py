"""Serving-plane load gates: datagram throughput and scrape latency.

Two measurements of the live thermal service under concurrent load, on
one asyncio event loop (the deployment shape of ``repro serve``):

* ``datagrams`` — several async clients blast sensor queries at an
  :class:`~repro.sensors.server.AsyncUdpSensorServer` as fast as
  replies come back (closed loop, so every datagram counted was also
  answered).  The gate: sustained throughput over the floor.

* ``scrape`` — a free-running :class:`~repro.serve.ThermalService`
  advances the Figure 11 cluster while concurrent scrapers hit
  ``/metrics`` and parse every response.  Latency is measured
  per-scrape while the simulation competes for the loop — the p99 gate
  bounds how long a Prometheus scrape can stall behind solver chunks.

Writes ``benchmark_results/BENCH_serve.json`` for the CI artifact.
"""

import asyncio
import time

from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.config import table1
from repro.config.layouts import validation_machine
from repro.core.solver import Solver
from repro.sensors.protocol import SensorQuery, SensorReply
from repro.sensors.server import SensorService
from repro.serve import AsyncUdpSensorServer, ThermalService, http_get
from repro.telemetry import Telemetry
from repro.telemetry.exposition import parse_prometheus

from .conftest import emit, write_bench

#: Closed-loop datagram clients and how long they hammer the endpoint.
DATAGRAM_CLIENTS = 8
DATAGRAM_SECONDS = 2.0

#: Sustained sensor datagrams/second the loop must clear (conservative:
#: a localhost asyncio endpoint typically clears tens of thousands).
DATAGRAMS_PER_SECOND_FLOOR = 1000.0

#: Concurrent /metrics scrapers and the per-run scrape budget.
SCRAPERS = 4
SCRAPE_SIM_SECONDS = 1200.0

#: Latency gates for one /metrics scrape under load, seconds.
SCRAPE_P99_CEILING = 0.5


class _QueryClient(asyncio.DatagramProtocol):
    """Closed-loop client: fires the next query as each reply lands."""

    def __init__(self, machine, component, stop_at):
        self.machine = machine
        self.component = component
        self.stop_at = stop_at
        self.replies = 0
        self.done = asyncio.get_running_loop().create_future()
        self._request_id = 0

    def connection_made(self, transport):
        self.transport = transport
        self._send()

    def _send(self):
        self._request_id += 1
        self.transport.sendto(
            SensorQuery(
                request_id=self._request_id,
                machine=self.machine,
                component=self.component,
            ).encode()
        )

    def datagram_received(self, data, addr):
        SensorReply.decode(data)
        self.replies += 1
        if time.monotonic() >= self.stop_at:
            if not self.done.done():
                self.done.set_result(self.replies)
            self.transport.close()
        else:
            self._send()


async def _measure_datagrams():
    layout = validation_machine()
    solver = Solver([layout], record=False)
    service = SensorService(solver, aliases=table1.sensor_map())
    async with AsyncUdpSensorServer(service) as server:
        loop = asyncio.get_running_loop()
        stop_at = time.monotonic() + DATAGRAM_SECONDS
        started = time.monotonic()
        clients = []
        for _ in range(DATAGRAM_CLIENTS):
            _, client = await loop.create_datagram_endpoint(
                lambda: _QueryClient(layout.name, table1.CPU, stop_at),
                remote_addr=server.address,
            )
            clients.append(client)
        totals = await asyncio.gather(*(c.done for c in clients))
        elapsed = time.monotonic() - started
        return sum(totals) / elapsed, sum(totals), elapsed


async def _measure_scrapes():
    simulation = ClusterSimulation(
        policy="freon", fiddle_script=emergency_script(),
        telemetry=Telemetry(),
    )
    async with ThermalService(simulation) as service:
        host, port = service.address
        run = asyncio.create_task(
            service.serve(duration=SCRAPE_SIM_SECONDS, pace=0.0)
        )
        latencies = []

        async def scraper():
            while not run.done():
                started = time.monotonic()
                status, _, body = await http_get(host, port, "/metrics")
                latencies.append(time.monotonic() - started)
                assert status == 200
                assert parse_prometheus(body.decode("utf-8"))

        await asyncio.gather(run, *(scraper() for _ in range(SCRAPERS)))
        return latencies


def _percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def test_serve_load_gates():
    rate, total, elapsed = asyncio.run(_measure_datagrams())
    latencies = asyncio.run(_measure_scrapes())
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)

    results = {
        "datagrams": {
            "clients": DATAGRAM_CLIENTS,
            "seconds": elapsed,
            "total": total,
            "per_second": rate,
            "floor_per_second": DATAGRAMS_PER_SECOND_FLOOR,
        },
        "scrape": {
            "scrapers": SCRAPERS,
            "sim_seconds": SCRAPE_SIM_SECONDS,
            "samples": len(latencies),
            "p50_seconds": p50,
            "p99_seconds": p99,
            "p99_ceiling_seconds": SCRAPE_P99_CEILING,
        },
    }
    write_bench("BENCH_serve.json", results)

    emit(
        "serve_load",
        "Live thermal service under load — one asyncio loop\n"
        f"datagrams: {total} queries answered in {elapsed:.2f} s by "
        f"{DATAGRAM_CLIENTS} closed-loop clients = {rate:,.0f}/s "
        f"(gate: >= {DATAGRAMS_PER_SECOND_FLOOR:,.0f}/s)\n"
        f"scrapes:   {len(latencies)} /metrics scrapes by {SCRAPERS} "
        f"concurrent scrapers while fig11 free-runs; "
        f"p50 {p50 * 1000:.1f} ms, p99 {p99 * 1000:.1f} ms "
        f"(gate: p99 < {SCRAPE_P99_CEILING * 1000:.0f} ms)\n",
    )

    assert total > 0 and len(latencies) >= SCRAPERS
    assert rate >= DATAGRAMS_PER_SECOND_FLOOR, (
        f"sensor endpoint sustained {rate:,.0f} datagrams/s "
        f"(gate: >= {DATAGRAMS_PER_SECOND_FLOOR:,.0f}/s)"
    )
    assert p99 < SCRAPE_P99_CEILING, (
        f"/metrics p99 {p99:.3f} s under load "
        f"(gate: < {SCRAPE_P99_CEILING:.1f} s)"
    )
