"""The column record table reproduces the list-of-records recorder.

The per-tick recorder, its dict serialiser and the ``SimulationResult``
helpers that read a list of :class:`TickRecord` values are frozen below
as oracles.  Each run is recorded both ways, tick by tick, and the
table must agree with the oracle exactly: as records, as wire dicts
(key order included), and through every result helper.
"""

import json

import pytest

from repro.cluster.lvs import CloningConfig
from repro.cluster.records import RecordTable, ServerRecord, TickRecord
from repro.cluster.simulation import (
    ClusterSimulation,
    chaos_script,
    emergency_script,
)
from repro.cluster.webserver import PowerState
from repro.errors import ClusterError
from repro.faults.injector import FaultInjector

# -- the frozen oracles ------------------------------------------------------

_FROZEN_SERVER_FIELDS = (
    "state", "rate", "cpu_utilization", "disk_utilization", "connections",
    "weight", "connection_limit", "cpu_temperature", "disk_temperature",
)


def frozen_record(sim, now, offered, dropped):
    """The list recorder's ``_record`` body, reading the same state."""
    servers = {}
    active = 0
    for name, ws in sim.webservers.items():
        state = ws.state
        if state is PowerState.ACTIVE:
            active += 1
        balancer_entry = sim.balancer.server_map[name]
        load = ws.load
        response_time = load.response_time
        servers[name] = ServerRecord(
            state.value,
            0.0 if state is PowerState.OFF else load.connections
            / (response_time if response_time > 1e-9 else 1e-9),
            load.cpu_utilization,
            load.disk_utilization,
            load.connections,
            balancer_entry.weight,
            balancer_entry.connection_limit,
            sim.service.true_temperature(name, "cpu"),
            sim.service.true_temperature(name, "disk"),
        )
    return TickRecord(now, offered, dropped, active, servers)


def frozen_record_to_dict(record):
    """``ClusterSimulation._record_to_dict`` as the list recorder had it."""
    return {
        "time": record.time,
        "offered_rate": record.offered_rate,
        "dropped_rate": record.dropped_rate,
        "active_servers": record.active_servers,
        "servers": {
            name: dict(zip(_FROZEN_SERVER_FIELDS, s))
            for name, s in record.servers.items()
        },
    }


def frozen_request_latency_series(records, scales):
    series = []
    for index, record in enumerate(records):
        connections = sum(s.connections for s in record.servers.values())
        rate = sum(s.rate for s in record.servers.values())
        latency = connections / rate if rate > 1e-9 else 0.0
        if index < len(scales):
            latency *= scales[index]
        series.append(latency)
    return series


def frozen_p99_latency(records, scales):
    weighted = [
        (latency, sum(s.rate for s in record.servers.values()))
        for latency, record in zip(
            frozen_request_latency_series(records, scales), records
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


def frozen_max_temperature(records, machine, component, after):
    return max(
        getattr(r.servers[machine], component)
        for r in records
        if r.time >= after
    )


# -- the runs ----------------------------------------------------------------

RUNS = {
    # Freon under the chaos storm: loss, a stuck sensor, a tempd crash
    # and restart, connection limits set and released.
    "chaos": (
        lambda: ClusterSimulation(
            policy="freon", fiddle_script=chaos_script(),
            injector=FaultInjector(seed=11),
        ),
        1200,
    ),
    # Red-line shutdowns: active -> draining -> off.
    "traditional-shutdown": (
        lambda: ClusterSimulation(
            policy="traditional", fiddle_script=emergency_script(),
            engine="compiled",
        ),
        1600,
    ),
    # Freon-EC powers servers off and boots them again.
    "freon-ec": (
        lambda: ClusterSimulation(
            policy="freon-ec", fiddle_script=emergency_script(),
            engine="compiled",
        ),
        1600,
    ),
    # A workload scenario with request cloning (latency scales).
    "cloning-scenario": (
        lambda: ClusterSimulation(
            policy="freon", scenario="flash-crowd", scenario_duration=300.0,
            cloning=CloningConfig(clones=2),
        ),
        300,
    ),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def recorded(request):
    """A finished run plus the oracle's records of the same ticks."""
    build, ticks = RUNS[request.param]
    sim = build()
    oracle = []
    for _ in range(ticks):
        label = sim.time
        sim.step()
        oracle.append(
            frozen_record(sim, label, sim._last_offered, sim._last_dropped)
        )
    return request.param, sim, oracle


def test_runs_cover_every_power_state_and_limit():
    """The four runs between them record every state the table stores."""
    states = set()
    limits = set()
    for build, ticks in RUNS.values():
        sim = build()
        sim.run(ticks)
        for name in sim.machines:
            states.update(sim.records.column(name, "state"))
            limits.update(
                limit is None
                for limit in sim.records.column(name, "connection_limit")
            )
    assert states == {s.value for s in PowerState}
    assert limits == {True, False}


def test_records_match_the_frozen_recorder(recorded):
    _, sim, oracle = recorded
    assert len(sim.records) == len(oracle)
    assert sim.records == oracle
    assert list(sim.records) == oracle
    first = sim.records[0]
    assert type(first) is TickRecord
    assert all(type(s) is ServerRecord for s in first.servers.values())
    assert list(first.servers) == sim.machines


def _assert_same_dumps(dicts, frozen):
    """Equal records with equal key order, so unsorted dumps (the
    checkpoint's) keep their bytes.  Compared per record: a failing
    comparison of one multi-megabyte string takes pytest minutes to
    explain."""
    assert len(dicts) == len(frozen)
    for mine, theirs in zip(dicts, frozen):
        assert json.dumps(mine) == json.dumps(theirs)


def test_dicts_match_the_frozen_serialiser(recorded):
    _, sim, oracle = recorded
    frozen = [frozen_record_to_dict(r) for r in oracle]
    dicts = sim.records.to_dicts()
    assert dicts == frozen
    _assert_same_dumps(dicts, frozen)
    _assert_same_dumps(sim.checkpoint()["records"], frozen)


def test_dicts_round_trip_through_json(recorded):
    _, sim, oracle = recorded
    wire = json.loads(json.dumps(sim.records.to_dicts()))
    table = RecordTable.from_dicts(sim.machines, wire)
    assert table == sim.records
    assert table == oracle
    # One server value apart is unequal, as a list of records would be.
    table.column(sim.machines[-1], "weight")[-1] += 1.0
    assert table != sim.records
    assert table != oracle


def test_sequence_access_matches_a_list(recorded):
    _, sim, oracle = recorded
    n = len(oracle)
    for records in (sim.records, sim.result().records):
        assert len(records) == n
        assert bool(records)
        for index in (0, 1, n // 2, n - 1, -1, -2, -n):
            assert records[index] == oracle[index]
        for cut in (slice(None, 3), slice(-3, None), slice(None, None, 7),
                    slice(5, 2), slice(None, None, -1), slice(-5, -1, 2)):
            assert records[cut] == oracle[cut]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                records[index]
        with pytest.raises(TypeError):
            records[1.0]
        assert list(iter(records)) == oracle
        assert records == oracle
        assert records != oracle[:-1]
        assert (records == 3) is False
    assert sim.records == sim.result().records


def test_result_helpers_match_the_frozen_helpers(recorded):
    _, sim, oracle = recorded
    result = sim.result()
    scales = result.clone_latency_scales
    assert result.times() == [r.time for r in oracle]
    assert result.active_series() == [r.active_servers for r in oracle]
    for name in sim.machines:
        for field in _FROZEN_SERVER_FIELDS:
            assert result.series(name, field) == [
                getattr(r.servers[name], field) for r in oracle
            ]
        for component in ("cpu_temperature", "disk_temperature"):
            for after in (0.0, oracle[len(oracle) // 2].time,
                          oracle[-10].time):
                assert result.max_temperature(name, component, after) == (
                    frozen_max_temperature(oracle, name, component, after)
                )
    assert result.request_latency_series() == (
        frozen_request_latency_series(oracle, scales)
    )
    assert result.p99_latency() == frozen_p99_latency(oracle, scales)


def test_result_is_a_snapshot():
    sim = ClusterSimulation(policy="freon", fiddle_script=emergency_script())
    sim.run(10)
    result = sim.result()
    before = list(result.records)
    assert sim.step() == sim.records[-1]
    sim.run(5)
    assert len(sim.records) == 16
    assert len(result.records) == 10
    assert list(result.records) == before
    assert result.times() == [float(t) for t in range(10)]

    # Restoring a checkpoint replaces the live table, not the snapshot.
    resumed = ClusterSimulation(
        policy="freon", fiddle_script=emergency_script()
    )
    early = resumed.run(3)
    resumed.apply_checkpoint(sim.checkpoint())
    assert len(early.records) == 3
    assert resumed.records == sim.records


def test_restore_rejects_mismatched_records_before_changing_state():
    sim = ClusterSimulation(policy="freon")
    sim.run(5)
    state = json.loads(json.dumps(sim.checkpoint()))
    del state["records"][2]["servers"]["machine3"]
    target = ClusterSimulation(policy="freon")
    target.run(2)
    with pytest.raises(ClusterError, match="servers"):
        target.apply_checkpoint(state)
    assert target.time == 2.0
    assert len(target.records) == 2

    state = json.loads(json.dumps(sim.checkpoint()))
    del state["records"][0]["servers"]["machine1"]["weight"]
    with pytest.raises(ClusterError, match="fields"):
        target.apply_checkpoint(state)
    assert len(target.records) == 2


def test_step_over_several_ticks_returns_the_last_record():
    """``step(n)`` runs the same event sequence as ``n`` single steps
    and returns the record of the last tick."""
    one_by_one = ClusterSimulation(
        policy="freon-ec", fiddle_script=chaos_script(),
        injector=FaultInjector(seed=11),
    )
    for _ in range(37):
        last = one_by_one.step()
    chunked = ClusterSimulation(
        policy="freon-ec", fiddle_script=chaos_script(),
        injector=FaultInjector(seed=11),
    )
    assert chunked.step(30) == chunked.records[-1]
    assert chunked.step(7) == last
    assert chunked.step(0) == last
    assert json.dumps(chunked.checkpoint()) == json.dumps(
        one_by_one.checkpoint()
    )
