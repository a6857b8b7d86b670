"""The column record table reproduces the list-of-records recorder.

The per-tick recorder, its dict serialiser and the ``SimulationResult``
helpers that read a list of :class:`TickRecord` values are frozen below
as oracles.  Each run is recorded both ways, tick by tick, and the
table must agree with the oracle exactly: as records, as wire columns
(key order included, each column equal value by value to the frozen
serialiser's dicts), and through every result helper.
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


#: The wire form's keys, in order.
_WIRE_KEYS = ["time", "offered_rate", "dropped_rate", "active_servers",
              "servers"]


def _assert_same_column(mine, theirs, label):
    """Equal values of equal types, so the column dumps to the same
    JSON.  Compared into a bool first: pytest explaining a failed
    comparison of two long strings takes minutes."""
    same = len(mine) == len(theirs) and json.dumps(mine) == json.dumps(theirs)
    assert same, f"column {label} differs from the frozen serialiser"


def test_dicts_match_the_frozen_serialiser(recorded):
    """The wire columns (the live table's and a checkpoint's) hold, tick
    by tick, the values of the frozen serialiser's per-tick dicts."""
    _, sim, oracle = recorded
    frozen = [frozen_record_to_dict(r) for r in oracle]
    for columns in (sim.records.to_columns(), sim.checkpoint()["records"]):
        assert list(columns) == _WIRE_KEYS
        assert list(columns["servers"]) == sim.machines
        for key in _WIRE_KEYS[:-1]:
            _assert_same_column(
                columns[key], [record[key] for record in frozen], key
            )
        for name, fields in columns["servers"].items():
            assert list(fields) == list(_FROZEN_SERVER_FIELDS)
            for field, column in fields.items():
                _assert_same_column(
                    column,
                    [record["servers"][name][field] for record in frozen],
                    f"{name}.{field}",
                )


def test_dicts_round_trip_through_json(recorded):
    """The wire columns survive JSON: the rebuilt table equals the live
    one and the oracle, and dumps to the same bytes."""
    _, sim, oracle = recorded
    text = json.dumps(sim.records.to_columns())
    table = RecordTable.from_columns(sim.machines, json.loads(text))
    assert table == sim.records
    assert table == oracle
    assert json.dumps(table.to_columns()) == text
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


def _records(state):
    return state["records"]


def _servers(state):
    return state["records"]["servers"]


#: Malformed record sets: (what the error names, an edit of a JSON
#: checkpoint).
MALFORMED_RECORDS = [
    ("mapping", lambda s: s.pop("records")),
    ("mapping", lambda s: s.update(records=None)),
    ("mapping", lambda s: s.update(records=[{"time": 0.0, "servers": {}}])),
    ("missing", lambda s: _records(s).pop("time")),
    ("missing", lambda s: _records(s).pop("servers")),
    ("unexpected", lambda s: _records(s).update(power=[0.0] * 5)),
    ("mapping", lambda s: _records(s).update(servers=None)),
    ("mapping", lambda s: _records(s).update(servers=[])),
    ("missing", lambda s: _servers(s).pop("machine3")),
    ("unexpected", lambda s: _servers(s).update(
        machine9=_servers(s)["machine1"])),
    ("mapping", lambda s: _servers(s).update(machine2=None)),
    ("missing", lambda s: _servers(s)["machine1"].pop("weight")),
    ("unexpected", lambda s: _servers(s)["machine4"].update(
        power=[0.0] * 5)),
    ("list", lambda s: _records(s).update(time="x")),
    ("list", lambda s: _records(s).update(active_servers=None)),
    ("list", lambda s: _servers(s)["machine2"].update(rate=1.0)),
    ("list", lambda s: _servers(s)["machine2"].update(
        state=tuple(_servers(s)["machine2"]["state"]))),
    ("values", lambda s: _records(s)["dropped_rate"].pop()),
    ("values", lambda s: _records(s)["time"].append(5.0)),
    ("values", lambda s: _servers(s)["machine4"]["cpu_temperature"].pop()),
    ("values", lambda s: _servers(s)["machine1"]["connection_limit"]
     .append(None)),
    ("non-numeric", lambda s: _records(s)["time"].__setitem__(0, "x")),
    ("non-numeric", lambda s: _records(s)["offered_rate"].__setitem__(
        1, None)),
    ("non-numeric", lambda s: _records(s)["dropped_rate"].__setitem__(
        2, [0.0])),
    ("non-numeric", lambda s: _records(s)["active_servers"].__setitem__(
        3, "four")),
    ("non-numeric", lambda s: _records(s)["active_servers"].__setitem__(
        4, float("inf"))),
]


def test_restore_rejects_mismatched_records_before_changing_state():
    """Every malformed record set raises ClusterError before the
    restore changes anything."""
    sim = ClusterSimulation(policy="freon")
    sim.run(5)
    text = json.dumps(sim.checkpoint())
    target = ClusterSimulation(policy="freon")
    target.run(2)
    before = target.records.copy()
    for expected, edit in MALFORMED_RECORDS:
        state = json.loads(text)
        edit(state)
        with pytest.raises(ClusterError, match=expected):
            target.apply_checkpoint(state)
        assert target.time == 2.0
        assert len(target.records) == 2
    assert target.records == before


def test_checkpoint_records_are_copies():
    """A checkpoint keeps its records as the run goes on, and a restored
    run keeps its records when the checkpoint is edited afterwards."""
    sim = ClusterSimulation(policy="freon", fiddle_script=emergency_script())
    sim.run(10)
    state = sim.checkpoint()
    text = json.dumps(state)
    sim.run(5)
    assert json.dumps(state) == text

    target = ClusterSimulation(
        policy="freon", fiddle_script=emergency_script()
    )
    target.apply_checkpoint(state)
    restored = target.records.copy()
    records = state["records"]
    for key in ("time", "offered_rate", "dropped_rate", "active_servers"):
        records[key][0] = -1
        records[key].append(-1)
    for fields in records["servers"].values():
        for column in fields.values():
            column[0] = "edited"
            column.append("edited")
    assert target.records == restored
    assert len(target.records) == 10


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
