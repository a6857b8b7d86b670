"""One accumulation order for every inlet, on every solver path.

A machine's inlet is ``(t0*w0 + t1*w1 + ...) / den``, added left to
right in term order.  With three or more streams the order decides the
last bit: Python 3.12's compensated ``sum()`` and a left-to-right loop
can round the same mix differently.  Two rooms make every inlet mix at
least three streams:

* a three-machine cluster in which each inlet mixes the AC supply and
  both peers' exhausts, the edges interleaved so a source sits between
  exhausts;
* a topology room in which each machine re-ingests two neighbours'
  exhausts on top of its zone supply.

For both, the operator must equal an explicit left-to-right reference
bitwise, each engine must evaluate exactly that reference at every tick,
and the python, compiled and (for the topology) flattened solvers must
agree bitwise.
"""

import math
import random

import pytest

np = pytest.importorskip("numpy")

from repro import units
from repro.config import table1
from repro.config.layouts import validation_machine
from repro.core.graph import ClusterAirEdge, ClusterLayout, CoolingSource
from repro.core.solver import Solver
from repro.topology import (
    FlatSolver,
    Position,
    RecirculationEdge,
    Topology,
    Zone,
)

NAMES = ("m1", "m2", "m3")
AC_SUPPLY = 21.6
AC_FLOW = 0.31
#: Cluster edges in their model order: each inlet reads a source between
#: or beside two exhausts.
CLUSTER_EDGES = (
    ("m2", "m1", 0.2), ("AC", "m1", 0.3), ("m3", "m1", 0.25),
    ("AC", "m2", 0.3), ("m3", "m2", 0.15), ("m1", "m2", 0.35),
    ("m1", "m3", 0.2), ("m2", "m3", 0.3), ("AC", "m3", 0.4),
    ("m1", "out", 0.45), ("m2", "out", 0.5), ("m3", "out", 0.6),
)
ZONE_SUPPLY = {"cold": 20.9, "warm": 23.3}
POSITIONS = {"m1": ("cold", 0), "m2": ("cold", 1), "m3": ("warm", 0)}
#: Recirculation edges in topology order, two into every machine.
TOPOLOGY_EDGES = (
    ("m3", "m1", 0.11), ("m2", "m1", 0.07),
    ("m1", "m2", 0.13), ("m3", "m2", 0.09),
    ("m2", "m3", 0.05), ("m1", "m3", 0.17),
)
UTILIZATION = (0.35, 0.8, 0.55)
ROOMS = ("cluster", "topology")


def cluster_layout():
    machines = [validation_machine(name) for name in NAMES]
    return ClusterLayout(
        machines,
        [CoolingSource("AC", AC_SUPPLY, flow_m3s=AC_FLOW)],
        [ClusterAirEdge(*edge) for edge in CLUSTER_EDGES],
        sinks=["out"],
    )


def topology():
    return Topology(
        NAMES,
        [Zone(name, supply) for name, supply in ZONE_SUPPLY.items()],
        {name: Position(zone, 0, slot)
         for name, (zone, slot) in POSITIONS.items()},
        [RecirculationEdge(*edge) for edge in TOPOLOGY_EDGES],
    )


def reference_terms(room):
    """Per machine: its (temperature getter, weight) terms and ``den``,
    derived from the fixture tables rather than from the operator."""
    rows = {}
    if room == "cluster":
        fan = units.cfm_to_m3s(validation_machine("m").fan_cfm)
        for machine in NAMES:
            terms = []
            for src, dst, fraction in CLUSTER_EDGES:
                if dst != machine:
                    continue
                if src == "AC":
                    terms.append(((lambda e: AC_SUPPLY), AC_FLOW * fraction))
                else:
                    terms.append(((lambda e, s=src: e[s]), fan * fraction))
            den = 0.0
            for _, weight in terms:
                den += weight
            rows[machine] = (terms, den)
    else:
        for machine in NAMES:
            edges = [(s, w) for s, d, w in TOPOLOGY_EDGES if d == machine]
            incoming = 0.0
            for _, weight in edges:
                incoming += weight
            supply = ZONE_SUPPLY[POSITIONS[machine][0]]
            terms = [((lambda e, t=supply: t), 1.0 - incoming)]
            terms += [((lambda e, s=src: e[s]), w) for src, w in edges]
            rows[machine] = (terms, 1.0)
    return rows


def left_to_right(rows, exhaust):
    inlets = {}
    for machine, (terms, den) in rows.items():
        total = 0.0
        for temperature, weight in terms:
            total += temperature(exhaust) * weight
        inlets[machine] = total / den
    return inlets


def compensated(rows, exhaust):
    return {
        machine: math.fsum(t(exhaust) * w for t, w in terms) / den
        for machine, (terms, den) in rows.items()
    }


def solver(room, engine):
    layouts = [validation_machine(name) for name in NAMES]
    if room == "cluster":
        built = Solver(layouts, cluster=cluster_layout(), engine=engine,
                       record=False)
    else:
        built = Solver(layouts, topology=topology(), engine=engine,
                       record=False)
    for i, name in enumerate(NAMES):
        built.set_utilization(name, table1.CPU, UTILIZATION[i])
    return built


@pytest.mark.parametrize("room", ROOMS)
def test_operator_is_the_left_to_right_mix(room):
    op = solver(room, "python")._inlet_op
    rows = reference_terms(room)
    rng = random.Random(22)
    reordered = 0
    for _ in range(300):
        exhaust = {name: rng.uniform(18.0, 95.0) for name in NAMES}
        expected = left_to_right(rows, exhaust)
        assert op.inlets(exhaust) == expected
        array = op.inlets_array(np.array([exhaust[n] for n in op.names]))
        assert array.tolist() == [expected[n] for n in op.names]
        reordered += compensated(rows, exhaust) != expected
    # The rooms are sensitive to the order: a compensated sum rounds
    # some of these mixes differently, so it would fail the pin above.
    assert reordered > 0


def _record_inlets(op):
    """Wrap ``op.inlets_array`` to log every (exhaust, inlets) pair."""
    calls = []
    evaluate = op.inlets_array

    def recorded(exhaust):
        result = evaluate(exhaust)
        calls.append((np.asarray(exhaust).tolist(), result.tolist()))
        return result

    op.inlets_array = recorded
    return calls


def _check_calls(room, op, calls):
    rows = reference_terms(room)
    for exhaust, inlets in calls:
        expected = left_to_right(rows, dict(zip(op.names, exhaust)))
        assert inlets == [expected[name] for name in op.names]


@pytest.mark.parametrize("room", ROOMS)
def test_engines_tick_the_same_bits(room):
    solvers = [solver(room, engine) for engine in ("python", "compiled")]
    ops = [s._inlet_op for s in solvers]
    flat = None
    if room == "topology":
        flat = FlatSolver(topology())
        flat.set_utilization(table1.CPU, np.array(UTILIZATION))
        ops.append(flat.operator)
    logs = [_record_inlets(op) for op in ops]
    for _ in range(200):
        for s in solvers:
            s.step()
        if flat is not None:
            flat.step()
    python, compiled = solvers
    for name in NAMES:
        assert python.machines[name].temperatures == (
            compiled.machines[name].temperatures
        )
        if flat is not None:
            row = flat.group.T[flat.operator.index[name]].tolist()
            assert row == [
                python.machines[name].temperatures[node]
                for node in flat.plan.node_names
            ]
    for op, calls in zip(ops, logs):
        assert len(calls) == 200
        _check_calls(room, op, calls)
