"""The cluster inlet operator's compiled table and its invalidation.

The solver compiles each machine's perfect-mixing inlet terms — one
``(stream, supply temperature, flow * fraction)`` term per incoming
edge — into its inlet operator's table once, instead of re-deriving
them from the cluster graph every tick.  These tests pin the table's
lifecycle: built lazily, reused across ticks, and dropped by a
:meth:`Solver.set_cluster_fraction` edit (directly or through the
fiddle ``cluster fraction`` verb), which must change behaviour on the
very next tick.  A table no exhaust feeds is evaluated once per edit.
An edit that would starve a machine of air fails with a typed error
before anything changes, on every engine.
"""

import math

import pytest

from repro.config import table1
from repro.config.layouts import validation_cluster, validation_machine
from repro.core.graph import ClusterAirEdge, ClusterLayout, CoolingSource
from repro.core.solver import Solver
from repro.errors import SolverError, UnknownNodeError
from repro.fiddle.tool import Fiddle
from repro.parallel import RunSpec
from repro.parallel.batch import BatchMember, BatchRunner
from repro.parallel.engine import build_simulation


def recirculating_cluster():
    """Two Table 1 servers; 30% of m1's exhaust feeds m2's inlet."""
    machines = [validation_machine("m1"), validation_machine("m2")]
    edges = [
        ClusterAirEdge("AC", "m1", 0.5),
        ClusterAirEdge("AC", "m2", 0.5),
        ClusterAirEdge("m1", "m2", 0.3),
        ClusterAirEdge("m1", "exhaust", 0.7),
        ClusterAirEdge("m2", "exhaust", 1.0),
    ]
    return ClusterLayout(
        machines=machines,
        sources=[CoolingSource("AC", table1.INLET_TEMPERATURE)],
        edges=edges,
        sinks=["exhaust"],
    )


def _solver(cluster, engine="python"):
    solver = Solver(
        list(cluster.machines.values()), cluster=cluster,
        record=False, engine=engine,
    )
    solver.set_utilization("m1", table1.CPU, 1.0)
    return solver


def _table_weights(solver, machine):
    """``machine``'s term weights in the compiled table, in term order."""
    op = solver._inlet_op
    _, _, weights, _, _ = op.table
    count = len(_terms(solver, machine))
    return weights[:count, op.index[machine]].tolist()


def _terms(solver, machine):
    """``machine``'s (stream, reads an exhaust, weight) terms."""
    op = solver._inlet_op
    terms, _ = op._row(machine, op.fractions)
    return [(name, temp is None, weight) for name, temp, weight in terms]


def test_inlet_plan_is_built_lazily_and_reused():
    solver = _solver(recirculating_cluster())
    op = solver._inlet_op
    assert op.table is None
    solver.step()
    table = op.table
    assert table is not None and op.names == ("m1", "m2")
    # AC term plus the recirculation term from m1, in edge order.
    assert [(name, reads) for name, reads, _ in _terms(solver, "m2")] == [
        ("AC", False), ("m1", True),
    ]
    assert _table_weights(solver, "m2") == [
        w for _, _, w in _terms(solver, "m2")
    ]
    solver.step(5)
    assert solver._inlet_op is op and op.table is table  # no recompile


def _count_evaluations(solver):
    calls = []
    op = solver._inlet_op
    evaluate = op.inlets_array

    def counted(exhaust):
        calls.append(exhaust)
        return evaluate(exhaust)

    op.inlets_array = counted
    return calls


def test_exhaust_free_table_is_evaluated_once_per_edit():
    """Inlets no exhaust feeds stay the same until an edit drops them."""
    cluster = validation_cluster()
    solver = Solver(list(cluster.machines.values()), cluster=cluster,
                    record=False)
    calls = _count_evaluations(solver)
    solver.step(5)
    assert len(calls) == 1
    solver.set_source_temperature(table1.AC, 30.0)
    solver.step(5)
    assert len(calls) == 2
    assert solver.temperature("machine1", "inlet") == pytest.approx(30.0)
    # Recirculation makes every tick's inlets depend on the exhausts.
    recirculating = _solver(recirculating_cluster())
    calls = _count_evaluations(recirculating)
    recirculating.step(5)
    assert len(calls) == 5


def test_set_cluster_fraction_invalidates_and_changes_mixing():
    baseline = _solver(recirculating_cluster())
    edited = _solver(recirculating_cluster())
    for solver in (baseline, edited):
        solver.step(50)  # let m1 heat up and its exhaust recirculate

    edited.set_cluster_fraction("m1", "m2", 0.9)
    assert edited._inlet_op.table is None  # table dropped
    for solver in (baseline, edited):
        solver.step(20)

    weights = _table_weights(edited, "m2")
    base_weights = _table_weights(baseline, "m2")
    assert weights[0] == base_weights[0]  # the AC term is untouched
    assert weights[1] == pytest.approx(3.0 * base_weights[1])
    # More hot exhaust in the mix: m2 must now run a hotter inlet.
    inlet = edited.cluster.machines["m2"].inlet
    assert (
        edited.temperature("m2", inlet) > baseline.temperature("m2", inlet)
    )


def test_set_cluster_fraction_validation():
    solver = _solver(recirculating_cluster())
    with pytest.raises(UnknownNodeError):
        solver.set_cluster_fraction("m2", "m1", 0.5)  # no such edge
    with pytest.raises(SolverError):
        solver.set_cluster_fraction("m1", "m2", 1.5)
    # A solver without a cluster has no cluster edges at all.
    single = Solver([validation_machine("m1")], record=False)
    with pytest.raises(UnknownNodeError):
        single.set_cluster_fraction("AC", "m1", 0.5)


def _pooled_validation_solver():
    spec = RunSpec(run_id="pooled", policy="none", engine="compiled",
                   scenario="none", duration=20.0)
    member = BatchMember(spec, build_simulation(spec))
    runner = BatchRunner([member])
    assert member.pooled
    runner.run_ticks(5)
    return member.simulation.solver, lambda: runner.run_ticks(5)


def _plain_validation_solver(engine):
    cluster = validation_cluster()
    solver = Solver(list(cluster.machines.values()), cluster=cluster,
                    record=False, engine=engine)
    solver.step(5)
    return solver, lambda: solver.step(5)


@pytest.mark.parametrize("engine", ["python", "compiled", "batched"])
def test_zero_weight_edit_fails_before_state_changes(engine):
    """Cutting a machine's only incoming edge to 0 leaves it no air."""
    if engine == "batched":
        solver, step = _pooled_validation_solver()
    else:
        solver, step = _plain_validation_solver(engine)
    before = solver.checkpoint()
    table = solver._inlet_op.table
    fiddle = Fiddle(solver)
    with pytest.raises(SolverError, match="no air"):
        fiddle.command(f"fiddle cluster fraction {table1.AC} machine1 0")
    with pytest.raises(SolverError, match=r"\[0, 1\]"):
        fiddle.command(f"fiddle cluster fraction {table1.AC} machine1 -0.5")
    assert fiddle.log == []
    assert solver.checkpoint() == before
    assert solver._inlet_op.table is table  # nothing was dropped
    step()
    assert all(
        math.isfinite(value)
        for state in solver.machines.values()
        for value in state.temperatures.values()
    )


def test_fiddle_cluster_fraction_verb():
    solver = _solver(recirculating_cluster())
    solver.step(50)
    fiddle = Fiddle(solver)
    fiddle.command("fiddle cluster fraction m1 m2 0.9")
    assert solver._inlet_op.table is None
    assert fiddle.log == ["cluster fraction m1|m2 0.9"]
    solver.step()
    assert solver._inlet_op.fractions[("m1", "m2")] == 0.9
    assert _terms(solver, "m2")[1][2] == _table_weights(solver, "m2")[1]


def test_cluster_fraction_edit_matches_across_engines():
    reference = _solver(recirculating_cluster(), engine="python")
    compiled = _solver(recirculating_cluster(), engine="compiled")
    for solver in (reference, compiled):
        solver.step(30)
        solver.set_cluster_fraction("m1", "m2", 0.85)
        solver.step(30)
    for machine in ("m1", "m2"):
        ref_state = reference.machine(machine)
        for node, expected in ref_state.temperatures.items():
            actual = compiled.machine(machine).temperatures[node]
            assert abs(actual - expected) <= 1e-9, (machine, node)


def test_validation_cluster_fraction_edit_starves_a_machine():
    """Cutting AC share redistributes; the edit shows up in the mix."""
    cluster = validation_cluster(["machine1", "machine2"])
    solver = Solver(
        list(cluster.machines.values()), cluster=cluster, record=False
    )
    solver.step()
    before = solver._inlet_op.table
    old_weight, = _table_weights(solver, "machine1")
    solver.set_cluster_fraction(table1.AC, "machine1", 0.1)
    solver.step()
    after = solver._inlet_op.table
    assert after is not before
    ac_weight, = _table_weights(solver, "machine1")
    assert _terms(solver, "machine1")[0][0] == table1.AC
    assert ac_weight == pytest.approx(0.2 * old_weight)
