"""Layout and stale-cache guards for the compiled engine's group arrays.

The kernel reads whole node columns, so every group array must stay
column-major through each way a group is built or rebuilt; a row-major
rebuild would still be correct, only much slower, and no equivalence
test would notice.  The coefficient cache must be dropped by a
mid-run ``set_k``: a stale cache would be fast and wrong.
"""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.config import table1
from repro.config.layouts import validation_machine
from repro.core.compiled import _Group, compile_layout
from repro.core.solver import Solver
from repro.core.state import MachineState
from repro.parallel import RunSpec
from repro.parallel.batch import BatchMember, BatchPool, BatchRunner
from repro.parallel.engine import build_simulation
from repro.topology import FlatSolver, grid_topology

ARRAYS = ("T", "k", "fractions", "factor", "util", "flows", "cap")


def assert_column_major(group):
    for name in ARRAYS:
        array = getattr(group, name)
        assert array.flags.f_contiguous, f"{name} is not column-major"


def _members(count):
    members = []
    for i in range(count):
        layout = validation_machine(f"machine{i}")
        members.append((layout.name, MachineState(layout, 25.0)))
    return members


def _spec(run_id):
    return RunSpec(run_id=run_id, policy="freon", engine="compiled",
                   scenario="none", duration=120.0)


def _pool_groups(pool):
    return [pool_group.group for pool_group in pool._groups.values()]


class TestColumnMajor:
    def test_group_construction_and_flow_rebuild(self):
        members = _members(3)
        group = _Group(compile_layout(members[0][1].layout), members)
        assert_column_major(group)
        group.rebuild_flows()
        assert_column_major(group)

    def test_from_template(self):
        layout = validation_machine("template")
        group = _Group.from_template(
            compile_layout(layout), MachineState(layout, 25.0), 7
        )
        assert_column_major(group)
        group.rebuild_flows()
        assert_column_major(group)

    def test_flat_solver_restore_and_node_column(self):
        topo = grid_topology(12, zones=2, machines_per_rack=4)
        flat = FlatSolver(topo)
        flat.set_utilization(table1.CPU, 0.6)
        flat.step(5)
        data = json.loads(json.dumps(flat.checkpoint()))
        clone = FlatSolver(topo)
        clone.restore(data)
        assert_column_major(clone.group)
        clone.step(2)
        assert_column_major(clone.group)
        column = clone.node_column(table1.CPU)
        assert column.flags.c_contiguous
        assert np.shares_memory(column, clone.group.T)

    def test_batch_pool_adopt_evict_retire(self):
        sims = [build_simulation(_spec(f"run{i}")) for i in range(3)]
        pool = BatchPool(sims[0].dt)
        for sim in sims:
            assert pool.adopt(sim)
            for group in _pool_groups(pool):
                assert_column_major(group)
        pool.evict(sims[0])
        for group in _pool_groups(pool) + sims[0].solver._impl.groups:
            assert_column_major(group)
        pool.retire_many([sims[1]])
        (group,) = _pool_groups(pool)
        assert_column_major(group)
        assert group.T.shape[0] == len(sims[2].solver.machines)


def _temperatures(solver):
    return {
        (name, node): value
        for name, state in solver.machines.items()
        for node, value in state.temperatures.items()
    }


class TestStaleCoefficients:
    def test_set_k_on_compiled_solver_matches_fresh_engine(self):
        layouts = [validation_machine(f"machine{i}") for i in range(1, 5)]
        solver = Solver(layouts, record=False, engine="compiled")
        for name in solver.machines:
            solver.set_utilization(name, table1.CPU, 0.8)
        for _ in range(30):
            solver.step()
        solver.machine("machine2").set_k("CPU", "CPU Air", 0.35)
        fresh = Solver(layouts, record=False, engine="compiled")
        fresh.restore(json.loads(json.dumps(solver.checkpoint())))
        for tick in range(20):
            solver.step()
            fresh.step()
            assert _temperatures(solver) == _temperatures(fresh), f"tick {tick}"

    def test_set_k_on_batched_member_matches_fresh_engine(self):
        specs = [_spec("victim"), _spec("bystander")]
        members = [BatchMember(s, build_simulation(s)) for s in specs]
        runner = BatchRunner(members)
        assert all(member.pooled for member in members)
        runner.run_ticks(40)
        victim = members[0].simulation
        victim.solver.machine("machine1").set_k("CPU", "CPU Air", 0.35)
        assert members[0].pooled
        fresh = build_simulation(specs[0])
        fresh.apply_checkpoint(
            json.loads(json.dumps(runner.checkpoints()["victim"]))
        )
        for tick in range(20):
            runner.run_ticks(1)
            fresh.step()
            assert _temperatures(victim.solver) == _temperatures(
                fresh.solver
            ), f"tick {tick}"
