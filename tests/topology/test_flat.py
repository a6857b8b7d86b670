"""Tests for the flattened whole-room solver."""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.config import table1
from repro.config.layouts import validation_machine
from repro.core.solver import Solver
from repro.errors import TopologyError
from repro.topology import FlatSolver, grid_topology

MACHINES = 24


def room():
    return grid_topology(MACHINES, zones=2, machines_per_rack=6)


def reference_solver(topology):
    layouts = [validation_machine(name) for name in topology.machines]
    solver = Solver(layouts, topology=topology, record=False)
    return solver


class TestEquivalence:
    def test_matches_per_machine_solver(self):
        topo = room()
        flat = FlatSolver(topo)
        flat.set_utilization(table1.CPU, 0.65)
        flat.set_utilization(table1.DISK_PLATTERS, 0.3)
        reference = reference_solver(topo)
        for name in topo.machines:
            state = reference.machines[name]
            state.set_utilization(table1.CPU, 0.65)
            state.set_utilization(table1.DISK_PLATTERS, 0.3)
        flat.step(60)
        for _ in range(60):
            reference.step()
        worst = 0.0
        for row, name in enumerate(topo.machines):
            state = reference.machines[name]
            for node in flat.plan.node_names:
                delta = abs(
                    state.temperatures[node]
                    - float(flat.group.T[row, flat.plan.node_index[node]])
                )
                worst = max(worst, delta)
        assert worst <= 1e-9

    def test_inlet_override(self):
        topo = room()
        flat = FlatSolver(topo)
        flat.set_inlet_override("machine1", 45.0)
        flat.step(30)
        inlet_col = flat.plan.node_index[table1.INLET]
        assert float(flat.group.T[0, inlet_col]) == pytest.approx(45.0, abs=2.0)
        flat.set_inlet_override("machine1", None)
        flat.step(200)
        assert float(flat.group.T[0, inlet_col]) < 30.0

    def test_per_machine_utilization(self):
        topo = room()
        flat = FlatSolver(topo)
        util = np.zeros(MACHINES)
        util[0] = 1.0
        flat.set_utilization(table1.CPU, util)
        flat.step(200)
        cpu = flat.node_column(table1.CPU)
        assert cpu[0] > cpu[5] + 5.0

    def test_unknown_names_rejected(self):
        flat = FlatSolver(room())
        with pytest.raises(TopologyError, match="unknown node"):
            flat.node_column("Flux Capacitor")
        with pytest.raises(TopologyError, match="unknown component"):
            flat.set_utilization("Flux Capacitor", 0.5)
        with pytest.raises(TopologyError, match="unknown machine"):
            flat.set_inlet_override("ghost", 30.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(TopologyError, match="dt"):
            FlatSolver(room(), dt=0.0)


class TestCheckpoint:
    def test_bit_exact_resume_through_json(self):
        topo = room()
        flat = FlatSolver(topo)
        flat.set_utilization(table1.CPU, 0.7)
        flat.set_inlet_override("machine3", 35.0)
        flat.operator.set_supply("zone0", 24.0)
        flat.step(40)
        data = json.loads(json.dumps(flat.checkpoint()))

        clone = FlatSolver(topo)
        clone.set_utilization(table1.CPU, 0.7)  # overwritten by restore
        clone.restore(data)
        assert np.array_equal(clone.group.T, flat.group.T)
        assert np.array_equal(clone.prev_exhaust, flat.prev_exhaust)
        assert clone.inlet_overrides == flat.inlet_overrides
        assert clone.time == flat.time

        # The restored room continues bit-for-bit.
        flat.step(40)
        clone.step(40)
        assert np.array_equal(clone.group.T, flat.group.T)

    def test_restore_rejects_wrong_shape(self):
        flat = FlatSolver(room())
        other = FlatSolver(grid_topology(4, zones=2, machines_per_rack=2))
        with pytest.raises(TopologyError, match="shape"):
            flat.restore(other.checkpoint())

    @pytest.mark.parametrize("row", ["-1", str(MACHINES), "machine1"])
    def test_restore_rejects_bad_inlet_override_row(self, row):
        flat = FlatSolver(room())
        flat.step(3)
        data = flat.checkpoint()
        data["inlet_overrides"] = {row: 45.0}
        before = flat.group.T.copy()
        with pytest.raises(TopologyError, match="inlet override row"):
            flat.restore(data)
        # Nothing was applied, so the room still steps.
        assert np.array_equal(flat.group.T, before)
        assert flat.inlet_overrides == {}
        flat.step()
