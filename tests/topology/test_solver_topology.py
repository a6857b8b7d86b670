"""Solver integration: topology inlets, fiddle verbs, checkpoints."""

import json

import pytest

from repro.config import table1
from repro.config.layouts import validation_cluster, validation_machine
from repro.core.solver import Solver
from repro.errors import FiddleError, SolverError, TopologyError
from repro.fiddle.tool import Fiddle
from repro.topology import grid_topology

MACHINES = 8


def build_solver(engine="python", topology=None):
    if topology is None:
        topology = grid_topology(MACHINES, zones=2, machines_per_rack=4)
    layouts = [validation_machine(name) for name in topology.machines]
    solver = Solver(layouts, topology=topology, engine=engine, record=False)
    for name in topology.machines:
        solver.machines[name].set_utilization(table1.CPU, 0.7)
    return solver


def cpu_temps(solver):
    return {
        name: solver.machines[name].temperatures[table1.CPU]
        for name in solver.machines
    }


class TestSolverTopology:
    def test_recirculation_heats_downstream(self):
        solver = build_solver()
        for _ in range(300):
            solver.step()
        temps = cpu_temps(solver)
        # machine2 re-ingests machine1's exhaust; machine1 sees pure
        # cold-aisle supply, so the downstream machine runs hotter.
        assert temps["machine2"] > temps["machine1"]

    def test_engines_agree(self):
        py = build_solver("python")
        comp = build_solver("compiled")
        for _ in range(100):
            py.step()
            comp.step()
        for name, value in cpu_temps(py).items():
            assert cpu_temps(comp)[name] == pytest.approx(value, abs=1e-9)

    def test_topology_and_cluster_are_exclusive(self):
        topo = grid_topology(4, zones=2, machines_per_rack=2)
        layouts = [validation_machine(name) for name in topo.machines]
        cluster = validation_cluster(list(topo.machines))
        with pytest.raises(SolverError):
            Solver(layouts, cluster=cluster, topology=topo)

    def test_topology_machines_must_match(self):
        topo = grid_topology(4, zones=2, machines_per_rack=2)
        layouts = [validation_machine("other")]
        with pytest.raises(SolverError):
            Solver(layouts, topology=topo)

    def test_zone_and_recirculation_setters(self):
        solver = build_solver()
        solver.set_zone_supply("zone0", 30.0)
        solver.set_recirculation("machine1", "machine2", 0.2)
        with pytest.raises(TopologyError):
            solver.set_zone_supply("atlantis", 30.0)

    def test_setters_require_topology(self):
        layouts = [validation_machine("m1")]
        solver = Solver(layouts)
        with pytest.raises(SolverError, match="no topology"):
            solver.set_zone_supply("zone0", 30.0)
        with pytest.raises(SolverError, match="no topology"):
            solver.set_recirculation("a", "b", 0.1)


class TestFiddleVerbs:
    def test_zone_verb(self):
        solver = build_solver()
        fiddle = Fiddle(solver)
        fiddle.command("cluster zone zone0 31.5")
        assert solver._inlet_op.supply_temperature("zone0") == 31.5
        assert "cluster zone zone0 31.5" in fiddle.log

    def test_recirculation_verb(self):
        solver = build_solver()
        fiddle = Fiddle(solver)
        fiddle.command("cluster recirculation machine1 machine2 0.15")
        assert solver._inlet_op.weight("machine1", "machine2") == 0.15

    def test_bad_cluster_verb_mentions_new_forms(self):
        solver = build_solver()
        fiddle = Fiddle(solver)
        with pytest.raises(FiddleError, match="cluster zone"):
            fiddle.command("cluster nonsense 1 2")


class TestCheckpoint:
    def test_checkpoint_carries_topology(self):
        solver = build_solver()
        solver.set_zone_supply("zone1", 26.0)
        solver.set_recirculation("machine1", "machine2", 0.13)
        for _ in range(50):
            solver.step()
        data = json.loads(json.dumps(solver.checkpoint()))
        assert data["topology"]["supply_overrides"] == {"zone1": 26.0}
        assert data["topology"]["weights"]["machine1|machine2"] == 0.13

        clone = build_solver()
        clone.restore(data)
        assert clone._inlet_op.supply_temperature("zone1") == 26.0
        assert clone._inlet_op.weight("machine1", "machine2") == 0.13
        # Bit-exact resume: both solvers walk the same trajectory.
        for _ in range(50):
            solver.step()
            clone.step()
        for name, value in cpu_temps(solver).items():
            assert cpu_temps(clone)[name] == value

    def test_no_topology_key_without_topology(self):
        # Topology-free checkpoints keep their historical shape (golden
        # byte-identity for existing runs).
        layouts = [validation_machine("m1")]
        solver = Solver(layouts)
        assert "topology" not in solver.checkpoint()
