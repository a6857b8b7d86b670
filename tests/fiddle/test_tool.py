"""Tests for the fiddle runtime-mutation tool."""

import pytest

from repro.config import table1
from repro.core.solver import Solver
from repro.errors import FiddleError
from repro.fiddle.tool import Fiddle


@pytest.fixture
def fiddle(solver):
    return Fiddle(solver)


class TestVerbs:
    def test_temperature_forces_node(self, solver, fiddle):
        fiddle.temperature("machine1", table1.CPU, 55.0)
        assert solver.temperature("machine1", table1.CPU) == 55.0

    def test_inlet_override_persists(self, solver, fiddle):
        fiddle.temperature("machine1", "inlet", 30.0)
        solver.run(500)
        assert solver.temperature("machine1", "inlet") == pytest.approx(30.0)

    def test_restore_clears_inlet(self, solver, fiddle):
        fiddle.temperature("machine1", "inlet", 30.0)
        fiddle.restore("machine1")
        solver.run(100)
        assert solver.temperature("machine1", "inlet") == pytest.approx(
            table1.INLET_TEMPERATURE
        )

    def test_k_changes_edge(self, solver, fiddle):
        fiddle.k("machine1", table1.CPU, table1.CPU_AIR, 2.0)
        assert solver.machine("machine1").edge_k(
            table1.CPU, table1.CPU_AIR
        ) == pytest.approx(2.0)

    def test_fraction_changes_edge(self, solver, fiddle):
        fiddle.fraction("machine1", table1.INLET, table1.DISK_AIR, 0.2)
        assert solver.machine("machine1").fractions[
            (table1.INLET, table1.DISK_AIR)
        ] == pytest.approx(0.2)

    def test_fan_changes_flow(self, solver, fiddle):
        fiddle.fan("machine1", 20.0)
        assert solver.machine("machine1").fan_cfm == pytest.approx(20.0)

    def test_power_scales_component(self, solver, fiddle):
        solver.set_utilization("machine1", table1.CPU, 1.0)
        fiddle.power("machine1", table1.CPU, 0.5)
        assert solver.machine("machine1").power(table1.CPU) == pytest.approx(15.5)

    def test_power_scaling_cools_cpu(self, solver, fiddle):
        # The paper's DVFS/throttling emulation path: halving CPU power
        # at full utilization must cool the CPU.
        solver.set_utilization("machine1", table1.CPU, 1.0)
        solver.run(4000)
        hot = solver.temperature("machine1", table1.CPU)
        fiddle.power("machine1", table1.CPU, 0.4)
        solver.run(4000)
        assert solver.temperature("machine1", table1.CPU) < hot - 10.0

    def test_log_records_actions(self, fiddle):
        fiddle.temperature("machine1", "inlet", 30.0)
        fiddle.fan("machine1", 25.0)
        assert len(fiddle.log) == 2
        assert "inlet" in fiddle.log[0]


class TestCommandStrings:
    def test_paper_example(self, solver, fiddle):
        # Figure 4's command verbatim.
        fiddle.command("fiddle machine1 temperature inlet 30")
        solver.run(100)
        assert solver.temperature("machine1", "inlet") == pytest.approx(30.0)

    def test_leading_fiddle_optional(self, solver, fiddle):
        fiddle.command("machine1 temperature inlet 25")
        assert solver.machine("machine1").inlet_override == pytest.approx(25.0)

    def test_quoted_multiword_names(self, solver, fiddle):
        fiddle.command('fiddle machine1 k "CPU" "CPU Air" 1.5')
        assert solver.machine("machine1").edge_k(
            table1.CPU, table1.CPU_AIR
        ) == pytest.approx(1.5)

    def test_fraction_command(self, solver, fiddle):
        fiddle.command('fiddle machine1 fraction "Inlet" "Disk Air" 0.3')
        assert solver.machine("machine1").fractions[
            (table1.INLET, table1.DISK_AIR)
        ] == pytest.approx(0.3)

    def test_fan_command(self, solver, fiddle):
        fiddle.command("fiddle machine1 fan 50")
        assert solver.machine("machine1").fan_cfm == 50.0

    def test_power_command(self, solver, fiddle):
        fiddle.command('fiddle machine1 power "CPU" 0.7')
        solver.set_utilization("machine1", table1.CPU, 1.0)
        assert solver.machine("machine1").power(table1.CPU) == pytest.approx(21.7)

    def test_restore_command(self, solver, fiddle):
        fiddle.command("fiddle machine1 temperature inlet 40")
        fiddle.command("fiddle machine1 restore")
        assert solver.machine("machine1").inlet_override is None

    def test_cluster_source_command(self, cluster):
        solver = Solver(list(cluster.machines.values()), cluster=cluster,
                        record=False)
        fiddle = Fiddle(solver)
        fiddle.command('fiddle cluster source "AC" 30')
        solver.run(50)
        assert solver.temperature("machine1", "inlet") == pytest.approx(30.0)

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "fiddle",
            "fiddle machine1",
            "fiddle machine1 wobble inlet 30",
            "fiddle machine1 temperature inlet",
            "fiddle machine1 temperature inlet thirty",
            "fiddle machine1 fan",
            "fiddle cluster source onlyname",
            "fiddle machine1 k CPU 0.5",
            "fiddle cluster source AC nan",
            "fiddle cluster fraction AC machine1 nan",
            "fiddle machine1 temperature inlet nan",
            "fiddle machine1 temperature CPU inf",
            "fiddle machine1 fan -inf",
        ],
    )
    def test_malformed_commands_rejected(self, fiddle, line):
        with pytest.raises(FiddleError):
            fiddle.command(line)

    def test_unknown_machine_propagates(self, fiddle):
        from repro.errors import UnknownSensorError

        with pytest.raises(UnknownSensorError):
            fiddle.command("fiddle machine9 temperature inlet 30")
