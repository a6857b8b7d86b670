"""Tests for fiddle scripts (Figure 4 syntax) and their execution."""

import pytest

from repro.config import table1
from repro.core.solver import Solver
from repro.core.trace import TracePoint, UtilizationTrace, run_offline
from repro.errors import FiddleError
from repro.fiddle.script import (
    ScriptRunner,
    events_from_script,
    parse_script,
)

FIGURE4 = """#!/bin/bash
sleep 100
fiddle machine1 temperature inlet 30
sleep 200
fiddle machine1 temperature inlet 21.6
"""


class TestParseScript:
    def test_figure4(self):
        commands = parse_script(FIGURE4)
        assert len(commands) == 2
        assert commands[0].time == pytest.approx(100.0)
        assert commands[1].time == pytest.approx(300.0)
        assert "30" in commands[0].command

    def test_sleeps_accumulate(self):
        script = "sleep 10\nsleep 20\nfiddle m1 fan 30\n"
        commands = parse_script(script)
        assert commands[0].time == pytest.approx(30.0)

    def test_comments_and_blanks_ignored(self):
        script = "# setup\n\nsleep 5\nfiddle m1 fan 10\n"
        assert len(parse_script(script)) == 1

    def test_commands_at_time_zero(self):
        commands = parse_script("fiddle m1 fan 10\n")
        assert commands[0].time == 0.0

    @pytest.mark.parametrize(
        "script",
        [
            "sleep\n",
            "sleep abc\n",
            "sleep -5\n",
            "sleep nan\n",
            "sleep inf\n",
            "reboot now\n",
            "fault net delay nan\n",
        ],
    )
    def test_malformed_scripts_rejected(self, script):
        with pytest.raises(FiddleError):
            parse_script(script)


class TestScriptRunner:
    def test_fires_in_order_once(self, solver):
        runner = ScriptRunner(solver, parse_script(FIGURE4))
        assert runner.pending == 2
        assert runner.advance_to(50.0) == []
        fired = runner.advance_to(100.0)
        assert len(fired) == 1
        assert runner.pending == 1
        assert solver.machine("machine1").inlet_override == pytest.approx(30.0)
        # Re-advancing past the same time does not re-fire.
        assert runner.advance_to(150.0) == []

    def test_large_jump_fires_all_due(self, solver):
        runner = ScriptRunner(solver, parse_script(FIGURE4))
        fired = runner.advance_to(1000.0)
        assert len(fired) == 2
        assert solver.machine("machine1").inlet_override == pytest.approx(21.6)

    def test_audit_log(self, solver):
        runner = ScriptRunner(solver, parse_script(FIGURE4))
        runner.advance_to(500.0)
        assert len(runner.fiddle.log) == 2


class TestOfflineEvents:
    def test_script_drives_offline_run(self, layout):
        trace = UtilizationTrace(
            "machine1", [TracePoint(0.0, {table1.CPU: 0.5})]
        )
        events = events_from_script(FIGURE4)
        history = run_offline(
            [layout], [trace], duration=400.0, events=events
        )
        inlet = history.series("machine1", table1.INLET)
        times = history.times("machine1")
        # Before 100 s: normal inlet; between 100 and 300: 30 C.
        assert inlet[times.index(50.0)] == pytest.approx(21.6)
        assert inlet[times.index(200.0)] == pytest.approx(30.0)
        assert inlet[times.index(390.0)] == pytest.approx(21.6)

    def test_emergency_heats_and_recovery_cools(self, layout):
        # A full emergency cycle: the CPU heats while the cooling is
        # broken and recovers afterwards.
        trace = UtilizationTrace(
            "machine1", [TracePoint(0.0, {table1.CPU: 0.5})]
        )
        script = "sleep 1000\nfiddle machine1 temperature inlet 38\n" \
                 "sleep 2000\nfiddle machine1 restore\n"
        history = run_offline(
            [layout], [trace], duration=6000.0,
            events=events_from_script(script),
        )
        cpu = history.series("machine1", table1.CPU)
        times = history.times("machine1")
        before = cpu[times.index(1000.0)]
        during = cpu[times.index(3000.0)]
        after = cpu[times.index(6000.0)]
        assert during > before + 10.0
        assert after < during - 10.0
