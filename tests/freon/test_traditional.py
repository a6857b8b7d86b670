"""Tests for the traditional red-line-shutdown policy."""

import json

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.control import POWER_ACTIVE, POWER_OFF, TraditionalControlPolicy
from repro.freon.policy import FreonConfig


class FakeView:
    """The slice of a machine-state view the traditional policy uses."""

    def __init__(self):
        self.machines = ("m1", "m2")
        self.temps = {
            "m1": {"cpu": 50.0, "disk": 40.0},
            "m2": {"cpu": 50.0, "disk": 40.0},
        }
        self.power = {"m1": POWER_ACTIVE, "m2": POWER_ACTIVE}
        self.killed = []

    def power_states(self):
        return np.array([self.power[m] for m in self.machines])

    def read_temperatures(self, components, mask=None):
        return {
            c: np.array([
                self.temps[m][c] if mask is None or mask[i] else np.nan
                for i, m in enumerate(self.machines)
            ])
            for c in components
        }

    def set_power(self, index, on):
        assert not on
        self.killed.append(self.machines[index])


@pytest.fixture
def harness():
    view = FakeView()
    return view, TraditionalControlPolicy(config=FreonConfig())


class TestRedlineShutdown:
    def test_quiet_below_redline(self, harness):
        view, policy = harness
        view.temps["m1"]["cpu"] = 68.9  # above high, below red (69)
        policy.wake(view, 60.0)
        assert policy.shutdowns == []
        assert view.killed == []

    def test_shutdown_at_redline(self, harness):
        view, policy = harness
        view.temps["m1"]["cpu"] = 69.0
        policy.wake(view, 60.0)
        assert view.killed == ["m1"]
        event = policy.shutdowns[0]
        assert event.machine == "m1"
        assert event.component == "cpu"
        assert event.temperature == 69.0
        assert event.time == 60.0

    def test_disk_redline_also_triggers(self, harness):
        view, policy = harness
        view.temps["m2"]["disk"] = 67.5  # disk red line is 67
        policy.wake(view, 60.0)
        assert view.killed == ["m2"]
        assert policy.shutdowns[0].component == "disk"

    def test_dead_servers_not_rechecked(self, harness):
        view, policy = harness
        view.temps["m1"]["cpu"] = 70.0
        policy.wake(view, 60.0)
        policy.wake(view, 120.0)
        assert view.killed == ["m1"]
        assert len(policy.shutdowns) == 1

    def test_multiple_servers_can_die(self, harness):
        view, policy = harness
        view.temps["m1"]["cpu"] = 70.0
        view.temps["m2"]["cpu"] = 71.0
        policy.wake(view, 60.0)
        assert sorted(view.killed) == ["m1", "m2"]

    def test_off_servers_skipped(self, harness):
        view, policy = harness
        view.temps["m1"]["cpu"] = 80.0
        view.power["m1"] = POWER_OFF
        policy.wake(view, 60.0)
        assert view.killed == []

    def test_failed_read_takes_no_action(self, harness):
        view, policy = harness
        view.temps["m1"]["cpu"] = float("nan")  # a sensor dropout
        view.temps["m1"]["disk"] = float("nan")
        policy.wake(view, 60.0)
        assert view.killed == []
        assert policy.shutdowns == []


class TestOnTheClusterStack:
    def test_sensor_dropout_run_completes(self):
        # A dropped-out CPU sensor must not crash the run.  The policy
        # skips the blind read, so the hottest machine is never shut
        # down and runs past its red line: the traditional controller's
        # weakness under sensor faults.
        script = "fault machine1 sensor dropout cpu\n" + emergency_script()
        sim = ClusterSimulation(policy="traditional", fiddle_script=script)
        result = sim.run(duration=1500.0)
        assert len(result.records) == 1500
        assert result.shutdowns == []
        assert result.max_temperature("machine1") > FreonConfig().red("cpu")

    def test_resume_after_a_shutdown_keeps_the_shutdowns(self):
        # Shutdowns land at t=1200 (machine1) and t=1260 (machine3);
        # split between them so the checkpoint carries one.
        def build():
            return ClusterSimulation(
                policy="traditional", fiddle_script=emergency_script()
            )

        golden = build()
        golden.run(duration=1500.0)

        first = build()
        first.run(duration=1230.0)
        assert len(first.result().shutdowns) == 1
        state = json.loads(json.dumps(first.checkpoint()))
        second = build()
        second.apply_checkpoint(state)
        second.run(duration=270.0)

        assert second.result().shutdowns == golden.result().shutdowns
        assert len(golden.result().shutdowns) == 2
