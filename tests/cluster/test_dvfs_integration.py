"""Tests for DVFS effects in the web-server model and the cluster harness."""

import pytest

from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.cluster.tracegen import constant_trace
from repro.cluster.webserver import WebServer
from repro.config import table1


class TestSpeedFactor:
    def test_default_full_speed(self):
        assert WebServer("s").speed_factor == 1.0

    def test_bounds(self):
        server = WebServer("s")
        with pytest.raises(ValueError):
            server.set_speed_factor(0.0)
        with pytest.raises(ValueError):
            server.set_speed_factor(1.5)

    def test_capacity_scales_with_frequency(self):
        server = WebServer("s")
        full = server.capacity()
        server.set_speed_factor(0.5)
        # The CPU is the bottleneck for the paper's mix, so halving the
        # clock halves the capacity.
        assert server.capacity() == pytest.approx(full * 0.5)

    def test_utilization_rises_at_same_rate(self):
        fast = WebServer("fast")
        slow = WebServer("slow")
        slow.set_speed_factor(0.5)
        fast_load = fast.step(40.0, 1.0)
        slow_load = slow.step(40.0, 1.0)
        assert slow_load.cpu_utilization == pytest.approx(
            2.0 * fast_load.cpu_utilization
        )
        # Disk work is unaffected by the CPU clock.
        assert slow_load.disk_utilization == pytest.approx(
            fast_load.disk_utilization
        )

    def test_response_time_stretches(self):
        fast = WebServer("fast")
        slow = WebServer("slow")
        slow.set_speed_factor(0.5)
        assert slow.step(10.0, 1.0).response_time > fast.step(
            10.0, 1.0
        ).response_time


class TestLocalDvfsPolicy:
    def test_governors_wired_per_machine(self):
        sim = ClusterSimulation(policy="local-dvfs")
        assert set(sim.governors) == set(sim.machines)
        assert sim.admd is None

    def test_quiet_without_emergency(self):
        sim = ClusterSimulation(
            policy="local-dvfs", trace=constant_trace(120.0, 400.0)
        )
        result = sim.run(300)
        assert result.pstate_changes == []
        for governor in sim.governors.values():
            assert not governor.throttled

    def test_emergency_triggers_throttling(self):
        sim = ClusterSimulation(
            policy="local-dvfs", fiddle_script=emergency_script(time=100.0),
            trace=constant_trace(290.0, 2100.0),
        )
        result = sim.run(2000)
        throttled = {c for c in result.pstate_changes}
        assert throttled, "expected at least one P-state change"
        # Thermal control achieved without the balancer's help.
        assert result.max_temperature("machine1") < table1.T_RED_CPU
        # The throttled machine's power scale is reflected in Mercury.
        sim2_changes = [c.index for c in result.pstate_changes]
        assert max(sim2_changes) >= 1

    def test_sensor_dropout_run_completes(self):
        # A dropped-out CPU sensor must not crash the run: machine1's
        # governor holds its P-state through every failed read, while
        # machine3's governor still answers its own emergency.
        script = (
            "fault machine1 sensor dropout cpu\n"
            + emergency_script(time=100.0)
        )
        sim = ClusterSimulation(
            policy="local-dvfs", fiddle_script=script,
            trace=constant_trace(290.0, 2100.0),
        )
        result = sim.run(2000)
        assert len(result.records) == 2000
        assert sim.governors["machine1"].changes == []
        assert sim.governors["machine3"].changes

    def test_throttled_machine_burns_utilization(self):
        # Section 4.3's cost of local throttling: at the same request
        # rate the throttled machine's CPU busy fraction is higher than
        # its full-speed peers' (the same work on a slower clock).
        sim = ClusterSimulation(
            policy="local-dvfs", fiddle_script=emergency_script(time=100.0),
            trace=constant_trace(300.0, 2100.0),
        )
        result = sim.run(1600)
        assert result.pstate_changes, "expected throttling at this load"
        t_first = result.pstate_changes[0].time
        after = [r for r in result.records if r.time > t_first + 60]
        hot_util = max(r.servers["machine1"].cpu_utilization for r in after)
        cool_util = max(r.servers["machine2"].cpu_utilization for r in after)
        assert hot_util > cool_util + 0.1
        # Yet both serve the same request rate (no capacity squeeze at
        # this load level).
        hot_rate = max(r.servers["machine1"].rate for r in after)
        cool_rate = max(r.servers["machine2"].rate for r in after)
        assert hot_rate == pytest.approx(cool_rate, rel=0.05)
