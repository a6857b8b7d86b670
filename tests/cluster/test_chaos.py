"""Short chaos runs: fault scripts driving the full cluster simulation."""

import pytest

from repro.cluster.simulation import ClusterSimulation, chaos_script
from repro.cluster.tracegen import constant_trace
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind, FaultSpec
from repro.telemetry import Telemetry


def short_trace(rate=120.0, duration=400.0):
    return constant_trace(rate, duration)


class TestFaultScripts:
    def test_fault_statements_fire_on_the_simulation_clock(self):
        script = (
            "fault net loss 0.3\n"
            "sleep 100\n"
            "fault machine2 sensor stuck disk 45\n"
        )
        sim = ClusterSimulation(
            policy="freon", trace=short_trace(), fiddle_script=script
        )
        result = sim.run(150)
        times = dict(
            (event, t) for t, event in result.fault_log if "inject" in event
        )
        assert any("loss" in e for e in times)
        assert any("stuck" in e for e in times)
        stuck_time = next(t for e, t in times.items() if "stuck" in e)
        assert stuck_time == pytest.approx(100.0)

    def test_chaos_script_parses_and_runs(self):
        sim = ClusterSimulation(
            policy="freon",
            trace=short_trace(duration=100.0),
            fiddle_script=chaos_script(),
        )
        sim.run(50)  # only the initial loss fault fires this early
        assert len(sim.injector.active) == 1

    def test_sensor_lies_while_records_keep_ground_truth(self):
        script = "fault machine2 sensor stuck disk 45\n"
        sim = ClusterSimulation(
            policy="freon", trace=short_trace(), fiddle_script=script
        )
        result = sim.run(100)
        # The faulted reader sees the frozen value...
        assert sim.service.read_temperature("machine2", "disk") == 45.0
        # ...but the per-tick record tracks the physical temperature.
        recorded = result.records[-1].servers["machine2"].disk_temperature
        assert recorded != 45.0
        assert recorded == pytest.approx(
            sim.service.true_temperature("machine2", "disk")
        )


class TestWatchdog:
    def test_crashed_tempd_is_restarted(self):
        script = "sleep 50\nfault machine1 daemon crash tempd\n"
        sim = ClusterSimulation(
            policy="freon",
            trace=short_trace(),
            fiddle_script=script,
            watchdog_restart_delay=10.0,
        )
        result = sim.run(120)
        assert len(result.restarts) == 1
        event = result.restarts[0]
        assert (event.machine, event.daemon) == ("machine1", "tempd")
        assert 60.0 <= event.time <= 70.0
        assert sim.injector.daemon_up("machine1", "tempd")

    def test_restarted_tempd_keeps_the_wake_grid(self):
        script = "sleep 50\nfault machine1 daemon crash tempd\n"
        sim = ClusterSimulation(
            policy="freon", trace=short_trace(), fiddle_script=script
        )
        sim.run(130)
        # Restart at ~t=60: the kernel keeps one wake event per machine
        # on the monitor-period grid across crashes and restarts, so
        # alignment is structural rather than re-derived from a phase.
        period = sim.config.monitor_period
        wakes = [
            e for e in sim.kernel.pending
            if e.kind == "wake" and e.payload["machine"] == "machine1"
        ]
        assert len(wakes) == 1
        assert wakes[0].time > sim.time
        assert wakes[0].time % period == pytest.approx(0.0, abs=1e-6)
        # The restarted daemon actually woke on the grid after coming back.
        restarted = sim.tempds["machine1"]
        assert sim.injector.daemon_up("machine1", "tempd")
        assert restarted.telemetry is sim.telemetry


    def test_restart_keeps_the_resilience_counts(self):
        # Six conservative wakes (t=60..360, no good read ever), then a
        # crash at 500 s and a restart at 510 s: the tempd's own counts
        # must still agree with its telemetry counters afterwards.
        script = (
            "fault machine1 sensor dropout cpu for 400\n"
            "sleep 500\n"
            "fault machine1 daemon crash tempd\n"
        )
        telemetry = Telemetry()
        sim = ClusterSimulation(
            policy="freon", fiddle_script=script, telemetry=telemetry
        )
        result = sim.run(600)
        assert [(r.time, r.machine) for r in result.restarts] == [
            (510.0, "machine1")
        ]
        tempd = sim.tempds["machine1"]
        registry = telemetry.registry
        labels = {"machine": "machine1"}
        for field, family in (
            ("read_failures", "tempd_read_failures_total"),
            ("stale_wakes", "tempd_stale_wakes_total"),
            ("conservative_wakes", "tempd_conservative_wakes_total"),
        ):
            assert getattr(tempd, field) == registry.counter(
                family, labels
            ).value
        assert tempd.read_failures == tempd.conservative_wakes == 6
        sent = sum(
            registry.counter(
                "tempd_messages_total", {**labels, "type": kind}
            ).value
            for kind in ("adjust", "release", "redline", "status")
        )
        assert tempd.messages_sent == sent > 6


class TestDeterminism:
    def _run(self, seed):
        script = (
            "fault net loss 0.4\n"
            "fault machine2 sensor noise cpu 0.5\n"
            "sleep 60\n"
            "fault machine1 daemon crash tempd\n"
        )
        sim = ClusterSimulation(
            policy="freon",
            trace=short_trace(),
            fiddle_script=script,
            injector=FaultInjector(seed=seed),
        )
        return sim.run(200)

    def test_same_seed_is_bit_identical(self):
        first = self._run(seed=3)
        second = self._run(seed=3)
        assert first.records == second.records
        assert first.fault_log == second.fault_log
        assert first.datagram_stats == second.datagram_stats
        assert first.restarts == second.restarts

    def test_injected_faults_appear_in_result_log(self):
        result = self._run(seed=3)
        injects = [e for _, e in result.fault_log if "inject" in e]
        assert len(injects) == 3


class TestManualInjection:
    def test_programmatic_injection_without_script(self):
        sim = ClusterSimulation(policy="freon", trace=short_trace())
        sim.injector.inject(
            FaultSpec(
                kind=FaultKind.SENSOR_STUCK,
                machine="machine3",
                target="cpu",
                value=20.0,
            )
        )
        sim.run(20)
        assert sim.service.read_temperature("machine3", "cpu") == 20.0
