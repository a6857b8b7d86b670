"""Kernel-equivalence regressions.

Two guarantees pin the event-kernel refactor:

* the stored golden traces (generated by the original monolithic tick
  loop) are reproduced byte-identically — in legacy mode by
  construction (``tests/golden`` asserts that), and in *event* mode
  over the quiescent Figure 11 window, where real datagram latency has
  nothing to reorder;
* daemon wake-ups sit on the exact monitor-period grid for any ``dt``,
  including non-integer steps where the old float-modulo / accumulated
  elapsed-time arithmetic drifted (0.3 s ticks accumulate to
  59.9999999999998, so the old loop fired the 60 s wake one tick late
  and the error compounded every period).
"""

import json

import pytest

from repro.cluster.simulation import (
    ClusterSimulation,
    IDLE_QUIET_TICKS,
    emergency_script,
)
from repro.cluster.tracegen import RequestTrace, TracePoint
from repro.daemons.tempd import Tempd
from repro.errors import ClusterError
from repro.freon.policy import ComponentThresholds, FreonConfig

from ..golden.traces import GOLDEN_DIR, TOLERANCE


def flat_trace(rate=40.0, duration=2000.0):
    return RequestTrace([TracePoint(0.0, rate), TracePoint(duration, rate)])


def touchy_config():
    """Thresholds below normal operating temperature: tempd sends an
    ADJUST on every wake, so datagram paths exercise quickly."""
    return FreonConfig(
        thresholds={
            "cpu": ComponentThresholds(high=26.0, low=24.0, red=95.0),
            "disk": ComponentThresholds(high=26.0, low=24.0, red=95.0),
        }
    )


class TestGoldenEquivalence:
    def _stored_fig11(self):
        return json.loads((GOLDEN_DIR / "fig11_first120s.json").read_text())

    @pytest.mark.parametrize("mode", ["legacy", "event"])
    def test_fig11_window_matches_stored_golden(self, mode):
        stored = self._stored_fig11()
        sim = ClusterSimulation(
            policy="freon", fiddle_script=emergency_script(), mode=mode,
        )
        result = sim.run(120.0)
        assert result.times() == stored["times"]
        for machine in sim.machines:
            actual = result.series(machine, "cpu_temperature")
            expected = stored["series"][machine]
            assert len(actual) == len(expected)
            for tick, (a, e) in enumerate(zip(actual, expected)):
                assert abs(a - e) <= TOLERANCE, (
                    f"mode {mode!r} diverges from the golden trace at "
                    f"{machine} tick {tick}: {a!r} != {e!r}"
                )

    def test_fast_forward_off_the_window_is_identity(self):
        # FF never coasts while the emergency script keeps inputs moving,
        # but even on a quiet window it must not change recorded output.
        stored = self._stored_fig11()
        sim = ClusterSimulation(
            policy="freon", fiddle_script=emergency_script(),
            idle_fast_forward=True,
        )
        result = sim.run(120.0)
        for machine in sim.machines:
            actual = result.series(machine, "cpu_temperature")
            for a, e in zip(actual, stored["series"][machine]):
                assert abs(a - e) <= 1e-6


class TestWakeGrid:
    def _wakes(self, monkeypatch, dt, duration):
        wakes = []
        original = Tempd.wake

        def spy(self, now):
            wakes.append((self.machines, now))
            return original(self, now)

        monkeypatch.setattr(Tempd, "wake", spy)
        sim = ClusterSimulation(
            policy="freon", dt=dt, trace=flat_trace(),
        )
        sim.run(duration)
        return sim, wakes

    def test_integer_dt_wakes_on_the_minute(self, monkeypatch):
        sim, wakes = self._wakes(monkeypatch, dt=1.0, duration=310.0)
        times = sorted({t for _, t in wakes})
        assert times == [60.0, 120.0, 180.0, 240.0, 300.0]
        assert len(wakes) == 5 * len(sim.machines)

    def test_non_integer_dt_wakes_do_not_drift(self, monkeypatch):
        # Regression for the float-modulo period arithmetic: with
        # dt=0.3 the accumulated tick clock passes 60.0 between ticks,
        # and the old elapsed-time counters fired late and drifted
        # further each period.  Kernel wakes are absolute-time events,
        # so every wake lands exactly on the 60 s grid.
        sim, wakes = self._wakes(monkeypatch, dt=0.3, duration=310.0)
        times = sorted({t for _, t in wakes})
        assert times == [60.0, 120.0, 180.0, 240.0, 300.0]
        assert len(wakes) == 5 * len(sim.machines)

    def test_non_integer_dt_ec_evaluations_do_not_drift(self):
        sim = ClusterSimulation(policy="freon-ec", dt=0.3, trace=flat_trace())
        sim.run(190.0)
        times = sorted({e.time for e in sim.admd.events})
        assert times  # the first evaluation emits region events
        assert all(t % 60.0 == 0.0 for t in times)


class TestConstructorValidation:
    def test_rejects_non_positive_dt(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ClusterError, match="dt must be positive"):
                ClusterSimulation(dt=bad)

    def test_rejects_monitor_period_shorter_than_a_tick(self):
        from repro.freon.policy import FreonConfig

        config = FreonConfig(monitor_period=0.5)
        with pytest.raises(ClusterError, match="monitor_period"):
            ClusterSimulation(freon_config=config, dt=1.0)

    def test_rejects_non_positive_sample_period(self):
        with pytest.raises(ClusterError, match="telemetry_sample_period"):
            ClusterSimulation(telemetry_sample_period=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ClusterError, match="unknown mode"):
            ClusterSimulation(mode="turbo")

    def test_rejects_negative_datagram_latency(self):
        with pytest.raises(ClusterError, match="datagram_latency"):
            ClusterSimulation(datagram_latency=-0.1)


class TestEventMode:
    def test_datagrams_ride_their_own_events(self):
        sim = ClusterSimulation(
            policy="freon", mode="event", trace=flat_trace(rate=160.0),
            freon_config=touchy_config(),
        )
        sim.run(200.0)
        stats = sim.channel
        assert stats.sent > 0
        assert stats.delivered == stats.sent  # no faults: all arrive
        # Latency is sub-tick: nothing is still in flight at a tick edge.
        assert stats.next_due() is None

    def test_event_mode_checkpoint_round_trips_through_json(self):
        def build():
            return ClusterSimulation(
                policy="freon", mode="event", trace=flat_trace(rate=160.0),
                freon_config=touchy_config(),
            )

        reference = build()
        reference.run(400.0)

        paused = build()
        paused.run(90.0)  # mid-monitor-period
        snapshot = json.loads(json.dumps(paused.checkpoint()))
        resumed = build()
        resumed.apply_checkpoint(snapshot)
        resumed.run(310.0)

        ref = reference.result()
        res = resumed.result()
        assert res.times() == ref.times()
        for machine in reference.machines:
            assert res.series(machine, "cpu_temperature") == ref.series(
                machine, "cpu_temperature"
            )
        assert res.adjustments == ref.adjustments


class TestIdleFastForward:
    def test_quiet_run_coasts_and_matches_temperatures(self):
        # The cluster's thermal time constant is long, so a loosened
        # epsilon engages coasting within the test budget; the residual
        # transient it freezes is bounded by ~450 * epsilon degrees.
        def build(ff):
            return ClusterSimulation(
                policy="none", trace=flat_trace(rate=40.0),
                idle_fast_forward=ff, idle_epsilon=5e-3,
            )

        slow = build(False)
        slow.run(900.0)
        fast = build(True)
        fast.run(900.0)

        assert fast.solver.coasted_ticks > 0
        for machine in slow.machines:
            a = slow.solver.machine(machine).temperatures
            b = fast.solver.machine(machine).temperatures
            for node in a:
                assert abs(a[node] - b[node]) <= 450 * 5e-3

    def test_coasting_holds_temperatures_exactly(self):
        sim = ClusterSimulation(
            policy="none", trace=flat_trace(rate=40.0),
            idle_fast_forward=True, idle_epsilon=5e-2,
        )
        sim.run(200.0)
        assert sim._ff_coasting
        frozen = {
            n: dict(sim.solver.machine(n).temperatures) for n in sim.machines
        }
        coasts_before = sim.solver.coasted_ticks
        sim.run(100.0)
        assert sim.solver.coasted_ticks == coasts_before + 100
        for n in sim.machines:
            assert sim.solver.machine(n).temperatures == frozen[n]

    def test_input_change_exits_coasting(self):
        script = "sleep 600\nfiddle machine1 temperature inlet 38.6\n"
        sim = ClusterSimulation(
            policy="none", trace=flat_trace(rate=40.0),
            fiddle_script=script, idle_fast_forward=True, idle_epsilon=5e-2,
        )
        sim.run(700.0)
        assert sim.solver.coasted_ticks > 0
        assert not sim._ff_coasting  # the fiddle command re-dirtied it
        # The emergency is visible in the record: temps moved after 600 s.
        late = [
            r.servers["machine1"].cpu_temperature
            for r in sim.records if r.time >= 600.0
        ]
        assert max(late) - min(late) > 0.5

    def test_quiet_threshold_respected(self):
        sim = ClusterSimulation(
            policy="none", trace=flat_trace(rate=40.0),
            idle_fast_forward=True,
        )
        for _ in range(IDLE_QUIET_TICKS + 1):
            sim.step()
        # Too early to coast: the field is still converging.
        assert not sim._ff_coasting

    def test_checkpoint_preserves_coasting_state(self):
        def build():
            return ClusterSimulation(
                policy="none", trace=flat_trace(rate=40.0),
                idle_fast_forward=True, idle_epsilon=5e-2,
            )

        paused = build()
        paused.run(250.0)
        assert paused._ff_coasting
        snapshot = json.loads(json.dumps(paused.checkpoint()))
        resumed = build()
        resumed.apply_checkpoint(snapshot)
        assert resumed._ff_coasting
        resumed.run(50.0)
        reference = build()
        reference.run(300.0)
        assert resumed.solver.coasted_ticks > 0
        for n in reference.machines:
            assert (
                resumed.solver.machine(n).temperatures
                == reference.solver.machine(n).temperatures
            )
