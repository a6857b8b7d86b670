"""Tests for the runtime fault injector, lossy channel, and watchdog."""

import pytest

from repro.errors import FaultError, SensorError
from repro.faults.injector import (
    DaemonWatchdog,
    FaultInjector,
    LossyChannel,
    REORDER_HOLD,
)
from repro.faults.model import FaultKind, FaultSpec
from repro.faults.schedule import FaultSchedule


def spec(kind, **kwargs):
    return FaultSpec(kind=kind, **kwargs)


class TestClockAndLifecycle:
    def test_scheduled_fault_fires_at_its_time(self):
        schedule = FaultSchedule().at(
            10.0, spec(FaultKind.NET_LOSS, value=0.5)
        )
        injector = FaultInjector(schedule)
        injector.advance_to(9.0)
        assert injector.active == []
        injector.advance_to(10.0)
        assert len(injector.active) == 1

    def test_duration_expires_fault(self):
        schedule = FaultSchedule().at(
            5.0, spec(FaultKind.NET_LOSS, value=0.5, duration=10.0)
        )
        injector = FaultInjector(schedule)
        injector.advance_to(6.0)
        assert len(injector.active) == 1
        injector.advance_to(15.0)
        assert injector.active == []
        assert any("expire" in event for _, event in injector.log)

    def test_inject_and_clear(self):
        injector = FaultInjector()
        injector.inject(spec(FaultKind.NET_LOSS, value=1.0))
        injector.inject(spec(FaultKind.NET_DUP, value=1.0))
        assert injector.clear(FaultKind.NET_LOSS) == 1
        assert len(injector.active) == 1
        assert injector.clear() == 1
        assert injector.active == []

    def test_schedule_before_the_clock_changes_nothing(self):
        crash = spec(FaultKind.DAEMON_CRASH, machine="machine1", target="tempd")
        injector = FaultInjector(FaultSchedule().at(10.0, crash))
        injector.advance_to(20.0)
        pending = list(injector._pending)
        cursor = injector._next
        log = list(injector.log)
        stall = spec(
            FaultKind.MONITORD_STALL, machine="machine2", target="monitord"
        )
        with pytest.raises(FaultError, match="before the injector clock"):
            injector.schedule(5.0, stall)
        assert injector._pending == pending
        assert injector._next == cursor
        assert injector.log == log
        injector.advance_to(30.0)
        assert [e for _, e in injector.log if e.startswith("inject")] == [
            f"inject {crash.describe()}"
        ]

    @pytest.mark.parametrize("delay", [0.0, 5.0])
    def test_fault_scheduled_at_or_after_now_fires_once(self, delay):
        crash = spec(FaultKind.DAEMON_CRASH, machine="machine1", target="tempd")
        injector = FaultInjector(FaultSchedule().at(10.0, crash))
        injector.advance_to(20.0)
        stall = spec(
            FaultKind.MONITORD_STALL, machine="machine2", target="monitord"
        )
        injector.schedule(20.0 + delay, stall)
        for now in (20.0, 25.0, 30.0, 40.0):
            injector.advance_to(now)
        assert [e for _, e in injector.log if e.startswith("inject")] == [
            f"inject {crash.describe()}", f"inject {stall.describe()}"
        ]
        assert not injector.monitord_active("machine2")


class TestSensorHook:
    def test_stuck_freezes_first_value_seen(self):
        injector = FaultInjector()
        injector.inject(
            spec(FaultKind.SENSOR_STUCK, machine="m1", target="cpu")
        )
        assert injector.filter_sensor("m1", "cpu", 50.0) == 50.0
        assert injector.filter_sensor("m1", "cpu", 80.0) == 50.0

    def test_stuck_with_explicit_value(self):
        injector = FaultInjector()
        injector.inject(
            spec(FaultKind.SENSOR_STUCK, machine="m1", target="disk",
                 value=45.0)
        )
        assert injector.filter_sensor("m1", "disk", 60.0) == 45.0

    def test_stuck_matches_case_insensitively(self):
        injector = FaultInjector()
        injector.inject(
            spec(FaultKind.SENSOR_STUCK, machine="m1", target="CPU",
                 value=10.0)
        )
        assert injector.filter_sensor("m1", "cpu", 60.0) == 10.0

    def test_other_sensors_unaffected(self):
        injector = FaultInjector()
        injector.inject(
            spec(FaultKind.SENSOR_STUCK, machine="m1", target="cpu",
                 value=45.0)
        )
        assert injector.filter_sensor("m2", "cpu", 60.0) == 60.0
        assert injector.filter_sensor("m1", "disk", 60.0) == 60.0

    def test_dropout_raises_sensor_error(self):
        injector = FaultInjector()
        injector.inject(
            spec(FaultKind.SENSOR_DROPOUT, machine="m1", target="cpu")
        )
        with pytest.raises(SensorError, match="dropout"):
            injector.filter_sensor("m1", "cpu", 60.0)
        assert injector.sensor_dropped_reads == 1

    def test_spike_offsets_reading(self):
        injector = FaultInjector()
        injector.inject(
            spec(FaultKind.SENSOR_SPIKE, machine="m1", target="cpu",
                 value=7.0)
        )
        assert injector.filter_sensor("m1", "cpu", 60.0) == 67.0

    def test_noise_is_seeded_and_reproducible(self):
        readings = []
        for _ in range(2):
            injector = FaultInjector(seed=42)
            injector.inject(
                spec(FaultKind.SENSOR_NOISE, machine="m1", target="cpu",
                     value=1.0)
            )
            readings.append(
                [injector.filter_sensor("m1", "cpu", 60.0) for _ in range(5)]
            )
        assert readings[0] == readings[1]
        assert len(set(readings[0])) > 1  # it actually perturbs


class TestDaemonHooks:
    def test_crash_and_restart(self):
        injector = FaultInjector()
        injector.advance_to(100.0)
        injector.inject(
            spec(FaultKind.DAEMON_CRASH, machine="m1", target="tempd")
        )
        assert not injector.daemon_up("m1", "tempd")
        assert injector.daemon_up("m2", "tempd")
        assert injector.crashed_daemons() == [("m1", "tempd", 100.0)]
        assert injector.restart_daemon("m1", "tempd")
        assert injector.daemon_up("m1", "tempd")
        assert not injector.restart_daemon("m1", "tempd")

    def test_monitord_stall_and_crash_both_suppress(self):
        injector = FaultInjector()
        assert injector.monitord_active("m1")
        injector.inject(
            spec(FaultKind.MONITORD_STALL, machine="m1", target="monitord",
                 duration=10.0)
        )
        assert not injector.monitord_active("m1")
        assert injector.monitord_active("m2")
        injector.advance_to(20.0)
        assert injector.monitord_active("m1")
        injector.inject(
            spec(FaultKind.DAEMON_CRASH, machine="m1", target="monitord")
        )
        assert not injector.monitord_active("m1")


class TestLossyChannel:
    def test_clean_channel_delivers_in_order(self):
        injector = FaultInjector()
        got = []
        channel = LossyChannel(got.append, injector)
        channel("a")
        channel("b")
        assert channel.flush(0.0) == 2
        assert got == ["a", "b"]
        assert channel.in_flight == 0

    def test_total_loss_drops_everything(self):
        injector = FaultInjector()
        injector.inject(spec(FaultKind.NET_LOSS, value=1.0))
        got = []
        channel = LossyChannel(got.append, injector)
        for i in range(10):
            channel(i)
        channel.flush(100.0)
        assert got == [] and channel.dropped == 10

    def test_partial_loss_is_seeded(self):
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(seed=7)
            injector.inject(spec(FaultKind.NET_LOSS, value=0.5))
            got = []
            channel = LossyChannel(got.append, injector)
            for i in range(20):
                channel(i)
            channel.flush(0.0)
            outcomes.append(tuple(got))
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 20

    def test_duplication_delivers_twice(self):
        injector = FaultInjector()
        injector.inject(spec(FaultKind.NET_DUP, value=1.0))
        got = []
        channel = LossyChannel(got.append, injector)
        channel("x")
        channel.flush(0.0)
        assert got == ["x", "x"] and channel.duplicated == 1

    def test_delay_holds_messages_until_due(self):
        injector = FaultInjector()
        injector.inject(spec(FaultKind.NET_DELAY, value=5.0))
        got = []
        channel = LossyChannel(got.append, injector)
        injector.advance_to(10.0)
        channel("late")
        assert channel.flush(12.0) == 0
        assert channel.in_flight == 1
        assert channel.flush(15.0) == 1
        assert got == ["late"]

    def test_reorder_lets_later_messages_overtake(self):
        injector = FaultInjector()
        injector.inject(spec(FaultKind.NET_REORDER, value=1.0))
        got = []
        channel = LossyChannel(got.append, injector)
        injector.advance_to(0.0)
        channel("first")  # held back by REORDER_HOLD
        injector.clear(FaultKind.NET_REORDER)
        injector.advance_to(1.0)
        channel("second")  # due immediately at t=1.0
        channel.flush(REORDER_HOLD)
        assert got == ["second", "first"]


class TestWatchdog:
    def test_restarts_after_delay(self):
        injector = FaultInjector()
        restarted = []
        watchdog = DaemonWatchdog(
            injector,
            restart=lambda m, d: restarted.append((m, d)),
            check_period=5.0,
            restart_delay=10.0,
        )
        injector.advance_to(100.0)
        injector.inject(
            spec(FaultKind.DAEMON_CRASH, machine="m1", target="tempd")
        )
        now = 100.0
        fired = []
        while now < 120.0:
            now += 1.0
            injector.advance_to(now)
            fired.extend(watchdog.tick(1.0, now))
        assert restarted == [("m1", "tempd")]
        assert len(fired) == 1
        assert fired[0].time >= 110.0
        assert injector.daemon_up("m1", "tempd")

    def test_no_restart_before_delay(self):
        injector = FaultInjector()
        watchdog = DaemonWatchdog(
            injector, restart=lambda m, d: None, check_period=1.0,
            restart_delay=60.0,
        )
        injector.advance_to(0.0)
        injector.inject(
            spec(FaultKind.DAEMON_CRASH, machine="m1", target="tempd")
        )
        for now in range(1, 30):
            watchdog.tick(1.0, float(now))
        assert watchdog.events == []
        assert not injector.daemon_up("m1", "tempd")
