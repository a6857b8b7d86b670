"""Deterministic unit tests for LossyChannel and DaemonWatchdog.

Everything here is seeded: probabilistic fates come from the injector's
single ``random.Random(seed)``, and the deterministic cases pin fault
probabilities to 0 or 1, so every assertion is exact.
"""

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.faults.injector import (
    REORDER_HOLD,
    DaemonWatchdog,
    FaultInjector,
    LossyChannel,
    RestartEvent,
)
from repro.faults.model import FaultKind, FaultSpec


def _channel(seed=0):
    injector = FaultInjector(seed=seed)
    delivered = []
    channel = LossyChannel(delivered.append, injector)
    return injector, channel, delivered


def _net(kind, value, duration=None):
    return FaultSpec(kind=kind, value=value, duration=duration)


# ----------------------------------------------------------------------
# LossyChannel
# ----------------------------------------------------------------------


class TestLossyChannel:
    def test_clean_channel_delivers_in_send_order(self):
        injector, channel, delivered = _channel()
        for i in range(5):
            channel(f"m{i}")
        assert channel.flush(0.0) == 5
        assert delivered == [f"m{i}" for i in range(5)]
        assert channel.in_flight == 0
        assert (channel.sent, channel.delivered) == (5, 5)

    def test_delay_fault_lets_later_datagrams_overtake(self):
        injector, channel, delivered = _channel()
        fault = injector.inject(_net(FaultKind.NET_DELAY, 3.0))
        channel("slow")  # due at t=3
        injector._active.remove(fault)
        channel("fast")  # due at t=0
        assert channel.delayed == 1

        assert channel.flush(0.0) == 1
        assert delivered == ["fast"]
        assert channel.in_flight == 1
        assert channel.flush(2.9) == 0  # still in flight
        assert channel.flush(3.0) == 1
        assert delivered == ["fast", "slow"]

    def test_reorder_fault_holds_back_by_reorder_hold(self):
        injector, channel, delivered = _channel()
        fault = injector.inject(_net(FaultKind.NET_REORDER, 1.0))
        injector.advance_to(0.0)
        channel("held")  # due at REORDER_HOLD
        injector._active.remove(fault)
        injector.advance_to(1.0)
        channel("prompt")  # due at t=1

        assert channel.flush(1.0) == 1
        assert delivered == ["prompt"]
        assert channel.flush(REORDER_HOLD) == 1
        assert delivered == ["prompt", "held"]
        assert channel.delayed == 1

    def test_equal_due_times_deliver_in_send_order(self):
        injector, channel, delivered = _channel()
        injector.inject(_net(FaultKind.NET_DELAY, 2.0))
        channel("first")
        channel("second")  # same clock, same delay: ties broken by seq
        assert channel.flush(2.0) == 2
        assert delivered == ["first", "second"]

    def test_duplication_delivers_two_copies(self):
        injector, channel, delivered = _channel()
        injector.inject(_net(FaultKind.NET_DUP, 1.0))
        channel("msg")
        assert channel.duplicated == 1
        assert channel.in_flight == 2
        assert channel.flush(0.0) == 2
        assert delivered == ["msg", "msg"]

    def test_loss_drops_before_queueing(self):
        injector, channel, delivered = _channel()
        injector.inject(_net(FaultKind.NET_LOSS, 1.0))
        channel("msg")
        assert channel.dropped == 1
        assert channel.in_flight == 0
        assert channel.flush(10.0) == 0
        assert delivered == []
        assert any("datagram dropped" in event for _, event in injector.log)

    def test_probabilistic_fates_reproduce_with_same_seed(self):
        outcomes = []
        for _ in range(2):
            injector, channel, delivered = _channel(seed=42)
            injector.inject(_net(FaultKind.NET_LOSS, 0.3))
            injector.inject(_net(FaultKind.NET_REORDER, 0.4))
            for i in range(50):
                channel(i)
            channel.flush(REORDER_HOLD)
            outcomes.append(
                (channel.dropped, channel.delayed, tuple(delivered))
            )
        assert outcomes[0] == outcomes[1]
        dropped, delayed, delivered = outcomes[0]
        assert dropped > 0 and delayed > 0
        # Held-back datagrams were genuinely overtaken.
        assert list(delivered) != sorted(delivered)


# ----------------------------------------------------------------------
# DaemonWatchdog
# ----------------------------------------------------------------------


def _crash(machine="machine1", daemon="tempd"):
    return FaultSpec(kind=FaultKind.DAEMON_CRASH, machine=machine, target=daemon)


class TestDaemonWatchdog:
    def test_restart_waits_for_delay_and_check_period(self):
        injector = FaultInjector()
        restarts = []
        watchdog = DaemonWatchdog(
            injector,
            restart=lambda m, d: restarts.append((m, d)),
            check_period=5.0,
            restart_delay=10.0,
        )
        injector.inject(_crash())  # down since t=0
        assert not injector.daemon_up("machine1", "tempd")

        fired = []
        for now in range(1, 16):
            fired.extend(watchdog.tick(1.0, float(now)))
        # Checks run at t=5, 10, 15; t=5 is before the restart delay.
        assert fired == [RestartEvent(time=10.0, machine="machine1",
                                      daemon="tempd")]
        assert restarts == [("machine1", "tempd")]
        assert injector.daemon_up("machine1", "tempd")

    def test_no_check_between_periods(self):
        injector = FaultInjector()
        watchdog = DaemonWatchdog(
            injector, restart=lambda m, d: None,
            check_period=5.0, restart_delay=0.0,
        )
        injector.inject(_crash())
        assert watchdog.tick(4.0, 4.0) == []  # elapsed 4 < period 5
        events = watchdog.tick(1.0, 5.0)  # elapsed hits the period
        assert [e.time for e in events] == [5.0]

    def test_zero_delay_restarts_at_first_check(self):
        injector = FaultInjector()
        watchdog = DaemonWatchdog(
            injector, restart=lambda m, d: None,
            check_period=2.0, restart_delay=0.0,
        )
        injector.inject(_crash(daemon="monitord"))
        events = watchdog.tick(2.0, 2.0)
        assert [(e.machine, e.daemon) for e in events] == [
            ("machine1", "monitord")
        ]

    def test_multiple_crashed_daemons_restart_together(self):
        injector = FaultInjector()
        watchdog = DaemonWatchdog(
            injector, restart=lambda m, d: None,
            check_period=5.0, restart_delay=0.0,
        )
        injector.inject(_crash("machine1", "tempd"))
        injector.inject(_crash("machine2", "monitord"))
        events = watchdog.tick(5.0, 5.0)
        assert {(e.machine, e.daemon) for e in events} == {
            ("machine1", "tempd"),
            ("machine2", "monitord"),
        }
        assert injector.crashed_daemons() == []


# ----------------------------------------------------------------------
# restart-phase logic (the ClusterSimulation watchdog hook)
# ----------------------------------------------------------------------


class TestRestartPhase:
    def test_restarted_tempd_stays_on_the_kernel_wake_grid(self):
        sim = ClusterSimulation(policy="freon", fiddle_script=(
            "sleep 480\nfiddle machine1 temperature inlet 38.6\n"
        ))
        machine = sim.machines[0]
        period = sim.config.monitor_period
        sim.run(1200.0)  # machine1 hot and restricted by now
        tempd = sim.tempds[machine]
        assert tempd.restricted[0] and tempd._seen[0]
        wakes_before = [
            e for e in sim.kernel.pending
            if e.kind == "wake" and e.payload["machine"] == machine
        ]

        sim._restart_daemon(machine, "tempd")

        assert sim.tempds[machine] is tempd
        # The wake cadence lives in the kernel, not the daemon: the same
        # grid-aligned wake event still stands after the restart.
        wakes_after = [
            e for e in sim.kernel.pending
            if e.kind == "wake" and e.payload["machine"] == machine
        ]
        assert wakes_after == wakes_before
        assert len(wakes_after) == 1
        assert wakes_after[0].time % period == pytest.approx(0.0)
        # admd's restrictions survive the crash (handed over on reconnect).
        assert tempd.restricted[0]
        # Controller (derivative) state, the last output and the last
        # good reading did not survive.
        assert not tempd._seen[0]
        assert np.isnan(tempd._last_output[0])
        assert np.isnan(tempd._last_good[0])

    def test_restart_ignores_daemons_without_state(self):
        sim = ClusterSimulation(policy="freon")
        sim.run(120.0)
        machine = sim.machines[0]
        before = sim.tempds[machine].checkpoint()
        sim._restart_daemon(machine, "monitord")
        assert sim.tempds[machine].checkpoint() == before

    def test_watchdog_restart_end_to_end(self):
        injector = FaultInjector()
        sim = ClusterSimulation(policy="freon", injector=injector)
        machine = sim.machines[0]
        injector.schedule(30.0, _crash(machine, "tempd"))

        result = sim.run(90.0)

        assert [(r.machine, r.daemon) for r in result.restarts] == [
            (machine, "tempd")
        ]
        restart = result.restarts[0]
        # Watchdog checks every 5 s and waits its 10 s restart delay.
        assert restart.time >= 30.0 + sim.watchdog.restart_delay
        assert injector.daemon_up(machine, "tempd")
