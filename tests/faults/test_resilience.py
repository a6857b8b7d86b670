"""Resilience behaviour under injected faults.

Covers tempd's last-known-good / conservative-throttle policy when its
sensor reads fail, monitord's stall handling, and the SensorService
fault hook (observed vs. ground-truth temperatures).
"""

import pytest

from repro.config import table1
from repro.core.solver import Solver
from repro.daemons.monitord import Monitord
from repro.daemons.tempd import MSG_ADJUST, Tempd
from repro.errors import SensorError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind, FaultSpec
from repro.freon.policy import ComponentThresholds, FreonConfig
from repro.machine.server import SimulatedServer
from repro.machine.workloads import ConstantWorkload
from repro.sensors.server import SensorService

from ..fakes import FakeView


def make_config(**overrides):
    defaults = dict(
        thresholds={
            "cpu": ComponentThresholds(high=67.0, low=64.0, red=69.0),
            "disk": ComponentThresholds(high=65.0, low=62.0, red=67.0),
        },
        monitor_period=60.0,
        sensor_staleness_limit=180.0,
    )
    defaults.update(overrides)
    return FreonConfig(**defaults)


class FlakySensor:
    """m1's sensor on a fake view, told to fail on demand."""

    def __init__(self, view):
        self._view = view

    @property
    def failing(self):
        return "m1" in self._view.failing

    @failing.setter
    def failing(self, value):
        (self._view.failing.add if value else self._view.failing.discard)(
            "m1"
        )

    @property
    def cpu(self):
        return self._view.temperatures["m1"]["cpu"]

    @cpu.setter
    def cpu(self, value):
        self._view.temperatures["m1"]["cpu"] = value


@pytest.fixture
def harness():
    view = FakeView(["m1"])
    messages = []
    daemon = Tempd(view, messages.append, config=make_config())
    return FlakySensor(view), messages, daemon


class TestTempdLastKnownGood:
    def test_quiet_failure_within_limit_sends_nothing(self, harness):
        sensor, messages, daemon = harness
        daemon.wake(60.0)  # good read, below thresholds
        sensor.failing = True
        daemon.wake(120.0)
        assert messages == []
        assert daemon.read_failures == 1
        assert daemon.stale_wakes == 1
        assert not daemon.restricted[0]

    def test_restricted_failure_holds_last_pd_output(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        assert messages[-1].type == MSG_ADJUST
        held = messages[-1].output
        sensor.failing = True
        daemon.wake(120.0)
        assert messages[-1].type == MSG_ADJUST
        assert messages[-1].output == held
        assert messages[-1].temperatures == {"cpu": 68.5, "disk": 40.0}
        assert daemon.restricted[0]
        assert daemon.stale_wakes == 1

    def test_past_staleness_limit_fails_conservative(self, harness):
        sensor, messages, daemon = harness
        daemon.wake(60.0)  # last good at t=60
        sensor.failing = True
        daemon.wake(120.0)
        daemon.wake(180.0)
        daemon.wake(240.0)  # still within 180s of t=60
        assert messages == []
        daemon.wake(300.0)  # 240s stale: past the limit
        assert len(messages) == 1
        msg = messages[0]
        assert msg.type == MSG_ADJUST
        assert msg.output == daemon.config.conservative_output
        assert daemon.restricted[0]
        assert daemon.conservative_wakes == 1
        assert daemon.stale_wakes == 3

    def test_no_good_reading_ever_is_immediately_conservative(self, harness):
        sensor, messages, daemon = harness
        sensor.failing = True
        daemon.wake(60.0)
        assert len(messages) == 1
        assert messages[0].type == MSG_ADJUST
        assert messages[0].output == daemon.config.conservative_output
        assert messages[0].temperatures == {}
        assert daemon.conservative_wakes == 1

    def test_recovery_resumes_normal_policy(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        sensor.failing = True
        daemon.wake(120.0)
        sensor.failing = False
        sensor.cpu = 50.0
        daemon.wake(180.0)
        daemon.wake(240.0)
        # Cooled below every low threshold: the restriction lifts.
        assert messages[-1].type == "release"
        assert not daemon.restricted[0]

    def test_kernel_wake_events_keep_restarted_daemon_on_the_grid(self):
        # The event kernel owns the wake cadence: one grid-aligned wake
        # event per machine survives a daemon restart, so a replacement
        # daemon (built mid-period, t=1070 here) wakes on the 60 s grid
        # without any phase bookkeeping of its own.
        from repro.kernel import EventKernel

        wakes = []
        kernel = EventKernel()
        kernel.clock.advance(1070.0)

        daemon = Tempd(FakeView(["m1"]), lambda m: None, config=make_config())

        def on_wake(event):
            wakes.append(event.time)
            daemon.wake(event.time)
            kernel.schedule(event.time + 60.0, 20, "wake")

        kernel.register("wake", on_wake)
        kernel.schedule(1080.0, 20, "wake")  # next grid point after 1070
        while kernel.peek() is not None and kernel.peek().time < 1300.0:
            kernel.run_next()
        assert wakes == [1080.0, 1140.0, 1200.0, 1260.0]


class TestMonitordStall:
    @pytest.fixture
    def stack(self, layout):
        solver = Solver([layout], record=False)
        service = SensorService(solver, aliases=table1.sensor_map())
        server = SimulatedServer(
            layout,
            workload=ConstantWorkload(
                {table1.CPU: 0.6, table1.DISK_PLATTERS: 0.3}
            ),
            seed=9,
        )
        return server, service

    def test_stall_suppresses_updates_then_recovers(self, stack):
        server, service = stack
        injector = FaultInjector()
        daemon = Monitord("machine1", server, service, injector=injector)
        server.step(1.0)
        assert daemon.tick(1.0) is not None
        injector.inject(
            FaultSpec(
                kind=FaultKind.MONITORD_STALL,
                machine="machine1",
                target="monitord",
                duration=3.0,
            )
        )
        injector.advance_to(1.0)
        assert daemon.tick(1.0) is None
        assert daemon.updates_stalled == 1
        injector.advance_to(5.0)  # fault expired
        # Elapsed time accumulated during the stall: sends immediately.
        assert daemon.tick(1.0) is not None
        assert daemon.updates_sent == 2

    def test_crash_also_suppresses_monitord(self, stack):
        server, service = stack
        injector = FaultInjector()
        daemon = Monitord("machine1", server, service, injector=injector)
        injector.inject(
            FaultSpec(
                kind=FaultKind.DAEMON_CRASH,
                machine="machine1",
                target="monitord",
            )
        )
        server.step(1.0)
        assert daemon.tick(1.0) is None
        assert daemon.updates_stalled == 1


class TestSensorServiceHook:
    @pytest.fixture
    def service(self, layout):
        solver = Solver([layout], record=False)
        injector = FaultInjector()
        return (
            SensorService(
                solver, aliases=table1.sensor_map(), injector=injector
            ),
            injector,
        )

    def test_stuck_fault_lies_while_truth_is_visible(self, service):
        service, injector = service
        injector.inject(
            FaultSpec(
                kind=FaultKind.SENSOR_STUCK,
                machine="machine1",
                target="disk",
                value=45.0,
            )
        )
        assert service.read_temperature("machine1", "disk") == 45.0
        assert service.true_temperature("machine1", "disk") == pytest.approx(
            table1.INLET_TEMPERATURE
        )

    def test_dropout_raises_through_the_service(self, service):
        service, injector = service
        injector.inject(
            FaultSpec(
                kind=FaultKind.SENSOR_DROPOUT,
                machine="machine1",
                target="cpu",
            )
        )
        with pytest.raises(SensorError):
            service.read_temperature("machine1", "cpu")
        assert service.read_temperature("machine1", "disk") > 0.0
