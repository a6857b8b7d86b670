"""Tests for the tempd temperature daemon's policy behaviour."""

import numpy as np
import pytest

from repro.control.view import POWER_ACTIVE, POWER_OFF
from repro.daemons.tempd import (
    MSG_ADJUST,
    MSG_REDLINE,
    MSG_RELEASE,
    MSG_STATUS,
    Tempd,
)
from repro.freon.policy import ComponentThresholds, FreonConfig

from ..fakes import FakeView


def make_config(period=60.0):
    return FreonConfig(
        thresholds={
            "cpu": ComponentThresholds(high=67.0, low=64.0, red=69.0),
            "disk": ComponentThresholds(high=65.0, low=62.0, red=67.0),
        },
        monitor_period=period,
    )


class Sensor:
    """m1's readings, set as attributes."""

    def __init__(self, view):
        self._readings = view.temperatures["m1"]

    def __setattr__(self, name, value):
        if name.startswith("_"):
            super().__setattr__(name, value)
        else:
            self._readings[name] = value


@pytest.fixture
def harness():
    view = FakeView(["m1"])
    messages = []
    daemon = Tempd(view, messages.append, config=make_config())
    return Sensor(view), messages, daemon


class TestQuietOperation:
    def test_no_messages_below_thresholds(self, harness):
        sensor, messages, daemon = harness
        daemon.wake(60.0)
        assert messages == []
        assert not daemon.restricted[0]

    def test_no_release_without_prior_restriction(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 50.0  # below low threshold
        daemon.wake(60.0)
        assert messages == []


class TestAdjustPath:
    def test_adjust_sent_above_high(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        assert len(messages) == 1
        msg = messages[0]
        assert msg.type == MSG_ADJUST
        assert msg.machine == "m1"
        # First observation: derivative contributes nothing; kp*(68.5-67).
        assert msg.output == pytest.approx(0.15)

    def test_derivative_term_on_second_wake(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.0
        daemon.wake(60.0)
        sensor.cpu = 68.8
        daemon.wake(120.0)
        # kp*(68.8-67) + kd*(68.8-68.0) = 0.18 + 0.16
        assert messages[1].output == pytest.approx(0.34)

    def test_repeated_while_hot(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        for i in range(3):
            daemon.wake(60.0 * (i + 1))
        assert [m.type for m in messages] == [MSG_ADJUST] * 3

    def test_max_over_components(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.0   # output 0.1
        sensor.disk = 66.5  # output 0.15 over its own 65 threshold
        daemon.wake(60.0)
        assert messages[0].output == pytest.approx(0.15)
        sensor.disk = 65.5  # disk still hot but cooling: cpu's 0.1 wins
        daemon.wake(120.0)
        assert messages[1].output == pytest.approx(0.1)

    def test_between_thresholds_is_silent(self, harness):
        # "For temperatures between T_h and T_l, Freon does not adjust
        # the load distribution as there is no communication".
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        sensor.cpu = 65.5  # between low (64) and high (67)
        daemon.wake(120.0)
        assert [m.type for m in messages] == [MSG_ADJUST]
        assert daemon.restricted[0]


class TestReleasePath:
    def test_release_when_all_below_low(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        sensor.cpu = 63.0
        daemon.wake(120.0)
        assert [m.type for m in messages] == [MSG_ADJUST, MSG_RELEASE]
        assert not daemon.restricted[0]

    def test_release_requires_all_components_cool(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        sensor.cpu = 63.0
        sensor.disk = 63.0  # still above the disk low threshold (62)
        daemon.wake(120.0)
        assert [m.type for m in messages] == [MSG_ADJUST]

    def test_release_sent_once(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 68.5
        daemon.wake(60.0)
        sensor.cpu = 60.0
        daemon.wake(120.0)
        daemon.wake(180.0)
        assert [m.type for m in messages] == [MSG_ADJUST, MSG_RELEASE]


class TestRedline:
    def test_redline_message(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 69.5
        daemon.wake(60.0)
        types = [m.type for m in messages]
        assert types == [MSG_REDLINE, MSG_ADJUST]  # still above high too

    def test_redline_carries_temperatures(self, harness):
        sensor, messages, daemon = harness
        sensor.cpu = 70.0
        sensor.disk = 68.0
        daemon.wake(60.0)
        red = [m for m in messages if m.type == MSG_REDLINE][0]
        assert red.temperatures == {"cpu": 70.0, "disk": 68.0}


class TestStatusMode:
    def test_status_sent_with_utilization_reader(self):
        view = FakeView(["m1"])
        view.utilizations["m1"] = {"cpu": 0.42, "disk": 0.1}
        messages = []
        daemon = Tempd(view, messages.append, config=make_config(),
                       status=True)
        daemon.wake(60.0)
        assert [m.type for m in messages] == [MSG_STATUS]
        assert messages[0].utilizations == {"cpu": 0.42, "disk": 0.1}


class TestRows:
    """One tempd over several rows runs every row's state machine."""

    def test_rows_decide_independently_in_row_order(self):
        view = FakeView()
        view.temperatures["m2"]["cpu"] = 68.5
        view.temperatures["m4"]["cpu"] = 69.5
        messages = []
        daemon = Tempd(view, messages.append, config=make_config())
        assert daemon.wake(60.0) == 4
        assert [(m.machine, m.type) for m in messages] == [
            ("m2", MSG_ADJUST), ("m4", MSG_REDLINE), ("m4", MSG_ADJUST),
        ]
        assert daemon.restricted.tolist() == [False, True, False, True]

    def test_a_subset_of_rows_reads_only_its_machines(self):
        view = FakeView()
        view.temperatures["m1"]["cpu"] = 68.5
        view.temperatures["m3"]["cpu"] = 68.5
        messages = []
        daemon = Tempd(view, messages.append, config=make_config(),
                       rows=(2,))
        assert daemon.machines == ("m3",)
        daemon.wake(60.0)
        assert view.reads == 1
        assert [m.machine for m in messages] == ["m3"]

    def test_off_and_crashed_rows_skip_the_wake(self):
        view = FakeView(off=("m2",))
        view.down.add("m3")
        for machine in view.machines:
            view.temperatures[machine]["cpu"] = 68.5
        messages = []
        daemon = Tempd(view, messages.append, config=make_config())
        assert daemon.wake(60.0) == 2
        assert view.reads == 2
        assert [m.machine for m in messages] == ["m1", "m4"]

    def test_finished_reboot_clears_the_restriction(self):
        view = FakeView(["m1"])
        view.temperatures["m1"]["cpu"] = 68.5
        daemon = Tempd(view, lambda m: None, config=make_config())
        daemon.wake(60.0)
        assert daemon.restricted[0]
        view.power["m1"] = POWER_OFF  # no wake: the restriction stays
        assert daemon.wake(120.0) == 0
        assert daemon.restricted[0]
        view.power["m1"] = POWER_ACTIVE  # booted again
        view.temperatures["m1"]["cpu"] = 65.5
        daemon.wake(180.0)
        assert not daemon.restricted[0]

    def test_checkpoint_round_trips(self):
        view = FakeView()
        view.temperatures["m2"]["cpu"] = 68.5
        daemon = Tempd(view, lambda m: None, config=make_config())
        daemon.wake(60.0)
        copy = Tempd(view, lambda m: None, config=make_config())
        copy.restore(daemon.checkpoint())
        assert copy.checkpoint() == daemon.checkpoint()
        assert np.isnan(copy._last_output[0])
