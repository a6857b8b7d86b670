"""Tests for Freon's PD controller, as tempd runs it (section 4.1).

``output_c = max(kp (T_c - T_h) + kd (T_c - T_last), 0)`` for each
component above its high threshold, ``output = max_c output_c``.  The
controller lives in :class:`~repro.daemons.tempd.Tempd`; these tests
read its output off the ADJUST messages of a one-machine tempd.
"""

import pytest

from repro.daemons.tempd import MSG_ADJUST, Tempd
from repro.freon.policy import ComponentThresholds, FreonConfig

from ..fakes import FakeView


def pd(kp=0.1, kd=0.2):
    """A one-machine tempd; returns (wake, readings, last output)."""
    view = FakeView(["m1"])
    config = FreonConfig(
        thresholds={
            "cpu": ComponentThresholds(high=67.0, low=64.0, red=95.0),
            "disk": ComponentThresholds(high=65.0, low=62.0, red=95.0),
        },
        kp=kp,
        kd=kd,
    )
    messages = []
    tempd = Tempd(view, messages.append, config=config)
    readings = view.temperatures["m1"]
    clock = [0.0]

    def wake(cpu=None, disk=None):
        """One wake at these readings; the ADJUST output or None."""
        if cpu is not None:
            readings["cpu"] = cpu
        if disk is not None:
            readings["disk"] = disk
        clock[0] += 60.0
        sent = len(messages)
        tempd.wake(clock[0])
        adjusts = [m for m in messages[sent:] if m.type == MSG_ADJUST]
        return adjusts[0].output if adjusts else None

    return wake


class TestPDController:
    def test_proportional_only_on_first_update(self):
        assert pd()(cpu=70.0) == pytest.approx(0.3)

    def test_derivative_on_rising_temperature(self):
        wake = pd()
        wake(cpu=68.0)
        # kp*(70-67) + kd*(70-68)
        assert wake(cpu=70.0) == pytest.approx(0.7)

    def test_falling_temperature_damps_output(self):
        wake = pd()
        wake(cpu=72.0)
        # kp*(68-67) + kd*(68-72) = 0.1 - 0.8 -> clamped at 0.
        assert wake(cpu=68.0) == 0.0

    def test_output_never_negative(self):
        wake = pd()
        wake(cpu=80.0)
        assert wake(cpu=67.5) == 0.0

    def test_observe_feeds_derivative_without_output(self):
        wake = pd()
        assert wake(cpu=66.0) is None  # below T_h: observed only
        assert wake(cpu=70.0) == pytest.approx(0.3 + 0.2 * 4.0)

    def test_reset_clears_state(self):
        wake = pd()
        wake(cpu=70.0)
        assert wake(cpu=60.0) is None  # release resets the controller
        assert wake(cpu=70.0) == pytest.approx(0.3)

    def test_paper_gains_are_default(self):
        config = FreonConfig()
        assert config.kp == 0.1
        assert config.kd == 0.2


class TestControllerBank:
    def test_max_across_components(self):
        # cpu: 0.1*3 = 0.3; disk: 0.1*1 = 0.1.
        assert pd()(cpu=70.0, disk=66.0) == pytest.approx(0.3)

    def test_cool_components_contribute_zero(self):
        assert pd()(cpu=60.0, disk=55.0) is None

    def test_observation_keeps_derivative_fresh(self):
        wake = pd()
        wake(cpu=66.0)  # observes only
        # kp*2 + kd*(69-66)
        assert wake(cpu=69.0) == pytest.approx(0.2 + 0.6)

    def test_per_component_state_isolated(self):
        wake = pd()
        wake(cpu=70.0, disk=50.0)
        # disk first crossing, last seen at 50: 0.1*1 + 0.2*16 = 3.3,
        # above cpu's 0.3.
        assert wake(cpu=70.0, disk=66.0) == pytest.approx(3.3)

    def test_reset_all(self):
        wake = pd()
        wake(cpu=70.0, disk=66.0)
        wake(cpu=60.0, disk=55.0)  # release: every controller resets
        assert wake(cpu=70.0, disk=66.0) == pytest.approx(0.3)

    def test_custom_gains_propagate(self):
        assert pd(kp=1.0, kd=0.0)(cpu=70.0) == pytest.approx(3.0)
