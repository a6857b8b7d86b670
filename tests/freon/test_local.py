"""Tests for the CPU-local DVFS thermal governor (section 4.3)."""

import pytest

from repro.errors import ClusterError, SensorError
from repro.freon.local import DEFAULT_PSTATES, DvfsGovernor


class Harness:
    def __init__(self, temperature=50.0):
        self.temperature = temperature
        self.applied = []
        self.dropout = False

    def read(self):
        if self.dropout:
            raise SensorError("injected dropout")
        return self.temperature

    def apply(self, frequency, power):
        self.applied.append((frequency, power))


def make(temperature=50.0, **kwargs):
    harness = Harness(temperature)
    governor = DvfsGovernor(harness.read, harness.apply, **kwargs)
    return harness, governor


class TestConstruction:
    def test_defaults(self):
        _, governor = make()
        assert governor.frequency_ratio == 1.0
        assert governor.power_ratio == 1.0
        assert not governor.throttled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pstates": []},
            {"pstates": [(1.0, 1.0), (1.0, 0.9)]},    # frequency not falling
            {"pstates": [(1.0, 1.0), (0.8, 1.0)]},    # power not falling
            {"high": 60.0, "low": 65.0},
            {"period": 0.0},
        ],
    )
    def test_invalid_args(self, kwargs):
        harness = Harness()
        with pytest.raises(ClusterError):
            DvfsGovernor(harness.read, harness.apply, **kwargs)


class TestThermostat:
    def test_steps_down_when_hot(self):
        harness, governor = make(temperature=70.0)
        assert governor.decide() is True
        assert governor.index == 1
        assert harness.applied == [DEFAULT_PSTATES[1]]

    def test_one_step_per_decision(self):
        harness, governor = make(temperature=90.0)
        governor.decide()
        governor.decide()
        assert governor.index == 2  # not slammed to the bottom at once

    def test_clamps_at_lowest_pstate(self):
        harness, governor = make(temperature=90.0)
        for _ in range(10):
            governor.decide()
        assert governor.index == len(DEFAULT_PSTATES) - 1

    def test_steps_back_up_when_cool(self):
        harness, governor = make(temperature=70.0)
        governor.decide()
        harness.temperature = 60.0
        assert governor.decide() is True
        assert governor.index == 0
        assert harness.applied[-1] == DEFAULT_PSTATES[0]

    def test_hysteresis_band_is_quiet(self):
        harness, governor = make(temperature=70.0)
        governor.decide()
        harness.temperature = 65.5  # between low (64) and high (67)
        assert governor.decide() is False
        assert governor.index == 1

    def test_never_above_top_pstate(self):
        harness, governor = make(temperature=50.0)
        assert governor.decide() is False
        assert governor.index == 0

    def test_failed_read_holds_pstate(self):
        harness, governor = make(temperature=70.0)
        governor.decide()
        harness.dropout = True
        harness.temperature = 90.0
        assert governor.decide() is False
        assert governor.index == 1
        harness.dropout = False
        assert governor.decide() is True
        assert governor.index == 2

    def test_changes_recorded(self):
        harness, governor = make(temperature=70.0)
        governor.decide()
        change = governor.changes[0]
        assert change.index == 1
        assert change.temperature == 70.0
        assert change.frequency_ratio == DEFAULT_PSTATES[1][0]


class TestTickCadence:
    def test_respects_period(self):
        harness, governor = make(temperature=70.0, period=5.0)
        for _ in range(4):
            assert governor.tick(1.0) is False
        assert governor.tick(1.0) is True

    def test_throttled_property(self):
        harness, governor = make(temperature=70.0)
        governor.decide()
        assert governor.throttled
