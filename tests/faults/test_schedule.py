"""Tests for fault schedules and the ``fault`` script statement."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FaultError, FiddleError
from repro.faults.model import FaultKind, FaultSpec
from repro.faults.schedule import (
    FaultSchedule,
    ScheduledFault,
    format_fault_command,
    is_fault_command,
    parse_fault_command,
)
from repro.fiddle.script import parse_script, to_events, write_script


class TestParseFaultCommand:
    def test_sensor_stuck_with_value_and_duration(self):
        spec = parse_fault_command("fault machine2 sensor stuck disk 45 for 600")
        assert spec.kind is FaultKind.SENSOR_STUCK
        assert spec.machine == "machine2" and spec.target == "disk"
        assert spec.value == 45.0 and spec.duration == 600.0

    def test_sensor_stuck_without_value_freezes_current(self):
        spec = parse_fault_command("fault m1 sensor stuck cpu")
        assert spec.value is None and spec.duration is None

    def test_sensor_dropout_rejects_value(self):
        parse_fault_command("fault m1 sensor dropout cpu for 60")
        with pytest.raises(FaultError):
            parse_fault_command("fault m1 sensor dropout cpu 3")

    def test_sensor_spike_and_noise(self):
        spike = parse_fault_command("fault m1 sensor spike cpu 5.5")
        assert spike.kind is FaultKind.SENSOR_SPIKE and spike.value == 5.5
        noise = parse_fault_command("fault m1 sensor noise disk 0.4 for 30")
        assert noise.kind is FaultKind.SENSOR_NOISE and noise.duration == 30.0

    def test_network_faults(self):
        loss = parse_fault_command("fault net loss 0.05")
        assert loss.kind is FaultKind.NET_LOSS and loss.machine is None
        dup = parse_fault_command("fault net dup 0.1 for 120")
        assert dup.kind is FaultKind.NET_DUP and dup.duration == 120.0
        reorder = parse_fault_command("fault net reorder 0.2")
        assert reorder.kind is FaultKind.NET_REORDER
        delay = parse_fault_command("fault net delay 2.5")
        assert delay.kind is FaultKind.NET_DELAY and delay.value == 2.5

    def test_daemon_crash_and_stall(self):
        crash = parse_fault_command("fault m3 daemon crash tempd")
        assert crash.kind is FaultKind.DAEMON_CRASH and crash.target == "tempd"
        stall = parse_fault_command("fault m3 monitord stall for 30")
        assert stall.kind is FaultKind.MONITORD_STALL and stall.duration == 30.0

    def test_leading_fault_word_optional(self):
        assert parse_fault_command("net loss 0.1").kind is FaultKind.NET_LOSS

    def test_quoted_machine_names(self):
        spec = parse_fault_command('fault "rack 1 node" sensor stuck cpu')
        assert spec.machine == "rack 1 node"

    @pytest.mark.parametrize(
        "line",
        [
            "fault",
            "fault m1",
            "fault m1 sensor",
            "fault m1 sensor melt cpu",
            "fault net loss",
            "fault net loss 0.05 0.06",
            "fault net teleport 0.5",
            "fault m1 daemon crash",
            "fault m1 daemon restart tempd",
            "fault m1 monitord crash",
            "fault m1 sensor stuck cpu 1 2",
            "fault m1 sensor stuck cpu for",
            "fault m1 sensor stuck cpu for 10 20",
            "fault m1 sensor spike cpu abc",
            "fault net delay nan",
            "fault net loss inf",
            "fault m1 sensor spike cpu nan",
            "fault m1 sensor stuck cpu 45 for inf",
        ],
    )
    def test_malformed_commands_rejected(self, line):
        with pytest.raises(FaultError):
            parse_fault_command(line)


class TestFormatRoundTrip:
    CASES = [
        "fault machine2 sensor stuck disk 45 for 600",
        "fault m1 sensor stuck cpu",
        "fault m1 sensor dropout cpu for 60",
        "fault m1 sensor spike cpu 5.5",
        "fault m1 sensor noise disk 0.4 for 30",
        "fault net loss 0.05",
        "fault net dup 0.1 for 120",
        "fault net delay 2.5",
        "fault m3 daemon crash tempd",
        "fault m3 monitord stall for 30",
    ]

    @pytest.mark.parametrize("line", CASES)
    def test_parse_format_parse_is_identity(self, line):
        spec = parse_fault_command(line)
        assert parse_fault_command(format_fault_command(spec)) == spec

    @given(
        value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        duration=st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=1e6,
                                 allow_nan=False)
        ),
    )
    def test_round_trip_property(self, value, duration):
        spec = FaultSpec(kind=FaultKind.NET_LOSS, value=value,
                         duration=duration)
        assert parse_fault_command(format_fault_command(spec)) == spec

    def test_is_fault_command(self):
        assert is_fault_command("fault net loss 0.05")
        assert is_fault_command("  fault m1 sensor stuck cpu")
        assert not is_fault_command("fiddle m1 temperature inlet 30")
        assert not is_fault_command("faulty line")


class TestScriptIntegration:
    SCRIPT = (
        "#!/bin/bash\n"
        "fault net loss 0.05\n"
        "sleep 480\n"
        "fiddle machine1 temperature inlet 38.6\n"
        "fault machine2 sensor stuck disk 45 for 600\n"
        "sleep 100\n"
        "fault machine1 daemon crash tempd\n"
    )

    def test_fault_statements_parse_with_times(self):
        commands = parse_script(self.SCRIPT)
        assert [c.time for c in commands] == [0.0, 480.0, 480.0, 580.0]
        assert is_fault_command(commands[0].command)
        assert not is_fault_command(commands[1].command)

    def test_bad_fault_statement_reports_line(self):
        with pytest.raises(FiddleError, match="line 2"):
            parse_script("sleep 10\nfault net teleport 1\n")

    def test_writer_round_trips_mixed_script(self):
        commands = parse_script(self.SCRIPT)
        assert parse_script(write_script(commands)) == commands

    def test_offline_events_reject_fault_statements(self):
        with pytest.raises(FiddleError, match="fault statements"):
            to_events(parse_script(self.SCRIPT))

    def test_fault_free_script_still_converts_to_events(self):
        events = to_events(parse_script("sleep 5\nfiddle m1 fan 30\n"))
        assert len(events) == 1 and events[0].time == 5.0


class TestFaultSchedule:
    def test_from_script_keeps_only_faults(self):
        schedule = FaultSchedule.from_script(TestScriptIntegration.SCRIPT)
        assert len(schedule) == 3
        starts = [f.start for f in schedule]
        assert starts == [0.0, 480.0, 580.0]

    def test_to_script_round_trips(self):
        schedule = FaultSchedule.from_script(TestScriptIntegration.SCRIPT)
        again = FaultSchedule.from_script(schedule.to_script())
        assert list(again) == list(schedule)

    def test_at_orders_by_start(self):
        spec = FaultSpec(kind=FaultKind.NET_LOSS, value=0.1)
        schedule = FaultSchedule().at(50.0, spec).at(10.0, spec)
        assert [f.start for f in schedule] == [10.0, 50.0]

    def test_negative_start_rejected(self):
        spec = FaultSpec(kind=FaultKind.NET_LOSS, value=0.1)
        with pytest.raises(FaultError):
            ScheduledFault(start=-1.0, spec=spec)
