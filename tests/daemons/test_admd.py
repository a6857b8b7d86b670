"""Tests for the admd admission-control daemon."""

import pytest

from repro.control.view import POWER_DRAINING, POWER_OFF
from repro.daemons.admd import Admd
from repro.daemons.tempd import (
    MSG_ADJUST,
    MSG_REDLINE,
    MSG_RELEASE,
    TempdMessage,
)
from repro.errors import SensorError
from repro.freon.policy import FreonConfig

from ..fakes import FakeView


@pytest.fixture
def view():
    return FakeView()


@pytest.fixture
def balancer(view):
    return view.balancer


@pytest.fixture
def admd(view):
    return Admd(view, config=FreonConfig())


def adjust(machine, output, time=60.0):
    return TempdMessage(type=MSG_ADJUST, machine=machine, time=time, output=output)


class TestAdjust:
    def test_weight_reduced_for_target_share(self, balancer, admd):
        # output=1 -> target share = (1/4)/2 = 1/8; with W_rest=3 the new
        # weight is (1/8*3)/(7/8) = 3/7.
        admd.deliver(adjust("m1", 1.0))
        assert balancer.server("m1").weight == pytest.approx(3.0 / 7.0)

    def test_resulting_share_is_half_for_output_one(self, balancer, admd):
        admd.deliver(adjust("m1", 1.0))
        weights = {s.name: s.weight for s in balancer.active_servers()}
        share = weights["m1"] / sum(weights.values())
        assert share == pytest.approx(0.125)

    def test_zero_output_keeps_weight(self, balancer, admd):
        admd.deliver(adjust("m1", 0.0))
        assert balancer.server("m1").weight == pytest.approx(1.0)

    def test_connection_cap_set_from_average(self, balancer, admd):
        balancer.server("m1").active_connections = 10.0
        admd.sample(55.0)
        balancer.server("m1").active_connections = 20.0
        admd.sample(60.0)
        admd.deliver(adjust("m1", 0.5))
        assert balancer.server("m1").connection_limit == pytest.approx(15.0)

    def test_cap_falls_back_to_current_connections(self, balancer, admd):
        balancer.server("m1").active_connections = 7.0
        admd.deliver(adjust("m1", 0.5))
        assert balancer.server("m1").connection_limit == pytest.approx(7.0)

    def test_adjustment_recorded(self, admd):
        admd.deliver(adjust("m1", 0.4, time=120.0))
        assert admd.adjustments == [(120.0, "m1", 0.4)]

    def test_adjust_on_inactive_server_ignored(self, view, balancer, admd):
        view.power["m1"] = POWER_DRAINING
        admd.deliver(adjust("m1", 1.0))
        assert balancer.server("m1").weight == pytest.approx(1.0)
        assert admd.adjustments == []

    def test_consecutive_adjustments_compound(self, balancer, admd):
        admd.deliver(adjust("m1", 1.0))
        first = balancer.server("m1").weight
        admd.deliver(adjust("m1", 1.0))
        assert balancer.server("m1").weight < first

    def test_share_counts_only_active_servers(self, view, balancer, admd):
        # m4 is off: the hot server's share is of the three live weights.
        view.power["m4"] = POWER_OFF
        admd.deliver(adjust("m1", 1.0))
        # share 1/3 -> target 1/6; W_rest=2 -> (1/6*2)/(5/6) = 2/5.
        assert balancer.server("m1").weight == pytest.approx(0.4)


class TestUnknownMachine:
    @pytest.mark.parametrize("kind", [MSG_ADJUST, MSG_RELEASE, MSG_REDLINE])
    def test_rejected_before_any_state_changes(self, view, admd, kind):
        before = admd.checkpoint()
        with pytest.raises(SensorError, match="unknown machine"):
            admd.deliver(
                TempdMessage(type=kind, machine="m9", time=60.0, output=1.0)
            )
        assert admd.checkpoint() == before
        assert view.weights().tolist() == [1.0] * 4
        assert view.off_requests == []


class TestRelease:
    def test_release_restores_defaults(self, balancer, admd):
        admd.deliver(adjust("m1", 2.0))
        admd.deliver(
            TempdMessage(type=MSG_RELEASE, machine="m1", time=300.0)
        )
        server = balancer.server("m1")
        assert server.weight == pytest.approx(1.0)
        assert server.connection_limit is None
        assert admd.releases == [(300.0, "m1")]


class TestRedline:
    def test_redline_invokes_turn_off(self, view, admd):
        admd.deliver(TempdMessage(type=MSG_REDLINE, machine="m2", time=60.0))
        assert view.off_requests == ["m2"]
        assert admd.redlined == [(60.0, "m2")]

    def test_redline_without_hook_is_recorded_only(self):
        # A view without power control (a multi-tier tier) ignores the
        # switch; admd still records the red line.
        from repro.cluster.multitier import MultiTierSimulation

        tier = MultiTierSimulation().web
        tier.admd.deliver(
            TempdMessage(type=MSG_REDLINE, machine="web2", time=60.0)
        )
        assert tier.admd.redlined == [(60.0, "web2")]
        assert tier.balancer.server("web2").weight == 1.0
        assert all(ws.state.value == "active"
                   for ws in tier.webservers.values())


class TestStatsSampling:
    def test_window_limited_to_monitor_period(self, balancer, admd):
        # Old samples beyond the monitor period fall out of the average.
        balancer.server("m1").active_connections = 100.0
        admd.sample(0.0)
        balancer.server("m1").active_connections = 10.0
        for t in range(5, 70, 5):
            admd.sample(float(t))
        assert admd.average_connections("m1") == pytest.approx(10.0)

    def test_checkpoint_round_trips(self, view, balancer, admd):
        balancer.server("m1").active_connections = 4.0
        admd.sample(5.0)
        admd.deliver(adjust("m1", 0.5))
        copy = Admd(view, config=FreonConfig())
        copy.restore(admd.checkpoint())
        assert copy.checkpoint() == admd.checkpoint()
        assert copy.average_connections("m1") == pytest.approx(4.0)
