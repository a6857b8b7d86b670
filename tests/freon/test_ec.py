"""Tests for the Freon-EC admission daemon (Figure 10 logic)."""

import pytest

from repro.daemons.tempd import MSG_ADJUST, MSG_RELEASE, MSG_STATUS, TempdMessage
from repro.errors import SensorError
from repro.freon.ec import AdmdEC

from ..fakes import FakeView

MACHINES = ["m1", "m2", "m3", "m4"]


def make_ec(off=()):
    """Freon-EC over a view whose power switches instantly."""
    view = FakeView(MACHINES, off=off)
    ec = AdmdEC(view, util_high=0.70, util_low=0.60)
    return view.balancer, view, ec


def status(machine, cpu, disk=0.1, time=60.0):
    return TempdMessage(
        type=MSG_STATUS,
        machine=machine,
        time=time,
        utilizations={"cpu": cpu, "disk": disk},
    )


def adjust(machine, output=0.3, time=60.0):
    return TempdMessage(type=MSG_ADJUST, machine=machine, time=time, output=output)


def feed_status(ec, cpu, machines=MACHINES, time=60.0):
    for machine in machines:
        ec.deliver(status(machine, cpu, time=time))


class TestEnergyConservation:
    def test_shrinks_under_light_load(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.10)
        ec.evaluate(60.0)
        # 0.10 average: removal keeps everything far below 0.60 ->
        # shrink to min_active.
        assert len(power.active_servers()) == 1
        assert all(e.action == "off" for e in ec.events)

    def test_keeps_servers_under_heavy_load(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.65)
        ec.evaluate(60.0)
        assert power.off_requests == []

    def test_partial_shrink(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.40)
        ec.evaluate(60.0)
        # 0.40 * 4/3 = 0.533 < 0.6 (remove one); 0.533 * 3/2 = 0.8 > 0.6.
        assert len(power.active_servers()) == 3

    def test_grows_on_projected_load(self):
        balancer, power, ec = make_ec(off=["m4"])
        feed_status(ec, cpu=0.50, machines=["m1", "m2", "m3"], time=60.0)
        ec.evaluate(60.0)
        feed_status(ec, cpu=0.65, machines=["m1", "m2", "m3"], time=120.0)
        ec.evaluate(120.0)
        # Projection: 0.65 + 2*(0.65-0.50) = 0.95 > 0.70 -> turn on m4.
        assert "m4" in power.on_requests

    def test_no_growth_when_load_flat(self):
        balancer, power, ec = make_ec(off=["m4"])
        feed_status(ec, cpu=0.55, machines=["m1", "m2", "m3"], time=60.0)
        ec.evaluate(60.0)
        feed_status(ec, cpu=0.55, machines=["m1", "m2", "m3"], time=120.0)
        ec.evaluate(120.0)
        assert power.on_requests == []

    def test_never_below_min_active(self):
        balancer, power, ec = make_ec(off=["m2", "m3", "m4"])
        feed_status(ec, cpu=0.01, machines=["m1"])
        ec.evaluate(60.0)
        assert power.active_servers() == ["m1"]

    def test_events_logged_with_reason(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.10)
        ec.evaluate(60.0)
        assert all(e.reason == "energy conservation" for e in ec.events)


class TestEmergencyHandling:
    def test_all_needed_falls_back_to_base_policy(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.72)  # demand 2.88 -> needs 5 > 4 machines...
        ec.deliver(adjust("m1"))
        # Base policy applied: weight reduced, server stays on.
        assert balancer.server("m1").weight < 1.0
        assert power.off_requests == []

    def test_hot_server_replaced_when_spare_exists(self):
        balancer, power, ec = make_ec(off=["m4"])
        feed_status(ec, cpu=0.50, machines=["m1", "m2", "m3"])
        ec.deliver(adjust("m1"))
        # Demand 1.5 -> needs 3 servers == active count -> cannot remove
        # without replacing: m4 turned on, m1 turned off.
        assert "m4" in power.on_requests
        assert "m1" in power.off_requests

    def test_hot_server_retired_without_replacement_when_spare_capacity(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.30)  # demand 1.2 -> needs 2 of 4
        ec.deliver(adjust("m3"))
        assert "m3" in power.off_requests
        assert power.on_requests == []

    def test_replacement_prefers_calm_region(self):
        balancer, power, ec = make_ec(off=["m3", "m4"])
        feed_status(ec, cpu=0.55, machines=["m1", "m2"])
        # m1 (region0) goes hot; m3 is also region0, m4 region1.
        ec.deliver(adjust("m1"))
        assert power.on_requests == ["m4"]

    def test_emergency_counts_cleared_on_release(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.72)
        ec.deliver(adjust("m1"))
        region = ec.regions.region_of("m1")
        assert ec.regions.under_emergency(region)
        ec.deliver(TempdMessage(type=MSG_RELEASE, machine="m1", time=120.0))
        assert not ec.regions.under_emergency(region)
        assert balancer.server("m1").weight == pytest.approx(1.0)

    def test_repeated_adjust_uses_base_policy(self):
        balancer, power, ec = make_ec()
        feed_status(ec, cpu=0.72)
        ec.deliver(adjust("m1", output=0.5, time=60.0))
        first = balancer.server("m1").weight
        ec.deliver(adjust("m1", output=0.5, time=120.0))
        assert balancer.server("m1").weight < first

    def test_removal_victim_is_lowest_capacity(self):
        balancer, power, ec = make_ec()
        balancer.set_weight("m2", 0.2)  # restricted -> lowest capacity
        feed_status(ec, cpu=0.40)
        ec.evaluate(60.0)
        assert power.off_requests[0] == "m2"


class TestStatusValidation:
    def test_status_lacking_a_class_changes_nothing(self):
        _, _, ec = make_ec()
        before = ec.checkpoint()
        with pytest.raises(SensorError, match="lacks utilization 'disk'"):
            ec.deliver(TempdMessage(
                type=MSG_STATUS, machine="m1", time=60.0,
                utilizations={"cpu": 0.9},
            ))
        assert ec.checkpoint() == before


class TestRegionsAndCheckpoint:
    def test_regions_come_from_the_view(self):
        view = FakeView(MACHINES, regions={
            "m1": "east", "m2": "east", "m3": "west", "m4": "west",
        })
        ec = AdmdEC(view, util_high=0.70, util_low=0.60)
        assert ec.regions.regions == ["east", "west"]
        assert ec.regions.servers_in("east") == ["m1", "m2"]

    def test_checkpoint_round_trips(self):
        balancer, power, ec = make_ec(off=["m4"])
        feed_status(ec, cpu=0.50, machines=["m1", "m2", "m3"])
        ec.deliver(adjust("m1"))
        ec.evaluate(60.0)
        copy = AdmdEC(power, util_high=0.70, util_low=0.60)
        copy.restore(ec.checkpoint())
        assert copy.checkpoint() == ec.checkpoint()
        region = ec.regions.region_of("m1")
        assert copy.regions.emergency_count(region) == 1
        assert copy.regions.rr_index == ec.regions.rr_index
