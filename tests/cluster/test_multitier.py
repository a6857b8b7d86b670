"""Tests for the multi-tier Freon extension."""

import pytest

from repro.cluster.multitier import (
    APP_TIER_MIX,
    WEB_TIER_MIX,
    MultiTierSimulation,
)
from repro.cluster.tracegen import constant_trace
from repro.errors import ClusterError

EMERGENCY = "sleep 100\nfiddle app1 temperature inlet 38.6\n"


class TestConstruction:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ClusterError):
            MultiTierSimulation(policy="freon-ec")

    def test_rejects_overlapping_tiers(self):
        with pytest.raises(ClusterError):
            MultiTierSimulation(
                web_machines=("a", "b"), app_machines=("b", "c")
            )

    def test_rejects_bad_app_fraction(self):
        with pytest.raises(ClusterError):
            MultiTierSimulation(app_fraction=1.5)

    def test_tier_mixes_have_expected_shape(self):
        # Front ends are disk-bound, back ends CPU-bound.
        assert WEB_TIER_MIX.disk_demand > WEB_TIER_MIX.cpu_demand
        assert APP_TIER_MIX.cpu_demand > APP_TIER_MIX.disk_demand * 5


class TestPipelineCoupling:
    def test_app_load_follows_served_web_load(self):
        sim = MultiTierSimulation(
            policy="none",
            trace=constant_trace(60.0, 400.0),
            app_fraction=0.30,
        )
        sim.run(50)
        tick = sim.records[-1]
        served_web = tick.web.offered - tick.web.dropped
        assert tick.app.offered == pytest.approx(0.30 * served_web)

    def test_web_drops_shield_app_tier(self):
        # Saturate the web tier: the app tier's offered load caps at
        # served-web * fraction, not offered-web * fraction.
        sim = MultiTierSimulation(
            policy="none",
            web_machines=("web1",),
            trace=constant_trace(120.0, 300.0),
            app_fraction=0.30,
        )
        result = sim.run(100)
        assert result.web_drop_fraction > 0.1
        tick = sim.records[-1]
        assert tick.app.offered < 0.30 * tick.web.offered

    def test_zero_app_fraction(self):
        sim = MultiTierSimulation(
            policy="none",
            trace=constant_trace(60.0, 300.0),
            app_fraction=0.0,
        )
        result = sim.run(50)
        assert all(r.app.offered == 0.0 for r in sim.records)
        assert result.app_drop_fraction == 0.0

    def test_both_tiers_heat_with_load(self):
        sim = MultiTierSimulation(
            policy="none", trace=constant_trace(90.0, 2000.0)
        )
        sim.run(1500)
        tick = sim.records[-1]
        assert tick.app.cpu_temperatures["app1"] > 40.0
        assert tick.web.cpu_temperatures["web1"] > 25.0
        # The CPU-heavy tier runs hotter than the disk-heavy tier.
        assert (
            tick.app.cpu_temperatures["app1"]
            > tick.web.cpu_temperatures["web1"]
        )


class TestFreonPerTier:
    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        for policy in ("none", "freon"):
            sim = MultiTierSimulation(policy=policy, fiddle_script=EMERGENCY)
            results[policy] = sim.run(2000)
        return results

    def test_emergency_contained_by_app_tier_freon(self, runs):
        unmanaged = runs["none"].max_temperature("app", "app1")
        managed = runs["freon"].max_temperature("app", "app1")
        assert unmanaged > 69.0          # unmanaged crosses the red line
        assert managed < 69.0            # Freon keeps it below the red line
        assert managed < unmanaged - 2.5  # and well below unmanaged

    def test_adjustments_only_on_the_hot_tier(self, runs):
        adjustments = runs["freon"].adjustments
        assert adjustments["web"] == []
        assert any(m == "app1" for _, m, _ in adjustments["app"])

    def test_no_end_to_end_drops_under_freon(self, runs):
        assert runs["freon"].end_to_end_drop_fraction == 0.0

    def test_siblings_absorb_the_shifted_load(self, runs):
        records = runs["freon"].records
        peak_util = max(r.app.cpu_utilizations["app2"] for r in records)
        assert peak_util > 0.70


class TestDaemonCadence:
    def test_tiers_sample_and_wake_on_their_periods(self, monkeypatch):
        # Each tier's admd samples LVS every stats period (5 s) and its
        # tempd wakes every monitor period (60 s), web tier first.
        from repro.daemons.admd import Admd
        from repro.daemons.tempd import Tempd

        calls = []
        wake, sample = Tempd.wake, Admd.sample
        monkeypatch.setattr(Tempd, "wake", lambda self, now: (
            calls.append(("wake", self.machines[0], now)), wake(self, now)
        )[1])
        monkeypatch.setattr(Admd, "sample", lambda self, now: (
            calls.append(("sample", self.view.machines[0], now)),
            sample(self, now),
        )[1])
        sim = MultiTierSimulation(trace=constant_trace(60.0, 400.0))
        sim.run(125)
        wakes = [(m, t) for kind, m, t in calls if kind == "wake"]
        assert wakes == [("web1", 60.0), ("app1", 60.0),
                         ("web1", 120.0), ("app1", 120.0)]
        samples = [t for kind, m, t in calls if kind == "sample" and m == "web1"]
        assert samples == [float(t) for t in range(5, 126, 5)]
