"""Tests for the datacenter-scale simulation harness."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.cluster.tracegen import diurnal_shape_array
from repro.errors import FiddleError, TopologyError
from repro.telemetry import Telemetry, parse_prometheus
from repro.topology import (
    ScaleSimulation,
    grid_topology,
    inlet_events_from_script,
)


def room(n=60, zones=3):
    return grid_topology(n, zones=zones, machines_per_rack=5)


class TestWorkload:
    def test_phase_offsets_decorrelate(self):
        sim = ScaleSimulation(room(), duration=1000.0, phase_spread=0.3)
        rates = sim.offered_rates(600.0)
        # Machines peak at different times, so instantaneous rates vary.
        assert rates.max() - rates.min() > 0.0
        zero_spread = ScaleSimulation(room(), duration=1000.0,
                                      phase_spread=0.0)
        flat_rates = zero_spread.offered_rates(600.0)
        assert flat_rates.max() == flat_rates.min()

    def test_run_summary(self):
        sim = ScaleSimulation(room(), duration=300.0)
        summary = sim.run()
        assert summary["machines"] == 60
        assert summary["zones"] == 3
        assert summary["ticks"] == 300
        assert summary["offered_requests"] > 0.0
        assert set(summary["zone_cpu_max"]) == {"zone0", "zone1", "zone2"}
        for zone, peak in summary["zone_cpu_max"].items():
            assert peak >= summary["zone_cpu_mean"][zone]

    def test_policy_throttles_hot_room(self):
        # A hot supply pushes CPUs over the threshold; the vectorized
        # policy must bite (weights drop) where the no-op policy doesn't.
        hot = grid_topology(20, zones=1, machines_per_rack=5,
                            supply_temperature=55.0)
        managed = ScaleSimulation(hot, duration=900.0, policy="freon")
        managed.step(900)
        unmanaged = ScaleSimulation(hot, duration=900.0, policy="none")
        unmanaged.step(900)
        assert managed.throttle_events > 0
        assert (managed.weights < 1.0).any()
        assert unmanaged.throttle_events == 0
        assert (unmanaged.weights == 1.0).all()

    def test_rejects_bad_args(self):
        with pytest.raises(TopologyError, match="policy"):
            ScaleSimulation(room(), policy="overclock")
        with pytest.raises(TopologyError, match="duration"):
            ScaleSimulation(room(), duration=0.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "warm"])
    def test_inlet_events_need_a_finite_temperature(self, value):
        with pytest.raises(FiddleError, match="number"):
            inlet_events_from_script(
                f"sleep 10\nfiddle machine1 temperature inlet {value}\n"
            )


class TestTelemetry:
    def test_zone_labels_round_trip(self):
        telemetry = Telemetry()
        sim = ScaleSimulation(room(), duration=240.0, telemetry=telemetry)
        sim.run()
        parsed = parse_prometheus(telemetry.to_prometheus())
        # One labelled series per zone, surviving the text round trip.
        for zone in ("zone0", "zone1", "zone2"):
            key = ("scale_zone_cpu_max_celsius", (("zone", zone),))
            assert key in parsed
            assert parsed[key] > 0.0
        assert parsed[("sim_machines", ())] == 60.0
        assert parsed[("sim_zones", ())] == 3.0

    def test_null_telemetry_costs_nothing(self):
        sim = ScaleSimulation(room(), duration=120.0, telemetry=None)
        sim.run()
        assert not sim.telemetry.enabled


class TestCheckpoint:
    def test_bit_exact_resume(self):
        topo = room()
        sim = ScaleSimulation(topo, duration=600.0)
        sim.step(250)
        data = json.loads(json.dumps(sim.checkpoint()))
        clone = ScaleSimulation(topo, duration=600.0)
        clone.restore(data)
        sim.step(150)
        clone.step(150)
        assert np.array_equal(sim.solver.group.T, clone.solver.group.T)
        assert np.array_equal(sim.weights, clone.weights)
        assert sim.offered_total == clone.offered_total
        assert sim.dropped_total == clone.dropped_total
        assert sim.throttle_events == clone.throttle_events

    def test_version_gate(self):
        sim = ScaleSimulation(room(), duration=60.0)
        data = sim.checkpoint()
        data["version"] = 99
        with pytest.raises(TopologyError, match="version"):
            sim.restore(data)

    @pytest.mark.parametrize(
        "key", ["weights", "caps", "power", "boot_remaining", "allocated"]
    )
    def test_restore_rejects_short_per_machine_array(self, key):
        sim = ScaleSimulation(room(), duration=60.0)
        sim.step(5)
        data = json.loads(json.dumps(sim.checkpoint()))
        data[key] = data[key][:-1]
        with pytest.raises(TopologyError, match=f"{key} shape"):
            sim.restore(data)


class TestOfferedRatesShape:
    def test_matches_scalar_diurnal_shape(self):
        from repro.cluster.tracegen import diurnal_shape

        sim = ScaleSimulation(room(), duration=1000.0, phase_spread=0.0)
        valley = sim._valley_rate
        peak = sim._peak_rate
        for t in (0.0, 137.0, 480.0, 600.0, 777.0, 950.0, 999.9):
            rates = sim.offered_rates(t)
            expected = valley + (peak - valley) * diurnal_shape(t, 1000.0)
            assert rates[0] == pytest.approx(expected)

    def test_continuous_at_day_boundary(self):
        # The descent reaches the valley exactly at t=duration, so the
        # phase-wrapped curve has no cliff at the seam.
        sim = ScaleSimulation(room(), duration=1000.0, phase_spread=0.3)
        eps = 1e-9
        before = sim.offered_rates(1000.0 - eps)
        after = sim.offered_rates(0.0)
        assert np.allclose(before, after, rtol=1e-5, atol=1e-5)


class TestPhaseWrap:
    """``offered_rates`` wraps each machine's time into one period
    without ``fmod`` while it can; the result must be bitwise what
    ``%`` gives, on the wrapped times and on the rates."""

    @staticmethod
    def wrapped_and_rates(sim, t):
        seen = []

        def shape(tt, duration, plateau):
            seen.append(tt.copy())
            return diurnal_shape_array(tt, duration, plateau)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.topology.sim.diurnal_shape_array", shape)
            rates = sim.offered_rates(t)
        (tt,) = seen
        return tt, rates

    @staticmethod
    def reference(sim, t):
        duration = sim.duration
        tt = (t - sim.phases * duration) % duration
        valley, peak = sim._valley_rate, sim._peak_rate
        shape = diurnal_shape_array(tt, duration, sim._plateau)
        return tt, valley + (peak - valley) * shape

    def assert_bitwise(self, sim, t):
        got_tt, got = self.wrapped_and_rates(sim, t)
        want_tt, want = self.reference(sim, t)
        assert np.array_equal(got_tt.view(np.int64), want_tt.view(np.int64)), t
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), t

    @settings(max_examples=60, deadline=None)
    @given(
        duration=st.floats(min_value=1.0, max_value=1e6),
        spread=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**20),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=3.0, exclude_max=True),
            min_size=1, max_size=6,
        ),
    )
    @example(duration=1000.0, spread=1.0, seed=2006,
             fractions=[0.0, 0.999999, 1.0, 1.5, 2.0, 2.999999])
    def test_matches_remainder_bitwise(self, duration, spread, seed,
                                       fractions):
        sim = ScaleSimulation(room(20, 2), duration=duration, policy="none",
                              phase_spread=spread, phase_seed=seed)
        for fraction in fractions:
            self.assert_bitwise(sim, fraction * duration)

    @pytest.mark.parametrize("spread", [0.0, 1.0])
    def test_edges(self, spread):
        """x == -duration and x == -0.0 (with no phase spread), the
        period's end, and times past it, which fall back to ``%``."""
        duration = 1000.0
        sim = ScaleSimulation(room(20, 2), duration=duration, policy="none",
                              phase_spread=spread)
        for t in (-duration, -0.0, 0.0, np.nextafter(duration, 0.0),
                  duration, 2.5 * duration):
            self.assert_bitwise(sim, t)
        if spread == 0.0:
            for t in (-duration, -0.0):  # both wrap to +0.0, as % does
                tt, _ = self.wrapped_and_rates(sim, t)
                assert np.array_equal(tt.view(np.int64), np.zeros(20, np.int64))


class TestCloning:
    def cfg(self, **kw):
        from repro.cluster.lvs import CloningConfig

        return CloningConfig(**kw)

    def test_summary_gains_clone_keys_only_when_configured(self):
        plain = ScaleSimulation(room(), duration=120.0)
        summary = plain.run()
        assert "clone_ticks" not in summary
        assert "shed_ticks" not in summary

        cloned = ScaleSimulation(
            room(), duration=120.0, cloning=self.cfg(clones=2)
        )
        summary = cloned.run()
        assert summary["clone_ticks"] + summary["shed_ticks"] == 120
        assert summary["clone_latency_scale"] == pytest.approx(0.5)

    def test_low_load_room_clones_every_tick(self):
        sim = ScaleSimulation(
            room(), duration=120.0, cloning=self.cfg(clones=2)
        )
        sim.step(120)
        # The diurnal valley sits far below the shed ceiling.
        assert sim.clone_ticks > 0

    def test_checkpoint_roundtrip_preserves_clone_counters(self):
        topo = room()
        cfg = self.cfg(clones=2)
        sim = ScaleSimulation(topo, duration=600.0, cloning=cfg)
        sim.step(200)
        data = json.loads(json.dumps(sim.checkpoint()))
        assert "clone_ticks" in data
        clone = ScaleSimulation(topo, duration=600.0, cloning=cfg)
        clone.restore(data)
        sim.step(100)
        clone.step(100)
        assert sim.clone_ticks == clone.clone_ticks
        assert sim.shed_ticks == clone.shed_ticks
        assert sim.offered_total == clone.offered_total

    def test_classic_checkpoint_has_no_clone_keys(self):
        sim = ScaleSimulation(room(), duration=120.0)
        sim.step(50)
        data = sim.checkpoint()
        assert "clone_ticks" not in data
        assert "shed_ticks" not in data
