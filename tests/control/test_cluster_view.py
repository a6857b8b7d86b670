"""The scalar backend: the cluster's Freon roles through its state view.

``ClusterSimulation`` runs Freon as one tempd per machine and one admd,
all acting through :meth:`ClusterSimulation.state_view`; the registry's
``FreonPolicy``/``FreonECPolicy`` compose the same roles over every row
of a view.  Driving the registry policy from the *outside* of a
``policy="none"`` simulation must therefore reproduce the golden
decision logs (``tests/golden/freon_decisions.json``) and the cluster's
own run, weight for weight and temperature for temperature.
"""

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.config import table1
from repro.control import build
from repro.freon.policy import FreonConfig
from repro.freon.regions import RegionMap
from repro.topology import grid_topology

from ..golden import decisions as golden

DURATION = golden.DURATION


def _drive_unified(policy_name, duration, fiddle_script):
    """Run policy="none" with a registry policy over the state view.

    The cluster's admd samples every ``stats_period`` (5 s) and its
    tempds wake every ``monitor_period`` (60 s), both in a tick's tail —
    so the external loop calls sample/wake right after the matching tick.
    """
    sim = ClusterSimulation(policy="none", fiddle_script=fiddle_script)
    policy = build(policy_name, "cluster", config=FreonConfig())
    view = sim.state_view()
    config = policy.config
    for _ in range(int(round(duration / sim.dt))):
        sim.step()
        t = sim.time
        if t % config.stats_period == 0.0:
            policy.sample(view, t)
        if t % config.monitor_period == 0.0:
            policy.wake(view, t)
    return sim, policy


def _cpu_temperatures(sim):
    return np.array(
        [sim.solver.temperature(m, table1.CPU) for m in sim.machines]
    )


def _weights(sim):
    servers = sim.balancer.server_map
    return np.array([servers[m].weight for m in sim.machines])


class TestUnifiedFreonMatchesNative:
    def test_decisions_weights_temperatures_identical(self):
        script = emergency_script()
        stored = golden.load()["fig11_freon"]
        unified_sim, unified = _drive_unified("freon", DURATION, script)
        assert stored["adjustments"], (
            "the emergency window never tripped Freon; the run exercised "
            "nothing"
        )
        golden.compare(
            [list(a) for a in unified.adjustments], stored["adjustments"],
            "adjustments",
        )
        golden.compare(
            [list(r) for r in unified.releases], stored["releases"],
            "releases",
        )
        golden.compare(
            [list(r) for r in unified.redlined], stored["redlined"],
            "redlined",
        )
        cluster = ClusterSimulation(policy="freon", fiddle_script=script)
        cluster.run(DURATION)
        assert np.array_equal(_weights(cluster), _weights(unified_sim))
        assert np.abs(
            _cpu_temperatures(cluster) - _cpu_temperatures(unified_sim)
        ).max() <= 1e-9


class TestUnifiedFreonECMatchesNative:
    def test_ec_events_and_temperatures_identical(self):
        script = emergency_script()
        stored = golden.load()["fig12_freon_ec"]
        unified_sim, unified = _drive_unified("freon-ec", DURATION, script)
        events = [
            {"time": e.time, "action": e.action, "machine": e.machine,
             "reason": e.reason}
            for e in unified.events
        ]
        assert stored["ec_events"]
        golden.compare(events, stored["ec_events"], "ec_events")
        golden.compare(
            [list(a) for a in unified.adjustments], stored["adjustments"],
            "adjustments",
        )
        cluster = ClusterSimulation(policy="freon-ec", fiddle_script=script)
        cluster.run(DURATION)
        assert np.abs(
            _cpu_temperatures(cluster) - _cpu_temperatures(unified_sim)
        ).max() <= 1e-9


class TestClusterStateView:
    def test_reads_match_solver_and_balancer(self):
        sim = ClusterSimulation(policy="none")
        sim.run(30)
        view = sim.state_view()
        assert view.machines == tuple(sim.machines)
        temps = view.read_temperatures(["cpu", "disk"])
        for i, name in enumerate(view.machines):
            assert temps["cpu"][i] == pytest.approx(
                sim.solver.temperature(name, table1.CPU), abs=1e-12
            )
        assert np.array_equal(view.weights(), _weights(sim))

    def test_view_is_cached(self):
        sim = ClusterSimulation(policy="none")
        assert sim.state_view() is sim.state_view()
        freon = ClusterSimulation(policy="freon")
        assert freon.admd.view is freon.state_view()
        assert all(t.view is freon.state_view() for t in freon.tempds.values())

    def test_mask_skips_machines(self):
        sim = ClusterSimulation(policy="none")
        sim.run(5)
        view = sim.state_view()
        mask = np.array([True, False, True, False])
        temps = view.read_temperatures(["cpu"], mask=mask)
        assert not np.isnan(temps["cpu"][0])
        assert np.isnan(temps["cpu"][1])


class TestRegions:
    """Freon-EC's regions have one source: the simulation's region map."""

    def test_regions_follow_the_simulation_region_map(self):
        # Not the alternating default: machines 1 and 2 share a region.
        assignment = {
            "machine1": "east", "machine2": "east",
            "machine3": "west", "machine4": "west",
        }
        sim = ClusterSimulation(
            policy="freon-ec", regions=RegionMap(assignment)
        )
        view = sim.state_view()
        assert [view.region_of(i) for i in range(4)] == [
            "east", "east", "west", "west",
        ]
        assert {
            m: sim.admd.regions.region_of(m) for m in sim.machines
        } == assignment

    def test_topology_run_keeps_the_section_5_split(self):
        topology = grid_topology(4, zones=2)
        zones = {topology.positions[m].zone for m in topology.machines}
        sim = ClusterSimulation(policy="freon-ec", topology=topology)
        regions = [sim.state_view().region_of(i) for i in range(4)]
        assert regions == ["region0", "region1", "region0", "region1"]
        assert not zones & set(regions)
        assert sim.admd.regions.servers_in("region0") == [
            sim.machines[0], sim.machines[2],
        ]
