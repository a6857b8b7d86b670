"""Property-based equivalence: compiled engine vs the reference engine.

Seeded generators build random machine layouts (chains with bypass
splits, stagnant air pockets, region-region heat edges, mixed
linear/constant/table power models) and random clusters with
recirculation, then drive a ``python`` and a ``compiled`` solver with
identical utilization schedules and mid-run fiddle storms — forced
temperatures (including inlet overrides), constant changes, air-flow
edits, machine power-off — and demand node-for-node agreement within
1e-9 C after every tick.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.graph import (
    AirEdge,
    AirRegion,
    ClusterAirEdge,
    ClusterLayout,
    Component,
    CoolingSource,
    HeatEdge,
    MachineLayout,
)
from repro.core.power import (
    ConstantPowerModel,
    LinearPowerModel,
    TablePowerModel,
)
from repro.core.solver import Solver

TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _random_power_model(rng):
    kind = rng.randrange(3)
    if kind == 0:
        p_base = round(rng.uniform(0.0, 10.0), 2)
        return LinearPowerModel(p_base, p_base + round(rng.uniform(0.0, 40.0), 2))
    if kind == 1:
        return ConstantPowerModel(round(rng.uniform(0.5, 20.0), 2))
    n_knees = rng.randrange(1, 4)
    knees = sorted(round(rng.uniform(0.05, 0.95), 3) for _ in range(n_knees))
    power = round(rng.uniform(0.0, 5.0), 2)
    points = [(0.0, power)]
    for knee in knees:
        if knee <= points[-1][0]:
            continue
        power = round(power + rng.uniform(0.5, 15.0), 2)
        points.append((knee, power))
    points.append((1.0, round(power + rng.uniform(0.5, 10.0), 2)))
    return TablePowerModel(points)


def random_machine(rng, name):
    """A random valid layout: air chain + bypass split + stagnant pocket."""
    n_regions = rng.randrange(3, 7)
    regions = [f"air{i}" for i in range(n_regions)]
    air_edges = []
    for i in range(n_regions - 1):
        if i + 2 < n_regions and rng.random() < 0.4:
            target = rng.randrange(i + 2, n_regions)
            fraction = round(rng.uniform(0.1, 0.9), 3)
            air_edges.append(AirEdge(regions[i], regions[i + 1], fraction))
            air_edges.append(
                AirEdge(regions[i], regions[target], 1.0 - fraction)
            )
        else:
            air_edges.append(AirEdge(regions[i], regions[i + 1], 1.0))
    if rng.random() < 0.5:
        # A stagnant pocket: fed by a zero-fraction edge, so no air mass
        # moves through it (the masked stream-exchange path).
        pocket = "pocket"
        air_edges.append(AirEdge(regions[0], pocket, 0.0))
        air_edges.append(AirEdge(pocket, regions[-1], 1.0))
        regions.append(pocket)

    n_components = rng.randrange(1, 5)
    components = []
    heat_edges = []
    for c in range(n_components):
        comp = f"comp{c}"
        components.append(
            Component(
                name=comp,
                mass=round(rng.uniform(0.05, 2.0), 3),
                specific_heat=round(rng.uniform(400.0, 1500.0), 1),
                power_model=_random_power_model(rng),
                monitored=True,
            )
        )
        region = regions[rng.randrange(1, n_regions)]
        heat_edges.append(
            HeatEdge(comp, region, round(rng.uniform(0.1, 8.0), 3))
        )
    if n_components >= 2 and rng.random() < 0.6:
        heat_edges.append(
            HeatEdge("comp0", "comp1", round(rng.uniform(0.05, 2.0), 3))
        )
    if rng.random() < 0.4:
        # Region-region conduction (the air-air path in the compiled plan).
        a, b = rng.sample(regions[: n_regions], 2)
        heat_edges.append(HeatEdge(a, b, round(rng.uniform(0.05, 1.0), 3)))

    return MachineLayout(
        name=name,
        components=components,
        air_regions=[AirRegion(r) for r in regions],
        heat_edges=heat_edges,
        air_edges=air_edges,
        inlet=regions[0],
        exhaust=regions[n_regions - 1],
        inlet_temperature=round(rng.uniform(15.0, 35.0), 1),
        fan_cfm=round(rng.uniform(5.0, 80.0), 1),
    )


def random_cluster(rng, identical=False):
    """A random cluster with recirculation between machines.

    With ``identical=True`` every machine shares one layout shape (one
    compiled batch group); otherwise each machine gets its own random
    layout (one group per machine).
    """
    n_machines = rng.randrange(2, 5)
    names = [f"m{i}" for i in range(n_machines)]
    if identical:
        shape_seed = rng.randrange(10**6)
        machines = [
            random_machine(random.Random(shape_seed), name) for name in names
        ]
    else:
        machines = [random_machine(rng, name) for name in names]
    shares = [rng.uniform(0.2, 1.0) for _ in names]
    total = sum(shares)
    edges = [
        ClusterAirEdge("AC", name, share / total)
        for name, share in zip(names, shares)
    ]
    for i, name in enumerate(names):
        if n_machines > 1 and rng.random() < 0.6:
            # Part of this machine's exhaust recirculates to a peer.
            peer = names[(i + 1 + rng.randrange(n_machines - 1)) % n_machines]
            if peer != name:
                recirc = round(rng.uniform(0.05, 0.4), 3)
                edges.append(ClusterAirEdge(name, peer, recirc))
                edges.append(ClusterAirEdge(name, "exhaust", 1.0 - recirc))
                continue
        edges.append(ClusterAirEdge(name, "exhaust", 1.0))
    return ClusterLayout(
        machines=machines,
        sources=[CoolingSource("AC", round(rng.uniform(15.0, 25.0), 1))],
        edges=edges,
        sinks=["exhaust"],
    )


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


def _pair(layouts, cluster=None, dt=1.0):
    return (
        Solver(layouts, cluster=cluster, dt=dt, record=False, engine="python"),
        Solver(layouts, cluster=cluster, dt=dt, record=False, engine="compiled"),
    )


def _assert_equal(reference, compiled, context=""):
    for name, ref_state in reference.machines.items():
        comp_state = compiled.machines[name]
        for node, expected in ref_state.temperatures.items():
            actual = comp_state.temperatures[node]
            assert abs(actual - expected) <= TOLERANCE, (
                f"{context}: machine {name!r} node {node!r}: "
                f"compiled={actual!r} python={expected!r}"
            )


def _random_utilizations(rng, solver):
    for name, state in solver.machines.items():
        for component in state.layout.components:
            yield name, component, round(rng.uniform(0.0, 1.0), 3)


def _fiddle_storm(rng, reference, compiled):
    """Apply 1-3 random identical mutations to both solvers."""
    solvers = (reference, compiled)
    names = list(reference.machines)
    for _ in range(rng.randrange(1, 4)):
        name = rng.choice(names)
        state = reference.machine(name)
        layout = state.layout
        action = rng.randrange(8)
        if action == 0:  # force a node temperature (components or air)
            node = rng.choice(list(state.temperatures))
            value = round(rng.uniform(10.0, 90.0), 2)
            for s in solvers:
                s.force_temperature(name, node, value)
        elif action == 1:  # inlet override (an emergency)
            value = round(rng.uniform(25.0, 45.0), 2)
            for s in solvers:
                s.force_temperature(name, layout.inlet, value)
        elif action == 2:  # conductance change
            edge = rng.choice(layout.heat_edges)
            value = round(rng.uniform(0.01, 10.0), 3)
            for s in solvers:
                s.machine(name).set_k(edge.a, edge.b, value)
        elif action == 3:  # air-flow fraction change (may strand air)
            edge = rng.choice(layout.air_edges)
            value = round(rng.uniform(0.0, 1.0), 3)
            for s in solvers:
                s.machine(name).set_fraction(edge.src, edge.dst, value)
        elif action == 4:  # fan speed change
            value = round(rng.uniform(1.0, 100.0), 1)
            for s in solvers:
                s.machine(name).set_fan_cfm(value)
        elif action == 5:  # power off (scale 0) or DVFS throttle
            component = rng.choice(list(layout.components))
            factor = rng.choice([0.0, round(rng.uniform(0.2, 1.0), 2)])
            for s in solvers:
                s.machine(name).set_power_scale(component, factor)
        elif action == 6:  # clear any inlet override
            for s in solvers:
                s.clear_inlet_override(name)
        else:  # cluster-level edits (no-ops without a cluster)
            if reference.cluster is None:
                continue
            if rng.random() < 0.5:
                source = rng.choice(list(reference.cluster.sources))
                value = round(rng.uniform(12.0, 30.0), 2)
                for s in solvers:
                    s.set_source_temperature(source, value)
            else:
                edge = rng.choice(reference.cluster.edges)
                value = round(rng.uniform(0.0, 1.0), 3)
                for s in solvers:
                    s.set_cluster_fraction(edge.src, edge.dst, value)


def _run_equivalence(rng, reference, compiled, ticks, storm=True):
    _assert_equal(reference, compiled, "initial state")
    for tick in range(ticks):
        if rng.random() < 0.7:
            for name, component, value in _random_utilizations(rng, reference):
                reference.set_utilization(name, component, value)
                compiled.set_utilization(name, component, value)
        if storm and rng.random() < 0.3:
            _fiddle_storm(rng, reference, compiled)
        reference.step()
        compiled.step()
        _assert_equal(reference, compiled, f"tick {tick}")


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_single_machine_equivalence(seed):
    rng = random.Random(seed)
    layout = random_machine(rng, "random")
    reference, compiled = _pair([layout])
    _run_equivalence(rng, reference, compiled, ticks=40, storm=False)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_single_machine_fiddle_storm_equivalence(seed):
    rng = random.Random(seed)
    layout = random_machine(rng, "random")
    reference, compiled = _pair([layout])
    _run_equivalence(rng, reference, compiled, ticks=40, storm=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_cluster_equivalence_identical_layouts(seed):
    """All machines share one shape: exercises the batched (2D) path."""
    rng = random.Random(seed)
    cluster = random_cluster(rng, identical=True)
    layouts = list(cluster.machines.values())
    reference, compiled = _pair(layouts, cluster=cluster)
    _run_equivalence(rng, reference, compiled, ticks=30, storm=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_cluster_equivalence_mixed_layouts(seed):
    """Every machine has its own shape: one compiled group per machine."""
    rng = random.Random(seed)
    cluster = random_cluster(rng, identical=False)
    layouts = list(cluster.machines.values())
    reference, compiled = _pair(layouts, cluster=cluster)
    _run_equivalence(rng, reference, compiled, ticks=30, storm=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), dt=st.sampled_from([0.25, 1.0, 5.0]))
def test_equivalence_across_dt(seed, dt):
    rng = random.Random(seed)
    layout = random_machine(rng, "random")
    reference, compiled = _pair([layout], dt=dt)
    _run_equivalence(rng, reference, compiled, ticks=25, storm=True)
