"""Bitwise pin of the python engine's tick against a frozen reference body.

The python engine ticks each machine from a schedule hoisted out of the
layout's compiled plan and evaluates the physics helpers inline.  None
of that may change a single bit, so this suite keeps the tick body as it
was before the hoist (``_reference_machine_tick``), runs one solver on
it and one on the engine, and demands ``==`` on every node temperature
after every tick: the validation machine and cluster, a layout with
air-air edges and a stagnant pocket, table power models (the called
fallback), ``dt`` other than 1 and changed mid-run, fiddle storms, and a
mid-run checkpoint/restore.  Temperatures must also stay Python floats:
NumPy 2 prints ``np.float64`` differently, which would change text
outputs.
"""

import json
import random
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import table1
from repro.config.layouts import validation_cluster, validation_machine
from repro.core import physics
from repro.core.compiled import compile_layout
from repro.core.graph import AirEdge, AirRegion, Component, HeatEdge, MachineLayout
from repro.core.power import ConstantPowerModel, LinearPowerModel, TablePowerModel
from repro.core.solver import Solver
from repro.core.state import MachineState

from .test_compiled_equivalence import (
    _fiddle_storm,
    _random_utilizations,
    random_cluster,
    random_machine,
)

DTS = (0.25, 1.0, 5.0)


def _reference_machine_tick(
    state: MachineState, inlet_temperature: float, dt: float
) -> None:
    """The python engine's tick before the hoist, kept verbatim
    (``dt`` was read from the solver)."""
    layout = state.layout
    flows = state.flows()
    temps = state.temperatures
    start = dict(temps)  # component temps seen by all exchanges this tick

    # Heat gained by each component this tick (J), applied at the end.
    heat: Dict[str, float] = {name: 0.0 for name in layout.components}

    # --- intra-machine air traversal (advection + stream exchange) ---
    incoming = {region: layout.incoming_air(region) for region in layout.air_regions}
    air_heat_edges: Dict[str, List[Tuple[str, Tuple[str, str]]]] = {
        region: [] for region in layout.air_regions
    }
    for edge in layout.heat_edges:
        for region, other in ((edge.a, edge.b), (edge.b, edge.a)):
            if region in layout.air_regions and other in layout.components:
                air_heat_edges[region].append((other, edge.key))

    for region in layout.air_order:
        flow = flows.get(region, 0.0)
        if region == layout.inlet:
            t_air = inlet_temperature
        else:
            mix_temps: List[float] = []
            mix_weights: List[float] = []
            for edge in incoming[region]:
                fraction = state.fractions[(edge.src, edge.dst)]
                upstream_flow = flows.get(edge.src, 0.0)
                weight = upstream_flow * fraction
                if weight > 0.0:
                    mix_temps.append(temps[edge.src])
                    mix_weights.append(weight)
            if mix_temps:
                t_air = physics.mix_streams(mix_temps, mix_weights)
            else:
                t_air = temps[region]  # stagnant pocket keeps its temperature
        capacity_rate = units.air_heat_capacity_rate(flow)
        for component, key in air_heat_edges[region]:
            exchange = physics.stream_exchange(
                k=state.k[key],
                t_body=start[component],
                t_stream_in=t_air,
                capacity_rate=capacity_rate,
                dt=dt,
            )
            t_air = exchange.t_out
            heat[component] -= exchange.heat_to_stream
        temps[region] = t_air

    # --- inter-component heat flow + air-air conduction ---
    for edge in layout.heat_edges:
        a_is_comp = edge.a in layout.components
        b_is_comp = edge.b in layout.components
        k = state.k[edge.key]
        if a_is_comp and b_is_comp:
            mc_a = layout.components[edge.a].heat_capacity
            mc_b = layout.components[edge.b].heat_capacity
            q = physics.conduction_heat(k, start[edge.a], start[edge.b], dt, mc_a, mc_b)
            heat[edge.a] -= q
            heat[edge.b] += q
        elif not a_is_comp and not b_is_comp:
            # Air-air conduction between regions (rare; e.g. a stagnant
            # pocket).  Each side's per-tick thermal mass is the air
            # that transits it during the step.
            mc_a = max(units.air_heat_capacity_rate(flows.get(edge.a, 0.0)) * dt, 1e-9)
            mc_b = max(units.air_heat_capacity_rate(flows.get(edge.b, 0.0)) * dt, 1e-9)
            q = physics.conduction_heat(k, temps[edge.a], temps[edge.b], dt, mc_a, mc_b)
            temps[edge.a] -= q / mc_a
            temps[edge.b] += q / mc_b
        # component-air edges were handled in the air traversal

    # --- component self-heating and temperature update ---
    for name, component in layout.components.items():
        heat[name] += state.power_models[name].heat(state.utilizations[name], dt)
        temps[name] = start[name] + physics.temperature_delta(
            heat[name], component.mass, component.specific_heat
        )


class _FrozenEngine:
    """Ticks every machine of its solver with the frozen body."""

    provides_inlets = False
    measure_host_latency = True

    def __init__(self, solver: Solver) -> None:
        self._solver = solver

    def tick(self, inlet_temps) -> None:
        solver = self._solver
        for name, state in solver.machines.items():
            _reference_machine_tick(state, inlet_temps[name], solver.dt)


def _frozen(layouts, cluster=None, dt=1.0) -> Solver:
    solver = Solver(layouts, cluster=cluster, dt=dt, record=False)
    solver._impl = _FrozenEngine(solver)
    return solver


def _assert_bitwise(engine: Solver, frozen: Solver, context: str) -> None:
    for name, state in engine.machines.items():
        got = state.temperatures
        assert got == frozen.machines[name].temperatures, f"{context}: {name}"
        assert all(type(value) is float for value in got.values()), (
            f"{context}: {name} holds non-float temperatures"
        )


def _run(rng, layouts, cluster=None, dt=1.0, ticks=200, change_dt=False):
    """Step an engine solver and a frozen one in lockstep under a storm.

    One third of the way in both are checkpointed (the checkpoints must
    serialise identically); two thirds in both are restored to it, the
    engine side into a freshly built solver, and the run goes on.
    """
    engine = Solver(layouts, cluster=cluster, dt=dt, record=False)
    frozen = _frozen(layouts, cluster=cluster, dt=dt)
    _assert_bitwise(engine, frozen, "initial state")
    saved = None
    for tick in range(ticks):
        if rng.random() < 0.7:
            for name, component, value in _random_utilizations(rng, engine):
                engine.set_utilization(name, component, value)
                frozen.set_utilization(name, component, value)
        if rng.random() < 0.3:
            _fiddle_storm(rng, frozen, engine)
        if change_dt and rng.random() < 0.1:
            engine.dt = frozen.dt = rng.choice(DTS)
        if tick == ticks // 3:
            saved = engine.checkpoint()
            assert json.dumps(saved) == json.dumps(frozen.checkpoint())
        if tick == 2 * ticks // 3:
            engine = Solver(layouts, cluster=cluster, dt=engine.dt, record=False)
            engine.restore(saved)
            frozen.restore(saved)
        engine.step()
        frozen.step()
        _assert_bitwise(engine, frozen, f"tick {tick}")


def _pocket_machine() -> MachineLayout:
    """Air-air edges (one against a stagnant pocket), a zero-flow
    region with a component in it, and a table power model."""
    return MachineLayout(
        name="pocket",
        components=[
            Component("cpu", 0.2, 896.0, LinearPowerModel(7.0, 31.0), True),
            Component(
                "disk", 0.3, 710.0,
                TablePowerModel([(0.0, 9.0), (0.35, 11.5), (1.0, 14.0)]), True,
            ),
            Component("psu", 1.5, 896.0, ConstantPowerModel(40.0)),
        ],
        air_regions=[AirRegion(n) for n in ("inlet", "a", "b", "still", "out")],
        heat_edges=[
            HeatEdge("cpu", "a", 0.75),
            HeatEdge("disk", "b", 2.0),
            HeatEdge("psu", "still", 4.0),
            HeatEdge("cpu", "disk", 0.3),
            HeatEdge("a", "still", 0.4),
            HeatEdge("b", "a", 0.2),
        ],
        air_edges=[
            AirEdge("inlet", "a", 0.6),
            AirEdge("inlet", "b", 0.4),
            AirEdge("inlet", "still", 0.0),
            AirEdge("a", "out", 1.0),
            AirEdge("b", "out", 1.0),
            AirEdge("still", "out", 1.0),
        ],
        inlet="inlet",
        exhaust="out",
        inlet_temperature=21.5,
        fan_cfm=30.0,
    )


def test_validation_machine_bitwise():
    _run(random.Random(1), [validation_machine()], ticks=600)


def test_validation_cluster_bitwise():
    cluster = validation_cluster()
    _run(random.Random(2), list(cluster.machines.values()), cluster, ticks=300)


def test_air_air_stagnant_and_table_layout_bitwise():
    layout = _pocket_machine()
    kinds = [spec[0] for spec in compile_layout(layout).power_specs]
    assert kinds == ["affine", "model", "affine"]  # the disk's model is called
    _run(random.Random(3), [layout], dt=0.5, ticks=400, change_dt=True)


def test_dt_other_than_one_bitwise():
    _run(random.Random(4), [validation_machine()], dt=5.0, ticks=200)
    _run(random.Random(5), [validation_machine()], dt=0.25, ticks=200)


def test_int_utilization_keeps_python_floats():
    """An int utilization is legal; temperatures stay Python floats."""
    engine = Solver([validation_machine()], record=False)
    frozen = _frozen([validation_machine()])
    engine.set_utilization("machine1", table1.CPU, 1)  # an int utilization
    frozen.set_utilization("machine1", table1.CPU, 1)
    for tick in range(50):
        engine.step()
        frozen.step()
        _assert_bitwise(engine, frozen, f"tick {tick}")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), dt=st.sampled_from(DTS))
def test_random_machine_bitwise(seed, dt):
    rng = random.Random(seed)
    layout = random_machine(rng, "random")
    _run(rng, [layout], dt=dt, ticks=60, change_dt=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), identical=st.booleans())
def test_random_cluster_bitwise(seed, identical):
    rng = random.Random(seed)
    cluster = random_cluster(rng, identical=identical)
    _run(rng, list(cluster.machines.values()), cluster, ticks=45)
