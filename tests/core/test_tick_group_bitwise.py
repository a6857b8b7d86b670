"""Bitwise pin of the compiled kernel against a frozen reference body.

``tick_group`` caches its per-flow coefficients and stores its arrays
column-major; neither may change a single bit of the result.  The
python-vs-compiled suites hold the engines only to 1e-9 °C, which a
reordered product could pass, so this suite keeps the kernel body as it
was before the cache (``_reference_tick_group``) and demands
``np.array_equal`` on every temperature after every tick: random
layouts (stagnant pockets, air-air edges, table power models), 1-64
rows with some zero-fan rows, and k / fraction / fan / power-scale /
``dt`` edits between ticks.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.core.compiled import _Group, compile_layout, tick_group
from repro.core.state import MachineState

from .test_compiled_equivalence import random_machine

DTS = (0.25, 1.0, 5.0)


def _reference_tick_group(g, inlet, dt):
    """The kernel body before the coefficient cache, kept verbatim.

    Only ``all_flowing`` is derived here: the group used to store it
    when rebuilding its flows.
    """
    all_flowing = (g.cap > 0.0).all(axis=0)
    plan = g.plan
    T = g.T
    n_comps = plan.n_comps
    start = T[:, :n_comps].copy()
    heat = np.zeros_like(start)
    flows = g.flows
    cap = g.cap

    for air_i in plan.air_order:
        col = n_comps + air_i
        if air_i == plan.inlet_air:
            t_air = inlet
        else:
            terms = plan.incoming.get(air_i)
            if not terms:
                t_air = T[:, col].copy()
            else:
                num = None
                den = None
                for src_air, edge_i in terms:
                    w = flows[:, src_air] * g.fractions[:, edge_i]
                    contrib = T[:, n_comps + src_air] * w
                    num = contrib if num is None else num + contrib
                    den = w if den is None else den + w
                if den.all():
                    t_air = num / den
                else:
                    mixed = den > 0.0
                    t_air = np.where(
                        mixed, num / np.where(mixed, den, 1.0), T[:, col]
                    )
        attached = plan.air_heat.get(air_i)
        if attached:
            cr = cap[:, air_i]
            if all_flowing[air_i]:
                cr_dt = cr * dt
                for comp_i, edge_i in attached:
                    body = start[:, comp_i]
                    t_out = body + (t_air - body) * np.exp(
                        -(g.k[:, edge_i] / cr)
                    )
                    heat[:, comp_i] -= cr_dt * (t_out - t_air)
                    t_air = t_out
            else:
                flowing = cr > 0.0
                cr_safe = np.where(flowing, cr, 1.0)
                for comp_i, edge_i in attached:
                    body = start[:, comp_i]
                    t_out = body + (t_air - body) * np.exp(
                        -(g.k[:, edge_i] / cr_safe)
                    )
                    q = cr * dt * (t_out - t_air)
                    t_air = np.where(flowing, t_out, t_air)
                    heat[:, comp_i] -= np.where(flowing, q, 0.0)
        T[:, col] = t_air

    for a_i, b_i, edge_i, c_eff in plan.comp_comp:
        q = (
            c_eff
            * (start[:, a_i] - start[:, b_i])
            * -np.expm1(-g.k[:, edge_i] * dt / c_eff)
        )
        heat[:, a_i] -= q
        heat[:, b_i] += q
    for a_air, b_air, edge_i in plan.air_air:
        mc_a = np.maximum(cap[:, a_air] * dt, 1e-9)
        mc_b = np.maximum(cap[:, b_air] * dt, 1e-9)
        c_eff = 1.0 / (1.0 / mc_a + 1.0 / mc_b)
        q = (
            c_eff
            * (T[:, n_comps + a_air] - T[:, n_comps + b_air])
            * -np.expm1(-g.k[:, edge_i] * dt / c_eff)
        )
        T[:, n_comps + a_air] -= q / mc_a
        T[:, n_comps + b_air] += q / mc_b

    for comp_i, spec in enumerate(plan.power_specs):
        if spec[0] == "affine":
            power = spec[1] + g.util[:, comp_i] * spec[2]
        else:
            model = spec[1]
            power = np.array(
                [model.power(u) for u in g.util[:, comp_i].tolist()]
            )
        heat[:, comp_i] += power * g.factor[:, comp_i] * dt
    T[:, :n_comps] = start + heat / plan.mc


def _random_edit(rng, layout, plan, rows):
    """One (row, field, key, value) mutation, as a state would report it."""
    row = rng.randrange(rows)
    action = rng.randrange(6)
    if action == 0:
        return row, "k", rng.choice(plan.heat_keys), round(rng.uniform(0.01, 10.0), 3)
    if action == 1:
        edge = rng.choice(layout.air_edges)
        return row, "fraction", (edge.src, edge.dst), round(rng.uniform(0.0, 1.0), 3)
    if action == 2:
        # Zero stops the row's air entirely (the masked paths).
        return row, "fan", None, rng.choice([0.0, round(rng.uniform(1.0, 100.0), 1)])
    if action == 3:
        return row, "power_scale", rng.choice(plan.comp_names), rng.choice(
            [0.0, round(rng.uniform(0.2, 1.0), 2)]
        )
    if action == 4:
        return row, "temperature", rng.choice(plan.node_names), round(rng.uniform(10.0, 90.0), 2)
    return row, "utilization", rng.choice(plan.comp_names), round(rng.uniform(0.0, 1.0), 3)


def _groups(rng, layout, plan, rows):
    """Two independent groups over the same randomized per-row states."""
    members = []
    for row in range(rows):
        state = MachineState(layout, round(rng.uniform(15.0, 45.0), 2))
        for edge in layout.heat_edges:
            if rng.random() < 0.3:
                state.set_k(edge.a, edge.b, round(rng.uniform(0.01, 10.0), 3))
        for component in layout.components:
            state.set_utilization(component, round(rng.uniform(0.0, 1.0), 3))
        members.append((f"m{row}", state))
    groups = (_Group(plan, members), _Group(plan, members))
    for row in range(rows):
        if rng.random() < 0.2:
            for g in groups:
                g.apply(row, "fan", None, 0.0)
    return groups


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    rows=st.integers(min_value=1, max_value=64),
    dt=st.sampled_from(DTS),
)
def test_kernel_matches_frozen_reference_bitwise(seed, rows, dt):
    rng = random.Random(seed)
    layout = random_machine(rng, "random")
    plan = compile_layout(layout)
    cached, reference = _groups(rng, layout, plan, rows)
    for tick in range(25):
        if rng.random() < 0.4:
            for _ in range(rng.randrange(1, 4)):
                edit = _random_edit(rng, layout, plan, rows)
                for g in (cached, reference):
                    g.apply(*edit)
        if rng.random() < 0.15:
            dt = rng.choice(DTS)
        inlet = np.array([round(rng.uniform(15.0, 40.0), 2) for _ in range(rows)])
        for g in (cached, reference):
            if g.flows_dirty:
                g.rebuild_flows()
        tick_group(cached, inlet, dt)
        _reference_tick_group(reference, inlet, dt)
        assert np.array_equal(cached.T, reference.T), f"tick {tick} (dt={dt})"
