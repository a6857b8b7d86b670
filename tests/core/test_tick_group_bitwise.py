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

The kernel also writes through a per-group workspace and keeps a
coefficient every row shares as one value.  Tiled rooms of 1024+ rows
pin both: all-shared coefficients, a ``k`` edit that mixes shared and
per-row forms, two groups ticked in turn, and ``dt`` changes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.config.layouts import validation_machine
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


# ----------------------------------------------------------------------
# tiled rooms: shared (0-d) and per-row coefficient forms, workspaces
# ----------------------------------------------------------------------

ROOM_ROWS = 1024


def _coefficient_values(coef):
    """Every per-flow value of a coefficient cache (masks excluded)."""
    for _, mixing, exchange in coef.regions:
        if mixing is not None:
            first, rest, den, _ = mixing
            yield first[1]
            yield from (w for _, w in rest)
            yield den
        if exchange is not None:
            cr_dt, _, factors = exchange
            yield cr_dt
            yield from (factor for _, factor in factors)
    for *_, decay in coef.comp_comp:
        yield decay
    for _, _, mc_a, mc_b, c_eff, decay in coef.air_air:
        yield from (mc_a, mc_b, c_eff, decay)


def _forms(group):
    """(shared, per-row) coefficient counts of the group's cache."""
    dims = [np.ndim(value) for value in _coefficient_values(group.coefficients)]
    return dims.count(0), dims.count(1)


def _template_pair(rng, layout, rows):
    """Two tiled groups, then the same per-row temperatures and loads.

    Temperatures and utilizations are state, not coefficients, so the
    rows differ while every coefficient stays shared.
    """
    plan = compile_layout(layout)
    template = MachineState(layout, 25.0)
    groups = tuple(
        _Group.from_template(plan, template, rows) for _ in range(2)
    )
    T = np.array([
        [round(rng.uniform(15.0, 60.0), 2) for _ in plan.node_names]
        for _ in range(rows)
    ])
    util = np.array([
        [round(rng.uniform(0.0, 1.0), 3) for _ in plan.comp_names]
        for _ in range(rows)
    ])
    for g in groups:
        g.T[:] = T
        g.util[:] = util
        g.rebuild_flows()
    return groups


def _tick_pair(rng, pair, dt):
    kernel, reference = pair
    rows = kernel.T.shape[0]
    inlet = np.array([round(rng.uniform(15.0, 40.0), 2) for _ in range(rows)])
    sent = inlet.copy()
    tick_group(kernel, inlet, dt)
    _reference_tick_group(reference, inlet, dt)
    assert np.array_equal(inlet, sent), "the kernel wrote into its inlet"
    return np.array_equal(kernel.T, reference.T)


@pytest.mark.parametrize("seed", [None, 3, 17])
def test_tiled_room_shared_then_mixed_coefficients(seed):
    """seed None is the validation machine; the others random layouts."""
    rng = random.Random(seed)
    layout = (
        validation_machine("template") if seed is None
        else random_machine(rng, "template")
    )
    pair = _template_pair(rng, layout, ROOM_ROWS)
    kernel = pair[0]
    for tick in range(4):
        assert _tick_pair(rng, pair, 1.0), f"shared, tick {tick}"
    shared, per_row = _forms(kernel)
    assert shared > 0 and per_row == 0

    key = rng.choice(kernel.plan.heat_keys)
    for g in pair:
        g.apply(ROOM_ROWS // 3, "k", key, 0.123)
    for tick in range(4):
        assert _tick_pair(rng, pair, 1.0), f"mixed, tick {tick}"
    shared, per_row = _forms(kernel)
    assert shared > 0 and per_row > 0


def test_two_tiled_groups_ticked_in_turn_share_no_workspace():
    rng = random.Random(5)
    room = _template_pair(rng, validation_machine("template"), ROOM_ROWS)
    other = _template_pair(rng, random_machine(rng, "other"), ROOM_ROWS + 7)
    for tick in range(6):
        assert _tick_pair(rng, room, 1.0), f"room, tick {tick}"
        assert _tick_pair(rng, other, 1.0), f"other, tick {tick}"
    for mine in room[0].workspace:
        for theirs in other[0].workspace:
            assert not np.shares_memory(mine, theirs)


def test_tiled_room_dt_changes_between_ticks():
    rng = random.Random(11)
    pair = _template_pair(rng, random_machine(rng, "template"), ROOM_ROWS)
    for tick, dt in enumerate((1.0, 0.25, 0.25, 5.0, 1.0, 0.25)):
        assert _tick_pair(rng, pair, dt), f"tick {tick} (dt={dt})"
        assert pair[0].coefficients.dt == dt
