"""Compiled NumPy engine for the Mercury solver.

The reference engine in :mod:`repro.core.solver` walks Python dicts node
by node, which is easy to audit against the paper's equations but costs
a full interpreter round-trip per node per tick.  This module "compiles"
a :class:`~repro.core.graph.MachineLayout` into flat arrays once, then
runs the three traversals of section 2.2 as vectorized array operations,
batching every machine that shares a layout structure into one array op.

The lowering happens in two stages:

* :class:`MachinePlan` (built by :func:`compile_layout`) captures the
  *static* structure of a layout: node index maps, the topological
  air-flow order, the per-region mixing and stream-exchange schedules,
  the heat-edge classification (component-component / air-air), the
  flow-propagation schedule, and per-component power-evaluation specs.
  Machines with identical structure (same nodes, edges, thermal masses,
  and power tables) share one plan and are batched along the machine
  axis.
* :class:`CompiledEngine` owns the *live* per-machine arrays — node
  temperatures, heat-edge ``k`` values, air fractions, fan flows, power
  scale factors, utilizations — and keeps them in sync with each
  machine's :class:`~repro.core.state.MachineState` through the state's
  mutation listener.  Fiddle edits that change derived quantities (air
  fractions, fan speed) only mark the flow arrays dirty; they are
  recompiled lazily at the next tick, and the per-flow coefficients the
  tick derives from them (and from ``k``) are cached until an edit
  drops them.

Every arithmetic step mirrors the reference engine's expression order, so
the two engines agree within 1e-9 °C per tick (see ``tests/golden`` and
``tests/core/test_compiled_equivalence.py``).  After each tick the node
temperatures are written back into the per-machine state dicts, so sensor
reads, History recording, and the fiddle tool see exactly the same
surface as with the reference engine.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..errors import SolverError
from .graph import ClusterLayout, MachineLayout
from .power import ConstantPowerModel, LinearPowerModel, PowerModel, TablePowerModel
from .solver import DEFAULT_DT, Solver
from .state import MachineState


def _power_signature(model: PowerModel) -> Tuple:
    """Hashable identity of a power model, for plan sharing.

    Affine models (the paper's linear and constant models) are described
    by value; table models by their breakpoints; anything else by object
    identity, which still allows batching machines built from one layout
    template.
    """
    if isinstance(model, LinearPowerModel):
        return ("affine", model.p_base, model.p_max)
    if isinstance(model, ConstantPowerModel):
        return ("affine", model.watts, model.watts)
    if isinstance(model, TablePowerModel):
        return ("table", tuple(model._utils), tuple(model._powers))
    return ("opaque", id(model))


def layout_signature(layout: MachineLayout) -> Tuple:
    """Structural signature deciding which machines share one plan."""
    return (
        tuple(
            (c.name, c.mass, c.specific_heat, _power_signature(c.power_model))
            for c in layout.components.values()
        ),
        tuple(layout.air_regions),
        tuple(e.key for e in layout.heat_edges),
        tuple((e.src, e.dst) for e in layout.air_edges),
        layout.inlet,
        layout.exhaust,
        tuple(layout.air_order),
    )


class MachinePlan:
    """The compiled (static) form of one machine layout.

    All schedules preserve the reference engine's iteration order —
    ``layout.air_edges`` order for mixing and flow propagation,
    ``layout.heat_edges`` order for exchanges and conduction — so the
    floating-point accumulation order matches the dict-loop engine.
    """

    def __init__(self, layout: MachineLayout) -> None:
        self.signature = layout_signature(layout)
        self.comp_names: Tuple[str, ...] = tuple(layout.components)
        self.air_names: Tuple[str, ...] = tuple(layout.air_regions)
        #: Node order of the temperature array: components, then air.
        self.node_names: Tuple[str, ...] = self.comp_names + self.air_names
        self.n_comps = len(self.comp_names)
        self.n_air = len(self.air_names)
        self.comp_index = {name: i for i, name in enumerate(self.comp_names)}
        air_index = {name: i for i, name in enumerate(self.air_names)}
        self.air_index = air_index
        self.node_index = {name: i for i, name in enumerate(self.node_names)}
        self.heat_keys = tuple(edge.key for edge in layout.heat_edges)
        self.heat_key_index = {key: i for i, key in enumerate(self.heat_keys)}
        self.air_edge_index = {
            (edge.src, edge.dst): i for i, edge in enumerate(layout.air_edges)
        }
        self.inlet_air = air_index[layout.inlet]
        self.exhaust_air = air_index[layout.exhaust]
        #: Air regions (air-local indices) in topological flow order.
        self.air_order: Tuple[int, ...] = tuple(
            air_index[name] for name in layout.air_order
        )

        #: Per-region perfect-mixing terms: (src air idx, air-edge idx).
        self.incoming: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        for name in layout.air_regions:
            terms = tuple(
                (air_index[edge.src], self.air_edge_index[(edge.src, edge.dst)])
                for edge in layout.air_edges
                if edge.dst == name
            )
            if terms:
                self.incoming[air_index[name]] = terms

        #: Flow propagation schedule: (src air, dst air, air-edge idx) in
        #: the exact nested order of ``MachineLayout.air_flow_rates``.
        edges_from: Dict[str, List] = {}
        for edge in layout.air_edges:
            edges_from.setdefault(edge.src, []).append(edge)
        self.flow_steps: Tuple[Tuple[int, int, int], ...] = tuple(
            (
                air_index[edge.src],
                air_index[edge.dst],
                self.air_edge_index[(edge.src, edge.dst)],
            )
            for region in layout.air_order
            for edge in edges_from.get(region, ())
        )

        #: Per-region stream-exchange schedule: (comp idx, heat-edge idx).
        air_heat: Dict[int, List[Tuple[int, int]]] = {}
        comp_comp: List[Tuple[int, int, int, float]] = []
        air_air: List[Tuple[int, int, int]] = []
        for edge_i, edge in enumerate(layout.heat_edges):
            a_is_comp = edge.a in layout.components
            b_is_comp = edge.b in layout.components
            if a_is_comp and b_is_comp:
                mc_a = layout.components[edge.a].heat_capacity
                mc_b = layout.components[edge.b].heat_capacity
                c_eff = 1.0 / (1.0 / mc_a + 1.0 / mc_b)
                comp_comp.append(
                    (self.comp_index[edge.a], self.comp_index[edge.b], edge_i, c_eff)
                )
            elif not a_is_comp and not b_is_comp:
                air_air.append((air_index[edge.a], air_index[edge.b], edge_i))
            else:
                for region, other in ((edge.a, edge.b), (edge.b, edge.a)):
                    if region in layout.air_regions and other in layout.components:
                        air_heat.setdefault(air_index[region], []).append(
                            (self.comp_index[other], edge_i)
                        )
        self.air_heat: Dict[int, Tuple[Tuple[int, int], ...]] = {
            region: tuple(pairs) for region, pairs in air_heat.items()
        }
        self.comp_comp: Tuple[Tuple[int, int, int, float], ...] = tuple(comp_comp)
        self.air_air: Tuple[Tuple[int, int, int], ...] = tuple(air_air)

        #: Per-component power evaluation: ("affine", base, span) computes
        #: the paper's Eq. 4 vectorized; ("model", inner) falls back to
        #: scalar calls for table/opaque models, preserving exactness.
        specs: List[Tuple] = []
        for component in layout.components.values():
            model = component.power_model
            if isinstance(model, LinearPowerModel):
                specs.append(("affine", model.p_base, model.p_max - model.p_base))
            elif isinstance(model, ConstantPowerModel):
                specs.append(("affine", model.watts, 0.0))
            else:
                specs.append(("model", model))
        self.power_specs: Tuple[Tuple, ...] = tuple(specs)

        #: Heat capacity m*c (J/K) per component, divisor of Eq. 5.
        self.mc = np.array(
            [c.heat_capacity for c in layout.components.values()], dtype=float
        )

    def __repr__(self) -> str:
        return (
            f"MachinePlan({self.n_comps} components, {self.n_air} air regions, "
            f"{len(self.heat_keys)} heat edges)"
        )


_PLAN_CACHE: Dict[Tuple, MachinePlan] = {}
_PLAN_CACHE_LIMIT = 256


def compile_layout(layout: MachineLayout) -> MachinePlan:
    """Lower a layout to its :class:`MachinePlan` (cached by structure).

    Plans whose signature names a power model by identity ("opaque") are
    never cached: a recycled ``id()`` could otherwise alias two different
    models under one signature.
    """
    signature = layout_signature(layout)
    if any(comp[3][0] == "opaque" for comp in signature[0]):
        return MachinePlan(layout)
    plan = _PLAN_CACHE.get(signature)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.clear()
        plan = MachinePlan(layout)
        _PLAN_CACHE[signature] = plan
    return plan


class _Group:
    """All machines sharing one plan, batched along axis 0.

    Every array is stored column-major (``order="F"``): the kernel reads
    and writes whole node columns, which are then contiguous.
    """

    def __init__(self, plan: MachinePlan, members: Sequence[Tuple[str, MachineState]]):
        self.plan = plan
        self.names: List[str] = [name for name, _ in members]
        self.states: List[MachineState] = [state for _, state in members]
        m = len(self.states)
        self.T = np.array(
            [[s.temperatures[n] for n in plan.node_names] for s in self.states],
            dtype=float,
            order="F",
        )
        self.k = np.array(
            [[s.k[key] for key in plan.heat_keys] for s in self.states],
            dtype=float,
            order="F",
        )
        self.fractions = np.array(
            [
                [s.fractions[pair] for pair in plan.air_edge_index]
                for s in self.states
            ],
            dtype=float,
            order="F",
        )
        self.fan = np.array([s.fan_cfm for s in self.states], dtype=float)
        self.factor = np.array(
            [
                [s.power_models[c].factor for c in plan.comp_names]
                for s in self.states
            ],
            dtype=float,
            order="F",
        )
        self.util = np.array(
            [[s.utilizations[c] for c in plan.comp_names] for s in self.states],
            dtype=float,
            order="F",
        )
        self.flows = np.zeros((m, plan.n_air), order="F")
        self.cap = np.zeros((m, plan.n_air), order="F")
        self.flows_dirty = True
        #: The kernel's per-``dt`` flow coefficients (see
        #: :class:`_Coefficients`); None until the next tick builds them.
        self.coefficients: Optional[_Coefficients] = None
        #: The kernel's reusable arrays (see :func:`_workspace`); built on
        #: the first tick, rebuilt if the row count changes, never
        #: checkpointed.
        self.workspace: Optional[Tuple[np.ndarray, ...]] = None

    @classmethod
    def from_template(
        cls, plan: MachinePlan, template: MachineState, count: int
    ) -> "_Group":
        """Tile one template state into a ``count``-row group.

        The flattened datacenter solver (:mod:`repro.topology.sim`)
        builds its machines×nodes arrays this way: every row starts as a
        bitwise copy of the template's values, and no per-row
        :class:`~repro.core.state.MachineState` objects (or their dict
        write-backs) exist at all.  ``names``/``states`` are left empty
        on purpose — callers that tile own the row bookkeeping.
        """
        if count <= 0:
            raise SolverError("from_template needs a positive row count")
        g = cls(plan, [(template.layout.name, template)])
        g.names = []
        g.states = []
        g.T = _tile(g.T, count)
        g.k = _tile(g.k, count)
        g.fractions = _tile(g.fractions, count)
        g.fan = np.repeat(g.fan, count)
        g.factor = _tile(g.factor, count)
        g.util = _tile(g.util, count)
        g.flows = np.zeros((count, plan.n_air), order="F")
        g.cap = np.zeros((count, plan.n_air), order="F")
        return g

    def apply(self, row: int, field: str, key, value: float) -> bool:
        """Mirror one :class:`~repro.core.state.MachineState` mutation.

        ``row`` is the machine's row and ``field``/``key``/``value`` the
        state listener's arguments, so ``partial(group.apply, row)`` is
        a listener.  A ``k`` edit drops the cached coefficients; a
        ``fraction`` or ``fan`` edit marks the flows dirty and returns
        True (the caller owes a recompile).  An edit the plan cannot
        express (an unknown field or key) raises :class:`KeyError`.
        """
        plan = self.plan
        if field == "temperature":
            self.T[row, plan.node_index[key]] = value
        elif field == "utilization":
            self.util[row, plan.comp_index[key]] = value
        elif field == "k":
            self.k[row, plan.heat_key_index[key]] = value
            self.coefficients = None
        elif field == "power_scale":
            self.factor[row, plan.comp_index[key]] = value
        elif field == "fraction":
            self.fractions[row, plan.air_edge_index[key]] = value
            self.flows_dirty = True
            return True
        elif field == "fan":
            self.fan[row] = value
            self.flows_dirty = True
            return True
        else:
            raise KeyError(field)
        return False

    def rebuild_flows(self) -> None:
        """Recompile per-region flows and heat-capacity rates.

        Mirrors ``MachineLayout.air_flow_rates`` followed by
        ``units.air_heat_capacity_rate`` term for term.  The cached
        coefficients depend on both, so they are dropped.
        """
        plan = self.plan
        self.flows[:] = 0.0
        self.flows[:, plan.inlet_air] = units.cfm_to_m3s(self.fan)
        for src_air, dst_air, edge_i in plan.flow_steps:
            self.flows[:, dst_air] += self.flows[:, src_air] * self.fractions[:, edge_i]
        self.cap = np.asfortranarray(
            (units.AIR_DENSITY * self.flows) * units.AIR_SPECIFIC_HEAT
        )
        self.flows_dirty = False
        self.coefficients = None


def _tile(row, count: int):
    """``count`` bitwise copies of a one-row array, column-major."""
    out = np.empty((count, row.shape[1]), order="F")
    out[:] = row
    return out


def _uniform(values):
    """``values`` as one 0-d array if every row holds the same bits.

    The rows are compared through an ``int64`` view, so ``-0.0`` and
    ``0.0``, or two NaN payloads, count as different.  The shared bits
    then give every row of a multiply, divide or add exactly what the
    array would, without streaming a copy per row.  A 0-d float64 array
    rather than a Python float: NumPy converts a Python float operand on
    every call, which makes a multiply on a few rows about 1.5x slower.
    """
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return np.array(values[0])
    return values


class _Coefficients:
    """The per-flow constants :func:`tick_group` needs for one ``dt``.

    Between edits the model's coefficients are constants (the paper's
    constant-k Eqs. 1-5), so the mixing weights, stream-exchange factors
    and two-body terms are computed once here instead of every tick.
    Every expression is the one the kernel used to evaluate per tick, in
    the same operand order, so the cached values are bitwise the same.
    Each per-flow value is kept as one value when every row holds the
    same bits (a room tiled from one template), else as its array (see
    :func:`_uniform`).  A group drops its cache on
    :meth:`_Group.rebuild_flows` and on any ``k`` edit; a tick with a
    different ``dt`` builds a new one.
    """

    def __init__(self, g: _Group, dt: float) -> None:
        plan = g.plan
        n_comps = plan.n_comps
        k = g.k
        flows = g.flows
        cap = g.cap
        self.dt = dt
        #: One (column, mixing, exchange) per air region, in flow order.
        #: ``mixing`` is None for the inlet and stagnant pockets, else
        #: ((source column, weight), ((source column, weight), ...), den,
        #: unmixed): the first term, then the rest; ``exchange``
        #: is None without attached components, else (cr*dt, flowing,
        #: ((component, exp(-k/cr)), ...)).  The ``unmixed`` and
        #: ``flowing`` masks are None when every row mixes or flows.
        regions = []
        for air_i in plan.air_order:
            mixing = None
            terms = plan.incoming.get(air_i)
            if air_i != plan.inlet_air and terms:
                weights = []
                den = None
                for src_air, edge_i in terms:
                    w = flows[:, src_air] * g.fractions[:, edge_i]
                    weights.append((n_comps + src_air, _uniform(w)))
                    den = w if den is None else den + w
                if den.all():
                    unmixed = None
                else:
                    mixed = den > 0.0
                    den = np.where(mixed, den, 1.0)
                    unmixed = ~mixed
                mixing = (weights[0], tuple(weights[1:]), _uniform(den), unmixed)
            exchange = None
            attached = plan.air_heat.get(air_i)
            if attached:
                cr = cap[:, air_i]
                if (cr > 0.0).all():
                    flowing = None
                    cr_safe = cr
                else:
                    flowing = cr > 0.0
                    cr_safe = np.where(flowing, cr, 1.0)
                exchange = (
                    _uniform(cr * dt),
                    flowing,
                    tuple(
                        (comp_i, _uniform(np.exp(-(k[:, edge_i] / cr_safe))))
                        for comp_i, edge_i in attached
                    ),
                )
            regions.append((n_comps + air_i, mixing, exchange))
        self.regions = tuple(regions)
        #: (a, b, c_eff, -expm1(...)) per component-component edge.
        self.comp_comp = tuple(
            (a_i, b_i, c_eff, _uniform(-np.expm1(-k[:, edge_i] * dt / c_eff)))
            for a_i, b_i, edge_i, c_eff in plan.comp_comp
        )
        #: (a column, b column, mc_a, mc_b, c_eff, -expm1(...)) per
        #: air-air edge.
        air_air = []
        for a_air, b_air, edge_i in plan.air_air:
            mc_a = np.maximum(cap[:, a_air] * dt, 1e-9)
            mc_b = np.maximum(cap[:, b_air] * dt, 1e-9)
            c_eff = 1.0 / (1.0 / mc_a + 1.0 / mc_b)
            decay = -np.expm1(-k[:, edge_i] * dt / c_eff)
            air_air.append((
                n_comps + a_air,
                n_comps + b_air,
                _uniform(mc_a),
                _uniform(mc_b),
                _uniform(c_eff),
                _uniform(decay),
            ))
        self.air_air = tuple(air_air)


def _workspace(g: _Group):
    """The group's reusable arrays: ``start`` and ``heat`` (rows ×
    components, column-major) and three row vectors."""
    rows = g.T.shape[0]
    ws = g.workspace
    if ws is None or ws[2].shape[0] != rows:
        n_comps = g.plan.n_comps
        ws = g.workspace = (
            np.empty((rows, n_comps), order="F"),
            np.empty((rows, n_comps), order="F"),
            np.empty(rows),
            np.empty(rows),
            np.empty(rows),
        )
    return ws


def tick_group(g: _Group, inlet, dt: float) -> None:
    """Advance one batched group a single step of ``dt`` seconds.

    ``inlet`` is the per-row inlet temperature array; it is copied, never
    written.  The caller is responsible for rebuilding stale flow arrays
    first (see :meth:`_Group.rebuild_flows`); the flow coefficients for
    ``dt`` are built here on first use and reused until an edit drops
    them.  Every step writes through its ufunc's output argument into
    the group's workspace or ``T``, so a tick allocates no arrays (table
    power models still call the model once per row).

    Every operation is elementwise along axis 0, so each row's result is
    a pure function of that row's values — stacking more rows (more
    machines, or more *runs* in the sweep batch engine) cannot perturb
    any existing row bitwise.  The only cross-row reads are taken when
    the coefficients are built: the ``all()`` reductions, and the check
    that keeps a coefficient every row shares as one value.  Both merely
    select between bit-equivalent forms of the same per-row values.
    """
    coef = g.coefficients
    if coef is None or coef.dt != dt:
        coef = g.coefficients = _Coefficients(g, dt)
    plan = g.plan
    T = g.T
    n_comps = plan.n_comps
    inlet_col = n_comps + plan.inlet_air
    start, heat, t_air, t_out, q = _workspace(g)
    start[:] = T[:, :n_comps]
    heat.fill(0.0)
    # Each ufunc's third argument is its output array; local names and
    # positional outputs keep the per-call cost down on a few rows.
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide

    # --- intra-machine air traversal (advection + stream exchange) ---
    for col, mixing, exchange in coef.regions:
        if col == inlet_col:
            t_air[:] = inlet
        elif mixing is None:
            t_air[:] = T[:, col]  # stagnant pocket
        else:
            (src_col, w), rest, den, unmixed = mixing
            mul(T[:, src_col], w, t_air)
            for src_col, w in rest:
                mul(T[:, src_col], w, q)
                add(t_air, q, t_air)
            div(t_air, den, t_air)
            if unmixed is not None:
                np.copyto(t_air, T[:, col], where=unmixed)
        if exchange is not None:
            cr_dt, flowing, factors = exchange
            for comp_i, factor in factors:
                body = start[:, comp_i]
                heat_col = heat[:, comp_i]
                sub(t_air, body, t_out)
                mul(t_out, factor, t_out)
                add(body, t_out, t_out)
                sub(t_out, t_air, q)
                mul(cr_dt, q, q)
                if flowing is None:
                    sub(heat_col, q, heat_col)
                    t_air, t_out = t_out, t_air
                else:
                    np.copyto(t_air, t_out, where=flowing)
                    sub(heat_col, q, heat_col, where=flowing)
        T[:, col] = t_air

    # --- inter-component heat flow + air-air conduction ---
    for a_i, b_i, c_eff, decay in coef.comp_comp:
        sub(start[:, a_i], start[:, b_i], q)
        mul(c_eff, q, q)
        mul(q, decay, q)
        heat_a = heat[:, a_i]
        sub(heat_a, q, heat_a)
        heat_b = heat[:, b_i]
        add(heat_b, q, heat_b)
    for a_col, b_col, mc_a, mc_b, c_eff, decay in coef.air_air:
        t_a = T[:, a_col]
        t_b = T[:, b_col]
        sub(t_a, t_b, q)
        mul(c_eff, q, q)
        mul(q, decay, q)
        div(q, mc_a, t_out)
        sub(t_a, t_out, t_a)
        div(q, mc_b, t_out)
        add(t_b, t_out, t_b)

    # --- component self-heating and temperature update ---
    power = q
    for comp_i, spec in enumerate(plan.power_specs):
        if spec[0] == "affine":
            mul(g.util[:, comp_i], spec[2], power)
            add(spec[1], power, power)
        else:
            model = spec[1]
            power[:] = [model.power(u) for u in g.util[:, comp_i].tolist()]
        mul(power, g.factor[:, comp_i], power)
        mul(power, dt, power)
        heat_col = heat[:, comp_i]
        add(heat_col, power, heat_col)
    div(heat, plan.mc, heat)
    add(start, heat, T[:, :n_comps])


class CompiledEngine:
    """Vectorized tick engine driving a :class:`~repro.core.solver.Solver`.

    Owns one :class:`_Group` per distinct layout structure and registers
    the group's :meth:`_Group.apply` as each machine state's mutation
    listener, so fiddle edits and utilization updates land directly in
    the arrays (and invalidate the derived flow arrays and cached
    coefficients when needed) without per-tick polling.
    """

    #: Whether the solver should time this engine's ticks into the
    #: ``solver_tick_seconds`` histogram (a host metric excluded from
    #: sweep artifacts; batch members skip the measurement entirely).
    measure_host_latency = True

    def __init__(self, solver: Solver) -> None:
        self._solver = solver
        by_signature: Dict[Tuple, List[Tuple[str, MachineState]]] = {}
        plans: Dict[Tuple, MachinePlan] = {}
        for name, state in solver.machines.items():
            plan = compile_layout(state.layout)
            by_signature.setdefault(plan.signature, []).append((name, state))
            plans[plan.signature] = plan
        self.groups: List[_Group] = [
            _Group(plans[sig], members) for sig, members in by_signature.items()
        ]
        for group in self.groups:
            for row, state in enumerate(group.states):
                state.listener = partial(group.apply, row)

    # -- stepping --------------------------------------------------------

    def tick(self, inlet_temps: Mapping[str, float]) -> None:
        """Advance every machine one step and write temperatures back."""
        for group in self.groups:
            inlet = np.array([inlet_temps[name] for name in group.names])
            self._tick_group(group, inlet)
            for row, state in enumerate(group.states):
                state.temperatures.update(
                    zip(group.plan.node_names, group.T[row].tolist())
                )

    def _tick_group(self, g: _Group, inlet) -> None:
        solver = self._solver
        if g.flows_dirty:
            g.rebuild_flows()
            if solver.telemetry.enabled:
                solver._tel_recompiles.inc()
                solver.telemetry.event(
                    "engine_recompile",
                    "solver",
                    machines=len(g.names),
                    reason="flows_dirty",
                )
        tick_group(g, inlet, solver.dt)


class CompiledSolver(Solver):
    """A :class:`~repro.core.solver.Solver` preset to the compiled engine."""

    def __init__(
        self,
        layouts: Sequence[MachineLayout],
        cluster: Optional[ClusterLayout] = None,
        dt: float = DEFAULT_DT,
        initial_temperature: Optional[float] = None,
        record: bool = True,
        telemetry=None,
    ) -> None:
        super().__init__(
            layouts,
            cluster=cluster,
            dt=dt,
            initial_temperature=initial_temperature,
            record=record,
            engine="compiled",
            telemetry=telemetry,
        )
