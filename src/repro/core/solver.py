"""The Mercury solver: coarse-grained finite-element temperature emulation.

Per tick (1 second by default, paper section 2.3) the solver performs the
three traversals of section 2.2:

1. **inter-machine air movement** — each machine's inlet temperature is
   the perfect-mixing weighted average of the cluster edges feeding it
   (air-conditioner supplies and, for recirculation, other machines'
   exhausts from the previous tick).  One
   :class:`~repro.core.inlets.InletOperator` table, compiled from the
   cluster air graph or a spatial topology, evaluates it for both
   engines and for batched sweep members; a solver with neither keeps
   every machine's layout inlet;
2. **intra-machine air movement** — air regions are visited in flow
   (topological) order; each one mixes its incoming streams and then
   exchanges heat with the components it touches in the heat-flow graph
   (the analytically integrated stream exchange of
   :func:`repro.core.physics.stream_exchange`);
3. **inter-component heat flow** — component-to-component conduction plus
   each component's own heat production ``P(utilization) * dt``.

Temperatures of every component and air region can be queried at any
time; the fiddle tool can force temperatures and change any constant
between ticks.  The solver is deterministic: same inputs, same outputs.

Two interchangeable engines perform the per-machine traversals:

* ``engine="python"`` (the default) — the reference implementation in
  this module: scalar loops, one machine at a time, easy to audit
  against the paper's equations.  Each machine ticks from a schedule
  hoisted out of its layout's :class:`~repro.core.compiled.MachinePlan`
  (air order, mixing terms, exchange pairs, edge classes, power specs);
  the terms derived from the flows are rebuilt only after a fraction or
  fan edit, and the :mod:`repro.core.physics` expressions are evaluated
  inline, bit for bit (``tests/core/test_python_tick_bitwise.py``);
* ``engine="compiled"`` — :mod:`repro.core.compiled` lowers the layouts
  into flat NumPy arrays and runs all machines of a step as vectorized
  array operations.  It matches the reference engine within 1e-9 °C
  (see ``tests/golden`` and ``tests/core/test_compiled_equivalence.py``)
  and is the engine the large-cluster benchmarks use.

Both engines share this class's public surface: sensor reads, fiddle
mutations, ``force_temperature``, cluster source overrides, and
:class:`~repro.core.state.History` recording behave identically.
"""

from __future__ import annotations

import time as _time
from math import exp, expm1
from typing import Dict, Mapping, Optional, Sequence

from .. import units
from ..errors import SolverError, UnknownNodeError, UnknownSensorError
from ..telemetry import ensure as _ensure_telemetry
from ..telemetry.registry import LATENCY_BUCKETS
from .graph import ClusterLayout, MachineLayout
from .inlets import ClusterInlets, InletOperator
from .state import History, MachineState, Sample

#: Default solver tick, seconds ("one iteration per second by default").
DEFAULT_DT = 1.0

#: Supported solver engines.
ENGINES = ("python", "compiled")


class Solver:
    """Computes temperatures for one machine or a cluster of machines.

    Parameters
    ----------
    layouts:
        The machines to emulate.  For a clustered system pass ``cluster``
        as well; machine inlet temperatures are then driven by the
        inter-machine air-flow graph instead of each layout's fixed
        inlet temperature.
    dt:
        Emulation time step in seconds.
    initial_temperature:
        Starting temperature of every object and air region ("all objects
        and air regions start the emulation at a user-defined initial air
        temperature").  Defaults to the first layout's inlet temperature.
    record:
        When true, a :class:`~repro.core.state.History` sample is stored
        for every machine on every tick.
    engine:
        ``"python"`` (reference dict-loop implementation) or
        ``"compiled"`` (vectorized NumPy implementation from
        :mod:`repro.core.compiled`).
    telemetry:
        An optional :class:`repro.telemetry.Telemetry`; when given, the
        solver records per-tick latency, node-update counts, and (for
        the compiled engine) recompiles.  ``None`` means the shared
        no-op facade — the tick hot path then pays only a flag check.
    topology:
        An optional :class:`repro.topology.Topology`.  Machine inlets
        are then the convex mix of their zone's cold-aisle supply and
        the recirculation edges feeding them (see
        :mod:`repro.topology.recirculation`), replacing the cluster
        air graph; ``cluster`` and ``topology`` are mutually exclusive.
    """

    def __init__(
        self,
        layouts: Sequence[MachineLayout],
        cluster: Optional[ClusterLayout] = None,
        dt: float = DEFAULT_DT,
        initial_temperature: Optional[float] = None,
        record: bool = True,
        engine: str = "python",
        telemetry=None,
        topology=None,
    ) -> None:
        if not layouts:
            raise SolverError("at least one machine layout is required")
        if dt <= 0.0:
            raise SolverError("dt must be positive")
        names = [layout.name for layout in layouts]
        if len(set(names)) != len(names):
            raise SolverError(f"duplicate machine names: {names}")
        if cluster is not None:
            missing = set(names) - set(cluster.machines)
            extra = set(cluster.machines) - set(names)
            if missing or extra:
                raise SolverError(
                    "cluster layout machines do not match solver machines "
                    f"(missing={sorted(missing)}, extra={sorted(extra)})"
                )
        if topology is not None:
            if cluster is not None:
                raise SolverError(
                    "pass either cluster or topology, not both"
                )
            missing = set(names) - set(topology.machines)
            extra = set(topology.machines) - set(names)
            if missing or extra:
                raise SolverError(
                    "topology machines do not match solver machines "
                    f"(missing={sorted(missing)}, extra={sorted(extra)})"
                )
        self.dt = dt
        self.cluster = cluster
        self.topology = topology
        if initial_temperature is None:
            initial_temperature = layouts[0].inlet_temperature
        self.machines: Dict[str, MachineState] = {
            layout.name: MachineState(layout, initial_temperature)
            for layout in layouts
        }
        self.time = 0.0
        self.iterations = 0
        #: Ticks skipped by :meth:`coast` (idle fast-forward).
        self.coasted_ticks = 0
        self.record = record
        self.history = History()
        #: Each machine's fixed layout inlet temperature.
        self._layout_inlets: Dict[str, float] = {
            layout.name: layout.inlet_temperature for layout in layouts
        }
        #: The inter-machine traversal: the cluster air graph's or the
        #: topology's inlet operator, or None when every machine keeps
        #: its layout inlet.
        self._inlet_op: Optional[InletOperator] = None
        if cluster is not None:
            self._inlet_op = ClusterInlets(cluster, self._layout_inlets)
        elif topology is not None:
            from ..topology.recirculation import RecirculationOperator

            self._inlet_op = RecirculationOperator(topology)
        #: Exhaust temperature of each machine at the end of the previous
        #: tick; used by the inter-machine traversal.
        self._prev_exhaust: Dict[str, float] = {
            name: initial_temperature for name in self.machines
        }
        if engine not in ENGINES:
            raise SolverError(f"unknown engine {engine!r}; pick from {ENGINES}")
        self.engine = engine
        self.telemetry = _ensure_telemetry(telemetry)
        engine_labels = {"engine": engine}
        self._tel_tick_hist = self.telemetry.histogram(
            "solver_tick_seconds", engine_labels, buckets=LATENCY_BUCKETS,
            help="Wall-clock latency of one solver tick.",
        )
        self._tel_ticks = self.telemetry.counter(
            "solver_ticks_total", engine_labels,
            help="Solver iterations performed.",
        )
        self._tel_nodes = self.telemetry.counter(
            "solver_node_updates_total", engine_labels,
            help="Node (component + air region) temperature updates.",
        )
        self._tel_recompiles = self.telemetry.counter(
            "solver_recompiles_total", engine_labels,
            help="Lazy flow-array recompiles after fiddle edits (compiled engine).",
        )
        self._tel_sim_time = self.telemetry.gauge(
            "solver_sim_time_seconds", help="Current emulated time.",
        )
        self._n_nodes = sum(
            len(state.temperatures) for state in self.machines.values()
        )
        if engine == "compiled":
            from .compiled import CompiledEngine

            self._impl = CompiledEngine(self)
        else:
            self._impl = _PythonEngine(self)
        if record:
            self._record_all()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def machine(self, name: str) -> MachineState:
        """The mutable state of the named machine."""
        try:
            return self.machines[name]
        except KeyError:
            raise UnknownSensorError(name, "<machine>") from None

    def temperature(self, machine: str, node: str) -> float:
        """Current temperature (Celsius) of a node, as a sensor would report.

        ``node`` may be an exact vertex name or the special name
        ``"inlet"`` / ``"exhaust"`` which resolve through the layout.
        """
        state = self.machine(machine)
        resolved = self._resolve_node(state, node)
        return state.temperatures[resolved]

    def _resolve_node(self, state: MachineState, node: str) -> str:
        layout = state.layout
        if node in state.temperatures:
            return node
        lowered = node.strip().lower()
        if lowered == "inlet":
            return layout.inlet
        if lowered == "exhaust":
            return layout.exhaust
        # Case-insensitive fallback so sensor names like "cpu" work.
        matches = [name for name in state.temperatures if name.lower() == lowered]
        if len(matches) == 1:
            return matches[0]
        raise UnknownSensorError(layout.name, node)

    def set_utilization(self, machine: str, component: str, utilization: float) -> None:
        """Feed a component utilization (monitord's update path)."""
        self.machine(machine).set_utilization(component, utilization)

    def set_utilizations(self, machine: str, utilizations: Mapping[str, float]) -> None:
        """Feed several component utilizations at once."""
        state = self.machine(machine)
        for component, utilization in utilizations.items():
            state.set_utilization(component, utilization)

    # ------------------------------------------------------------------
    # fiddle interface
    # ------------------------------------------------------------------

    def force_temperature(self, machine: str, node: str, value: float) -> None:
        """Force a node temperature; ``node`` accepts "inlet"/"exhaust" too.

        Forcing the inlet installs a persistent override (this is how an
        air-conditioning failure is emulated); forcing any other node sets
        its state once and lets physics take over again.
        """
        state = self.machine(machine)
        resolved = self._resolve_node(state, node)
        if resolved == state.layout.inlet:
            state.inlet_override = value
        state.set_temperature(resolved, value)

    def clear_inlet_override(self, machine: str) -> None:
        """Return a machine's inlet to layout/cluster control."""
        self.machine(machine).inlet_override = None

    def set_source_temperature(self, source: str, value: float) -> None:
        """Override a cluster cooling source's supply temperature."""
        if self.cluster is None:
            raise UnknownNodeError(source)
        self._inlet_op.set_source(source, value)

    def set_cluster_fraction(self, src: str, dst: str, value: float) -> None:
        """Change an inter-machine air edge's fraction (fiddle).

        Emulates rack/air-path changes at run time, e.g. a failed damper
        sending less AC air to a machine.  A fraction outside [0, 1], or
        one that would leave ``dst`` with no incoming air, raises
        :class:`~repro.errors.SolverError` and changes nothing.  Drops
        the compiled inlet table; the next tick mixes with the new
        weights.
        """
        if self.cluster is None:
            raise UnknownNodeError(f"{src}->{dst}")
        self._inlet_op.set_fraction(src, dst, value)

    def set_zone_supply(self, zone: str, value: float) -> None:
        """Override a topology zone's cold-aisle supply temperature (fiddle).

        Emulates a zonal air-conditioner failure or set-point change;
        every machine in the zone sees the new supply in its inlet mix
        from the next tick on.
        """
        if self.topology is None:
            raise SolverError("no topology configured")
        self._inlet_op.set_supply(zone, value)

    def set_recirculation(self, src: str, dst: str, weight: float) -> None:
        """Change a topology recirculation edge's weight (fiddle).

        Emulates a containment/blanking-panel change: more or less of
        ``src``'s exhaust re-entering ``dst``'s inlet.  The edge must
        exist in the topology and the new incoming weights of ``dst``
        must stay convex (sum <= 1).
        """
        if self.topology is None:
            raise SolverError("no topology configured")
        self._inlet_op.set_weight(src, dst, weight)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, ticks: int = 1) -> None:
        """Advance the emulation by ``ticks`` solver iterations."""
        for _ in range(ticks):
            self._tick()

    def run(self, duration: float) -> None:
        """Advance the emulation by ``duration`` seconds of simulated time."""
        ticks = int(round(duration / self.dt))
        self.step(ticks)

    def coast(self, ticks: int = 1) -> None:
        """Advance the clock ``ticks`` iterations without recomputing.

        The idle fast-forward path of the cluster harness calls this
        once it has established that every input is unchanged and the
        temperature field has converged: all node temperatures (and the
        previous-tick exhausts the inter-machine traversal reads) are
        held verbatim, so a later real :meth:`step` continues from
        exactly the state a full step sequence would have reached, to
        within the caller's convergence threshold.
        """
        for _ in range(ticks):
            self.time += self.dt
            self.coasted_ticks += 1
            if self.telemetry.enabled:
                self.telemetry.advance(self.time)
                self.telemetry.counter(
                    "solver_coasts_total", {"engine": self.engine},
                    help="Solver ticks skipped by idle fast-forward.",
                ).inc()
                self._tel_sim_time.set(self.time)
            if self.record:
                self._record_all()

    def _tick(self) -> None:
        impl = self._impl
        measure = self.telemetry.enabled and impl.measure_host_latency
        if measure:
            tick_start = _time.perf_counter()
        impl.tick(self._inter_machine_traversal())
        # A deferred engine (a batched sweep member) writes the exhausts
        # back when the pool computes the tick.
        if not getattr(impl, "deferred", False):
            for name, state in self.machines.items():
                self._prev_exhaust[name] = state.temperatures[
                    state.layout.exhaust
                ]
        self.time += self.dt
        self.iterations += 1
        if self.telemetry.enabled:
            # Keep the facade's sim clock current even when the solver
            # runs standalone (offline traces, `repro solve`).
            self.telemetry.advance(self.time)
            if measure:
                self._tel_tick_hist.observe(_time.perf_counter() - tick_start)
            self._tel_ticks.inc()
            self._tel_nodes.inc(self._n_nodes)
            self._tel_sim_time.set(self.time)
        if self.record:
            self._record_all()

    def _inter_machine_traversal(self) -> Dict[str, float]:
        """Each machine's inlet temperature for this tick.

        An inlet override wins; otherwise the inlet operator mixes the
        previous tick's exhausts, and a solver without one keeps every
        layout inlet.
        """
        if self._inlet_op is None:
            inlets = dict(self._layout_inlets)
        else:
            inlets = self._inlet_op.inlets(self._prev_exhaust)
        for name, state in self.machines.items():
            if state.inlet_override is not None:
                inlets[name] = state.inlet_override
        return inlets

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot all mutable solver state as plain JSON-able data.

        Captures everything :meth:`restore` needs to continue a run
        bit-for-bit: the clock, per-machine temperatures and live
        constants (k, fractions, fan, power scales, utilizations,
        inlet overrides), cluster-level overrides, and the previous-tick
        exhaust temperatures the inter-machine traversal reads.

        :class:`~repro.core.state.History` recordings are *not*
        checkpointed — a resumed solver records from the resume point
        onward; callers needing the full series keep their own records
        (as :class:`~repro.cluster.simulation.ClusterSimulation` does).
        """
        machines: Dict[str, object] = {}
        for name, state in self.machines.items():
            machines[name] = {
                "temperatures": dict(state.temperatures),
                "k": {f"{a}|{b}": v for (a, b), v in state.k.items()},
                "fractions": {
                    f"{src}|{dst}": v
                    for (src, dst), v in state.fractions.items()
                },
                "fan_cfm": state.fan_cfm,
                "inlet_override": state.inlet_override,
                "utilizations": dict(state.utilizations),
                "power_factors": {
                    component: model.factor
                    for component, model in state.power_models.items()
                },
            }
        data = {
            "time": self.time,
            "iterations": self.iterations,
            "prev_exhaust": dict(self._prev_exhaust),
            "source_overrides": {},
            "cluster_fractions": {},
            "machines": machines,
        }
        if self.cluster is not None:
            data.update(self._inlet_op.checkpoint())
        elif self.topology is not None:
            # The key is present only when a topology is configured, so
            # topology-free checkpoints stay byte-identical to older ones.
            data["topology"] = self._inlet_op.checkpoint()
        return data

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` onto this solver.

        The solver must have been built from the same layouts (same
        machines, nodes, and edges).  All state is written through the
        :class:`~repro.core.state.MachineState` setter methods, so an
        attached engine listener (the compiled engine's array mirror)
        observes every mutation and stays in sync.
        """
        for name, saved in data["machines"].items():  # type: ignore[union-attr]
            state = self.machine(name)
            for node, value in saved["temperatures"].items():
                state.set_temperature(node, value)
            for key, value in saved["k"].items():
                a, b = key.split("|")
                state.set_k(a, b, value)
            for key, value in saved["fractions"].items():
                src, dst = key.split("|")
                state.set_fraction(src, dst, value)
            state.set_fan_cfm(saved["fan_cfm"])
            state.inlet_override = saved["inlet_override"]
            for component, value in saved["utilizations"].items():
                state.set_utilization(component, value)
            for component, factor in saved["power_factors"].items():
                state.set_power_scale(component, factor)
        self.time = float(data["time"])
        self.iterations = int(data["iterations"])
        self._prev_exhaust = {
            name: float(v) for name, v in data["prev_exhaust"].items()
        }
        if self.cluster is not None:
            self._inlet_op.restore(data)
        elif self.topology is not None and "topology" in data:
            self._inlet_op.restore(data["topology"])

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _record_all(self) -> None:
        for name, state in self.machines.items():
            self.history.append(
                name,
                Sample(
                    time=self.time,
                    temperatures=dict(state.temperatures),
                    utilizations=dict(state.utilizations),
                    powers={c: state.power(c) for c in state.layout.components},
                ),
            )

    def __repr__(self) -> str:
        return (
            f"Solver({len(self.machines)} machines, dt={self.dt}, "
            f"t={self.time:.0f}s, engine={self.engine!r})"
        )


class _PythonEngine:
    """The reference engine: per-machine scalar traversals in Python.

    Each machine ticks from a :class:`_MachineSchedule` hoisted out of
    its layout's :class:`~repro.core.compiled.MachinePlan`, so a tick
    walks prebuilt node-name tables instead of re-deriving the layout's
    edge structure.
    """

    #: See :class:`repro.core.compiled.CompiledEngine`.
    measure_host_latency = True

    def __init__(self, solver: Solver) -> None:
        from .compiled import compile_layout

        self._solver = solver
        self._schedules = [
            (name, _MachineSchedule(state, compile_layout(state.layout)))
            for name, state in solver.machines.items()
        ]

    def tick(self, inlet_temps: Mapping[str, float]) -> None:
        dt = self._solver.dt
        for name, schedule in self._schedules:
            schedule.tick(inlet_temps[name], dt)


class _MachineSchedule:
    """One machine's reference tick, scheduled from its compiled plan.

    The plan's structure — air order, mixing sources, stream-exchange
    pairs, comp-comp and air-air edges, power specs, m*c — is translated
    to node names once.  What the tick derives from the flows — mixing
    weights and their sum, the heat-capacity rate ṁc and ṁc*dt per
    region, the air-air masses — is rebuilt only when ``state.flows()``
    returns a new dict (after a fraction or fan edit) or ``dt`` changes.
    ``k``, utilizations and power factors are read live every tick.

    :meth:`tick` evaluates the expressions of
    :func:`~repro.core.physics.mix_streams`,
    :func:`~repro.core.physics.stream_exchange`,
    :func:`~repro.core.physics.conduction_heat`,
    :func:`~repro.core.physics.temperature_delta` and
    :meth:`ScaledPowerModel.heat <repro.core.power.ScaledPowerModel.heat>`
    inline, in their operand order (mixes added left to right, as
    ``mix_streams`` adds them), so each temperature is bitwise what
    calling them gives.  Table and other non-affine power models are
    still called.
    """

    def __init__(self, state: MachineState, plan) -> None:
        self.state = state
        names = plan.comp_names
        air = plan.air_names
        keys = plan.heat_keys
        pairs = tuple(plan.air_edge_index)  # (src, dst) per air-edge index
        #: Per region in flow order: (region, sources, exchanges), where
        #: ``sources`` is None for the inlet, else the region's mixing
        #: terms ((src region, (src, dst)), ...), and ``exchanges`` its
        #: stream-exchange pairs ((component index, component, k key), ...).
        self._layout_regions = tuple(
            (
                air[air_i],
                None if air_i == plan.inlet_air else tuple(
                    (air[src], pairs[edge_i])
                    for src, edge_i in plan.incoming.get(air_i, ())
                ),
                tuple(
                    (comp_i, names[comp_i], keys[edge_i])
                    for comp_i, edge_i in plan.air_heat.get(air_i, ())
                ),
            )
            for air_i in plan.air_order
        )
        self._comp_comp = tuple(
            (names[a], names[b], a, b, keys[edge_i], c_eff)
            for a, b, edge_i, c_eff in plan.comp_comp
        )
        self._air_air_edges = tuple(
            (air[a], air[b], keys[edge_i]) for a, b, edge_i in plan.air_air
        )
        #: (component, m*c, base, span); base and span are None for a
        #: model the tick calls instead of evaluating Eq. 4 inline.
        self._components = tuple(
            (name, mc) + (spec[1:] if spec[0] == "affine" else (None, None))
            for name, mc, spec in zip(names, plan.mc.tolist(), plan.power_specs)
        )
        self._n_comps = len(names)
        self._flows: Optional[Dict[str, float]] = None
        self._dt: Optional[float] = None

    def _schedule_flows(self, flows: Dict[str, float], dt: float) -> None:
        """Rebuild the flow-derived terms for ``flows`` and ``dt``."""
        fractions = self.state.fractions
        regions = []
        for region, sources, exchanges in self._layout_regions:
            total = None
            if sources is not None:
                terms = []
                for src, pair in sources:
                    weight = flows.get(src, 0.0) * fractions[pair]
                    if weight > 0.0:
                        terms.append((src, weight))
                sources = tuple(terms)
                if sources:
                    total = 0.0
                    for _, weight in sources:
                        total += weight
            capacity_rate = units.air_heat_capacity_rate(flows.get(region, 0.0))
            if capacity_rate <= 0.0:
                exchanges = ()  # no flow: no stream exchange happens
            regions.append(
                (region, sources, total, capacity_rate, capacity_rate * dt,
                 exchanges)
            )
        self._regions = tuple(regions)
        air_air = []
        for a, b, key in self._air_air_edges:
            # Each side's per-tick thermal mass is the air that transits
            # it during the step.
            mc_a = max(units.air_heat_capacity_rate(flows.get(a, 0.0)) * dt, 1e-9)
            mc_b = max(units.air_heat_capacity_rate(flows.get(b, 0.0)) * dt, 1e-9)
            air_air.append((a, b, key, mc_a, mc_b, 1.0 / (1.0 / mc_a + 1.0 / mc_b)))
        self._air_air = tuple(air_air)
        self._flows = flows
        self._dt = dt

    def tick(self, inlet_temperature: float, dt: float) -> None:
        """Advance the machine one step of ``dt`` seconds."""
        state = self.state
        flows = state.flows()
        if flows is not self._flows or dt != self._dt:
            self._schedule_flows(flows, dt)
        temps = state.temperatures
        k = state.k
        # Heat gained by each component this tick (J), applied at the
        # end; until then ``temps`` holds every component's start value.
        heat = [0.0] * self._n_comps

        # --- intra-machine air traversal (advection + stream exchange) ---
        for region, sources, total, cr, cr_dt, exchanges in self._regions:
            if sources is None:
                t_air = inlet_temperature
            elif sources:
                t_air = 0.0
                for src, w in sources:
                    t_air += temps[src] * w
                t_air /= total
            else:
                t_air = temps[region]  # stagnant pocket keeps its temperature
            for comp_i, component, key in exchanges:
                body = temps[component]
                t_out = body + (t_air - body) * exp(-(k[key] / cr))
                heat[comp_i] -= cr_dt * (t_out - t_air)
                t_air = t_out
            temps[region] = t_air

        # --- inter-component heat flow + air-air conduction ---
        for a, b, a_i, b_i, key, c_eff in self._comp_comp:
            q = c_eff * (temps[a] - temps[b]) * -expm1(-k[key] * dt / c_eff)
            heat[a_i] -= q
            heat[b_i] += q
        for a, b, key, mc_a, mc_b, c_eff in self._air_air:
            q = c_eff * (temps[a] - temps[b]) * -expm1(-k[key] * dt / c_eff)
            temps[a] -= q / mc_a
            temps[b] += q / mc_b

        # --- component self-heating and temperature update ---
        # set_utilization keeps utilizations in [0, 1], where the power
        # models' clamp is the identity.
        utilizations = state.utilizations
        models = state.power_models
        for (name, mc, base, span), q in zip(self._components, heat):
            if span is None:
                q += models[name].heat(utilizations[name], dt)
            else:
                q += (base + utilizations[name] * span) * models[name].factor * dt
            temps[name] += q / mc
