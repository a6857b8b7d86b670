"""Scalar-vs-vectorized policy parity: the refactor's proof harness.

The unified policies in :mod:`repro.control.policies` claim to be
stack-independent: the same code actuating a scalar per-machine room
and a flattened NumPy room must make the same decisions and leave the
rooms at the same temperatures.  This module makes that claim testable:

* :class:`ScalarRoomSolver` re-exposes the per-machine python-engine
  :class:`~repro.core.solver.Solver` behind :class:`~repro.topology.
  sim.FlatSolver`'s exact surface (column reads, vectorized utilization
  feeds, inlet overrides, per-row power factors), so the whole
  :class:`~repro.topology.sim.ScaleSimulation` harness — allocation,
  boots, faults, the policy loop — runs unchanged on top of it.
* :class:`ScalarScaleSimulation` is that substitution: a
  ``ScaleSimulation`` whose physics is the dict-loop reference solver.
* :func:`compare_stacks` runs the same single-zone room + policy on
  both and reports the worst temperature disagreement and whether the
  decision logs (adjustments, releases, redlines, EC events) match.
* :func:`replay_cluster_machine` records one ``ClusterSimulation``
  machine's per-tick solver inputs (inlet temperature and component
  utilizations) so a 1-machine flat room can replay them — the Fig. 12
  parity test drives the vectorized EC policy over such a replay and
  checks the trajectory against the pinned golden.

Tolerances are inherited from the scale equivalence gate
(``benchmarks/test_scale.py``): the flattened solve and the reference
solve agree within 1e-9 Celsius, so parity asserts the same bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import TopologyError

#: Maximum cross-stack temperature disagreement (Celsius), matching the
#: flattened-vs-reference equivalence gate.
PARITY_TOLERANCE = 1e-9


class _UtilMirror:
    """The slice of ``FlatSolver.group`` the views read: a live
    machines×components utilization array."""

    def __init__(self, n: int, n_comps: int) -> None:
        self.util = np.zeros((n, n_comps))


class ScalarRoomSolver:
    """:class:`FlatSolver`'s surface over the per-machine reference solver.

    Holds one :class:`~repro.core.solver.Solver` (python engine, the
    dict-loop reference implementation) over the same topology and
    mirrors the flattened solver's API so :class:`ScaleSimulation` and
    :class:`~repro.control.view.FlatStateView` drive it unmodified.
    Building one is O(machines) python objects per tick — keep parity
    rooms small (tens of machines), that is what the 1e-9 gate runs at.
    """

    def __init__(
        self,
        topology,
        layout=None,
        dt: float = 1.0,
        initial_temperature: Optional[float] = None,
    ) -> None:
        from ..config.layouts import validation_machine
        from ..core.compiled import compile_layout
        from ..core.solver import Solver

        if layout is not None:
            raise TopologyError(
                "the scalar parity room builds its own per-machine layouts"
            )
        self.topology = topology
        self.dt = float(dt)
        self.n = len(topology.machines)
        self._names: Tuple[str, ...] = tuple(topology.machines)
        self.layout = validation_machine("template")
        #: Node/component naming shared with the flattened stack.
        self.plan = compile_layout(self.layout)
        self._solver = Solver(
            [validation_machine(name) for name in self._names],
            topology=topology,
            dt=dt,
            initial_temperature=initial_temperature,
            record=False,
            engine="python",
        )
        self.operator = self._solver._inlet_op
        self.group = _UtilMirror(self.n, self.plan.n_comps)
        self._base_power = {
            name: {
                comp: model.factor
                for comp, model in state.power_models.items()
            }
            for name, state in self._solver.machines.items()
        }

    # -- FlatSolver surface ----------------------------------------------

    @property
    def time(self) -> float:
        return self._solver.time

    @property
    def iterations(self) -> int:
        return self._solver.iterations

    def node_column(self, node: str):
        if node not in self.plan.node_index:
            raise TopologyError(f"unknown node {node!r}")
        machines = self._solver.machines
        return np.array(
            [machines[name].temperatures[node] for name in self._names]
        )

    def set_utilization(self, component: str, values) -> None:
        try:
            col = self.plan.comp_index[component]
        except KeyError:
            raise TopologyError(f"unknown component {component!r}") from None
        vals = np.broadcast_to(
            np.asarray(values, dtype=float), (self.n,)
        )
        self.group.util[:, col] = vals
        machines = self._solver.machines
        for i, name in enumerate(self._names):
            machines[name].set_utilization(component, float(vals[i]))

    def set_inlet_override(self, machine: str, value: Optional[float]) -> None:
        try:
            state = self._solver.machines[machine]
        except KeyError:
            raise TopologyError(f"unknown machine {machine!r}") from None
        state.inlet_override = None if value is None else float(value)

    def set_power_factor(self, row: int, scale: float) -> None:
        name = self._names[row]
        state = self._solver.machines[name]
        for comp, base in self._base_power[name].items():
            state.set_power_scale(comp, base * float(scale))

    def step(self, ticks: int = 1) -> None:
        self._solver.step(ticks)

    def checkpoint(self) -> Dict[str, object]:
        state = self._solver.checkpoint()
        state["util_mirror"] = self.group.util.tolist()
        return state

    def restore(self, data) -> None:
        self.group.util[:] = np.array(data["util_mirror"], dtype=float)
        self._solver.restore(
            {k: v for k, v in data.items() if k != "util_mirror"}
        )

    def __repr__(self) -> str:
        return (
            f"ScalarRoomSolver({self.n} machines, t={self.time:.0f}s)"
        )


from ..topology.sim import ScaleSimulation  # noqa: E402  (after np gate)


class ScalarScaleSimulation(ScaleSimulation):
    """A :class:`ScaleSimulation` whose physics is the reference solver.

    Everything above the solver — workload, allocation, boots, faults,
    the registry policy loop — is the vectorized harness verbatim; only
    the thermal solve runs machine by machine through
    :class:`ScalarRoomSolver`.
    """

    def _make_solver(self, topology, layout, dt):
        return ScalarRoomSolver(topology, layout=layout, dt=dt)


def _decision_log(simulation) -> Dict[str, List]:
    """A policy's decision trail, normalized to plain tuples."""
    policy = simulation.controller
    log: Dict[str, List] = {}
    if policy is None:
        return log
    for field in ("adjustments", "releases", "redlined"):
        if hasattr(policy, field):
            log[field] = [tuple(entry) for entry in getattr(policy, field)]
    if hasattr(policy, "events"):
        log["events"] = [
            tuple(
                event if isinstance(event, tuple)
                else (event.time, event.action, event.machine, event.reason)
            )
            for event in policy.events
        ]
    if hasattr(policy, "shutdowns"):
        log["shutdowns"] = [
            (s.time, s.machine, s.component, s.temperature)
            for s in policy.shutdowns
        ]
    return log


def _decisions_match(
    flat: Dict[str, List], scalar: Dict[str, List], tolerance: float
) -> bool:
    """Same decision sequences; float payloads within ``tolerance``."""
    if flat.keys() != scalar.keys():
        return False
    for key in flat:
        a, b = flat[key], scalar[key]
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if len(x) != len(y):
                return False
            for u, v in zip(x, y):
                if isinstance(u, float) and isinstance(v, float):
                    if abs(u - v) > tolerance:
                        return False
                elif u != v:
                    return False
    return True


def compare_stacks(
    policy: str = "freon",
    machines: int = 12,
    duration: float = 600.0,
    supply: float = 44.0,
    monitor_period: float = 60.0,
    tolerance: float = PARITY_TOLERANCE,
    **kwargs,
) -> Dict[str, object]:
    """Run one matched single-zone room on both stacks and compare.

    Returns a report with the worst per-node end-state temperature
    disagreement (``max_temp_delta``), whether the decision logs match
    (``decisions_match``), and both summaries.  The hot single-zone
    supply default makes Freon-class policies actually act, so the
    comparison exercises the full observe → decide → actuate loop, not
    just the quiescent solve.
    """
    from ..topology.model import grid_topology

    def build(factory):
        topology = grid_topology(
            machines, zones=1, zone_supplies={"zone0": supply}
        )
        return factory(
            topology,
            duration=duration,
            policy=policy,
            monitor_period=monitor_period,
            **kwargs,
        )

    flat = build(ScaleSimulation)
    scalar = build(ScalarScaleSimulation)
    flat_summary = flat.run()
    scalar_summary = scalar.run()
    worst = 0.0
    for node in flat.solver.plan.node_names:
        delta = np.abs(
            flat.solver.node_column(node) - scalar.solver.node_column(node)
        ).max()
        worst = max(worst, float(delta))
    flat_log = _decision_log(flat)
    scalar_log = _decision_log(scalar)
    return {
        "policy": policy,
        "machines": machines,
        "ticks": flat.solver.iterations,
        "max_temp_delta": worst,
        "max_weight_delta": float(
            np.abs(flat.weights - scalar.weights).max()
        ),
        "decisions_match": _decisions_match(flat_log, scalar_log, tolerance),
        "decision_counts": {k: len(v) for k, v in flat_log.items()},
        "flat": flat_summary,
        "scalar": scalar_summary,
    }


def replay_cluster_machine(
    machine: str = "machine1",
    policy: str = "freon-ec",
    duration: float = 120.0,
    engine: str = "python",
) -> Dict[str, List[float]]:
    """Record one cluster machine's per-tick solver inputs.

    Runs a :class:`~repro.cluster.simulation.ClusterSimulation` (the
    Fig. 11/12 configuration: emergency fiddle script, diurnal trace)
    tick by tick and records, for ``machine``, the inlet temperature
    the solver mixed for each tick and the component utilizations it
    heated with — everything a 1-machine flat room needs to replay the
    machine's exact thermal trajectory.
    """
    from ..cluster.simulation import ClusterSimulation, emergency_script
    from ..config import table1

    sim = ClusterSimulation(
        policy=policy, fiddle_script=emergency_script(), engine=engine
    )
    state = sim.solver.machines[machine]
    ticks = int(round(duration / sim.dt))
    inlets: List[float] = []
    cpu: List[float] = []
    disk: List[float] = []
    cpu_T: List[float] = []
    for _ in range(ticks):
        # The traversal is a pure function of (_prev_exhaust, overrides),
        # so sampling it before the tick reads exactly the inlet the
        # tick is about to mix.
        inlets.append(sim.solver._inter_machine_traversal()[machine])
        sim._advance_ticks(1)
        cpu.append(state.utilizations[table1.CPU])
        disk.append(state.utilizations[table1.DISK_PLATTERS])
        cpu_T.append(state.temperatures[table1.CPU])
    return {
        "dt": sim.dt,
        "inlet": inlets,
        "cpu_util": cpu,
        "disk_util": disk,
        "cpu_temperature": cpu_T,
    }
