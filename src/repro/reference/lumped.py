"""Bridging the 2-D reference model and Mercury (paper section 3.2).

The paper calibrated Mercury against Fluent by feeding it "the
heat-transfer properties of the material-to-air boundaries" that Fluent
computed, "with a rough approximation of the air flow that was also
provided by Fluent", then compared steady-state temperatures for 14
combinations of CPU and disk power.  This module reproduces that loop:

* :func:`lumped_case_layout` — a Mercury :class:`MachineLayout` of the
  2-D case: the inlet splits into a disk stream, a PSU stream, and a
  bypass; each stream routes partly over the CPU and partly straight to
  the exhaust (in the mesh, most PSU exhaust air passes *above* the CPU);
* :func:`steady_temperatures` — run Mercury to steady state at fixed
  component powers;
* :func:`calibrate_from_reference` — seed the conductances from one
  reference solution and least-squares polish conductances *and* air
  fractions against a few reference points;
* :func:`comparison_table` — the 14-experiment Mercury-vs-reference
  table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..core.graph import AirEdge, AirRegion, Component, HeatEdge, MachineLayout
from ..core.power import LinearPowerModel
from ..core.solver import Solver
from .mesh import CaseMesh, standard_case
from .steady import SteadyResult, solve_steady

#: Upper bound (W) used to map power onto the linear model's utilization.
_POWER_CEILING = 60.0

#: Node names of the lumped case model.
CASE_INLET = "Inlet"
CASE_DISK_AIR = "Disk Air"
CASE_PSU_AIR = "PSU Air"
CASE_BYPASS = "Bypass Air"
CASE_CPU_AIR = "CPU Air"
CASE_EXHAUST = "Exhaust"
CASE_COMPONENTS = ("cpu", "disk", "psu")

#: The air-routing parameters of the lumped model, with geometry-derived
#: defaults ("a rough approximation of the air flow"): inlet splits, and
#: the share of each front stream that passes over the CPU.
DEFAULT_FRACTIONS: Dict[str, float] = {
    "inlet_disk": 0.25,     # disk occupies 4 of 16 rows
    "inlet_psu": 0.3125,    # PSU occupies 5 of 16 rows
    "disk_to_cpu": 0.8,     # disk sits level with the CPU
    "psu_to_cpu": 0.1,      # PSU air passes above the CPU
    "bypass_to_cpu": 0.5,
}


def case_flow_cfm(mesh: CaseMesh) -> float:
    """Volumetric flow through the 2-D case, in ft^3/min."""
    open_cells = sum(1 for y in range(mesh.ny) if mesh.is_air(0, y))
    flow_m3s = mesh.inlet_velocity * open_cells * mesh.cell_size * mesh.depth
    return units.m3s_to_cfm(flow_m3s)


def lumped_case_layout(
    k_values: Mapping[str, float],
    fractions: Optional[Mapping[str, float]] = None,
    mesh: Optional[CaseMesh] = None,
    name: str = "case2d",
) -> MachineLayout:
    """Mercury's coarse model of the 2-D case (see module docstring)."""
    if mesh is None:
        mesh = standard_case()
    f = dict(DEFAULT_FRACTIONS)
    if fractions:
        f.update(fractions)
    f_bypass = 1.0 - f["inlet_disk"] - f["inlet_psu"]
    if f_bypass < 0.0:
        raise ValueError("inlet fractions exceed 1")
    # Masses only set how fast the lumped model *reaches* steady state
    # (never the steady temperatures themselves), so they are kept small
    # to make steady-state evaluation cheap.
    masses = {"cpu": 0.02, "disk": 0.05, "psu": 0.15}
    components = [
        Component(
            name=comp,
            mass=masses[comp],
            specific_heat=units.ALUMINUM_SPECIFIC_HEAT,
            power_model=LinearPowerModel(0.0, _POWER_CEILING),
            monitored=True,
        )
        for comp in CASE_COMPONENTS
    ]
    air_regions = [
        AirRegion(region)
        for region in (
            CASE_INLET,
            CASE_DISK_AIR,
            CASE_PSU_AIR,
            CASE_BYPASS,
            CASE_CPU_AIR,
            CASE_EXHAUST,
        )
    ]
    heat_edges = [
        HeatEdge("disk", CASE_DISK_AIR, k_values["disk"]),
        HeatEdge("psu", CASE_PSU_AIR, k_values["psu"]),
        HeatEdge("cpu", CASE_CPU_AIR, k_values["cpu"]),
    ]
    air_edges = [
        AirEdge(CASE_INLET, CASE_DISK_AIR, f["inlet_disk"]),
        AirEdge(CASE_INLET, CASE_PSU_AIR, f["inlet_psu"]),
        AirEdge(CASE_INLET, CASE_BYPASS, f_bypass),
        AirEdge(CASE_DISK_AIR, CASE_CPU_AIR, f["disk_to_cpu"]),
        AirEdge(CASE_DISK_AIR, CASE_EXHAUST, 1.0 - f["disk_to_cpu"]),
        AirEdge(CASE_PSU_AIR, CASE_CPU_AIR, f["psu_to_cpu"]),
        AirEdge(CASE_PSU_AIR, CASE_EXHAUST, 1.0 - f["psu_to_cpu"]),
        AirEdge(CASE_BYPASS, CASE_CPU_AIR, f["bypass_to_cpu"]),
        AirEdge(CASE_BYPASS, CASE_EXHAUST, 1.0 - f["bypass_to_cpu"]),
        AirEdge(CASE_CPU_AIR, CASE_EXHAUST, 1.0),
    ]
    return MachineLayout(
        name=name,
        components=components,
        air_regions=air_regions,
        heat_edges=heat_edges,
        air_edges=air_edges,
        inlet=CASE_INLET,
        exhaust=CASE_EXHAUST,
        inlet_temperature=mesh.inlet_temperature,
        fan_cfm=case_flow_cfm(mesh),
    )


def steady_temperatures(
    layout: MachineLayout,
    powers: Mapping[str, float],
    tolerance: float = 1e-3,
    max_time: float = 20000.0,
) -> Dict[str, float]:
    """Run Mercury at fixed powers until temperatures stop moving.

    Returns the temperature of every node.  Convergence is declared when
    no node moves more than ``tolerance`` Kelvin over 50 s of simulated
    time.
    """
    solver = Solver([layout], dt=1.0, record=False)
    for comp, power in powers.items():
        solver.set_utilization(layout.name, comp, power / _POWER_CEILING)
    window = 50
    elapsed = 0.0
    previous = dict(solver.machine(layout.name).temperatures)
    while elapsed < max_time:
        solver.step(window)
        elapsed += window
        current = solver.machine(layout.name).temperatures
        drift = max(abs(current[k] - previous[k]) for k in current)
        if drift < tolerance:
            return dict(current)
        previous = dict(current)
    return dict(solver.machine(layout.name).temperatures)


def conductances_from_reference(result: SteadyResult) -> Dict[str, float]:
    """The material-to-air conductances a reference solution implies."""
    return {name: result.effective_conductance(name) for name in CASE_COMPONENTS}


@dataclass(frozen=True)
class LumpedCalibration:
    """The fitted lumped model parameters."""

    k_values: Dict[str, float]
    fractions: Dict[str, float]
    rmse: float


def calibrate_from_reference(
    mesh: Optional[CaseMesh] = None,
    calibration_powers: Sequence[Tuple[float, float]] = (
        (15.0, 8.0), (15.0, 14.0), (35.0, 8.0), (35.0, 14.0)
    ),
    psu_power: float = 40.0,
) -> LumpedCalibration:
    """Fit the lumped constants and air fractions against the reference.

    Conductances are seeded from the material-to-air boundary properties
    of the first calibration solution; a bounded least-squares pass then
    tunes the three ``k`` values and the five routing fractions so
    Mercury's steady block temperatures match the reference at every
    calibration point.
    """
    from scipy.optimize import least_squares

    if mesh is None:
        mesh = standard_case()
    cpu0, disk0 = calibration_powers[0]
    mesh.set_power("cpu", cpu0)
    mesh.set_power("disk", disk0)
    mesh.set_power("psu", psu_power)
    seed_result = solve_steady(mesh)
    k_seed = conductances_from_reference(seed_result)

    targets: List[Tuple[float, float, Dict[str, float]]] = []
    for cpu_power, disk_power in calibration_powers:
        mesh.set_power("cpu", cpu_power)
        mesh.set_power("disk", disk_power)
        reference = solve_steady(mesh)
        targets.append(
            (
                cpu_power,
                disk_power,
                {name: reference.block_temperature(name) for name in CASE_COMPONENTS},
            )
        )

    k_order = list(CASE_COMPONENTS)
    f_order = list(DEFAULT_FRACTIONS)

    def unpack(x: np.ndarray) -> Tuple[Dict[str, float], Dict[str, float]]:
        k_values = {
            name: float(k_seed[name] * np.exp(x[i])) for i, name in enumerate(k_order)
        }
        fractions = {
            name: float(x[len(k_order) + j]) for j, name in enumerate(f_order)
        }
        return k_values, fractions

    def residuals(x: np.ndarray) -> np.ndarray:
        k_values, fractions = unpack(x)
        if fractions["inlet_disk"] + fractions["inlet_psu"] > 0.98:
            return np.full(len(targets) * len(k_order), 1e3)
        layout = lumped_case_layout(k_values, fractions=fractions, mesh=mesh)
        out: List[float] = []
        for cpu_power, disk_power, reference_temps in targets:
            temps = steady_temperatures(
                layout, {"cpu": cpu_power, "disk": disk_power, "psu": psu_power}
            )
            for name in k_order:
                out.append(temps[name] - reference_temps[name])
        return np.asarray(out)

    x0 = np.concatenate(
        [np.zeros(len(k_order)), [DEFAULT_FRACTIONS[name] for name in f_order]]
    )
    lower = np.concatenate([np.full(len(k_order), -3.0), np.full(len(f_order), 0.02)])
    upper = np.concatenate([np.full(len(k_order), 3.0), np.full(len(f_order), 0.95)])
    fit = least_squares(
        residuals, x0, bounds=(lower, upper), max_nfev=80, xtol=1e-8, diff_step=0.05
    )
    k_values, fractions = unpack(fit.x)
    final = residuals(fit.x)
    rmse = float(np.sqrt(np.mean(final**2)))
    return LumpedCalibration(k_values=k_values, fractions=fractions, rmse=rmse)


@dataclass(frozen=True)
class ComparisonRow:
    """One line of the section 3.2 validation table."""

    cpu_power: float
    disk_power: float
    reference_cpu: float
    mercury_cpu: float
    reference_disk: float
    mercury_disk: float

    @property
    def cpu_error(self) -> float:
        """Mercury-minus-reference CPU temperature (Celsius)."""
        return self.mercury_cpu - self.reference_cpu

    @property
    def disk_error(self) -> float:
        """Mercury-minus-reference disk temperature (Celsius)."""
        return self.mercury_disk - self.reference_disk


def comparison_table(
    power_points: Sequence[Tuple[float, float]],
    calibration: Optional[LumpedCalibration] = None,
    mesh: Optional[CaseMesh] = None,
    psu_power: float = 40.0,
) -> List[ComparisonRow]:
    """Mercury vs. reference steady temperatures at each power point."""
    if mesh is None:
        mesh = standard_case()
    if calibration is None:
        calibration = calibrate_from_reference(mesh)
    layout = lumped_case_layout(
        calibration.k_values, fractions=calibration.fractions, mesh=mesh
    )
    rows: List[ComparisonRow] = []
    for cpu_power, disk_power in power_points:
        mesh.set_power("cpu", cpu_power)
        mesh.set_power("disk", disk_power)
        mesh.set_power("psu", psu_power)
        reference = solve_steady(mesh)
        temps = steady_temperatures(
            layout, {"cpu": cpu_power, "disk": disk_power, "psu": psu_power}
        )
        rows.append(
            ComparisonRow(
                cpu_power=cpu_power,
                disk_power=disk_power,
                reference_cpu=reference.block_temperature("cpu"),
                mercury_cpu=temps["cpu"],
                reference_disk=reference.block_temperature("disk"),
                mercury_disk=temps["disk"],
            )
        )
    return rows


#: The paper ran 14 experiments over different CPU/disk power pairs.
DEFAULT_POWER_POINTS: Tuple[Tuple[float, float], ...] = (
    (10.0, 8.0), (10.0, 14.0),
    (15.0, 8.0), (15.0, 14.0),
    (20.0, 8.0), (20.0, 14.0),
    (25.0, 8.0), (25.0, 14.0),
    (30.0, 8.0), (30.0, 14.0),
    (35.0, 8.0), (35.0, 14.0),
    (40.0, 8.0), (40.0, 14.0),
)
