"""Transient integration of the 2-D case mesh (vectorized).

The steady solver answers section 3.2's question; this explicit
time-integrator answers a different one the engineering tools also serve:
*how fast* the meshed case responds to a power step.  It reuses the same
finite-volume discretization (conduction with harmonic-mean face
conductivities, upwind advection with wake entrainment) and marches it
forward with per-cell heat capacities, fully vectorized over the grid.

Temperature-dependent conductivities change slowly, so the face
conductance arrays are refreshed every ``_K_REFRESH_STEPS`` rather than
every step; the error this introduces is far below the scheme's own
truncation error.

Used in tests to cross-check the steady solver (the transient solution
must converge to it) and to extract meshed-model time constants that
Mercury's lumped masses can be compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .. import units
from .mesh import CaseMesh

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: Stability safety factor on the explicit time-step bound.
_CFL_SAFETY = 0.4

#: Steps between refreshes of the temperature-dependent conductances.
_K_REFRESH_STEPS = 200


@dataclass
class TransientResult:
    """Temperature field history of a transient run."""

    mesh: CaseMesh
    times: List[float]
    #: Mean block temperature per sample, per block name.
    block_history: Dict[str, List[float]]
    #: Final full field, shape (ny, nx).
    final: np.ndarray

    def block_temperature(self, name: str) -> float:
        """Final mean temperature of a block."""
        return self.block_history[name][-1]

    def time_to_fraction(self, name: str, fraction: float = 0.632) -> float:
        """Time for a block to cover ``fraction`` of its total rise.

        With ``fraction`` = 1 - 1/e this is the block's effective time
        constant for the run's power step.
        """
        series = self.block_history[name]
        start, end = series[0], series[-1]
        if abs(end - start) < 1e-9:
            return 0.0
        target = start + fraction * (end - start)
        for t, value in zip(self.times, series):
            if (value - target) * (end - start) >= 0.0:
                return t
        return self.times[-1]


def stable_dt(mesh: CaseMesh) -> float:
    """The explicit scheme's stability bound for this mesh."""
    d = mesh.cell_size
    velocity = mesh.velocity_field()
    rho_c_air = units.AIR_DENSITY * units.AIR_SPECIFIC_HEAT
    worst = float("inf")
    for y in range(mesh.ny):
        for x in range(mesh.nx):
            mat = mesh.material[y][x]
            # Conservative k estimate (hot air conducts a bit better).
            k = mat.conductivity_at(80.0)
            capacity = mat.volumetric_heat_capacity * d * d  # per depth
            conduction = 4.0 * k  # four faces, A/d == 1 per depth
            advection = rho_c_air * velocity[y, x] * d
            rate = conduction + advection
            if rate > 0.0:
                worst = min(worst, capacity / rate)
    return _CFL_SAFETY * worst


def _material_arrays(mesh: CaseMesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base conductivity, conductivity slope, volumetric heat capacity)."""
    ny, nx = mesh.ny, mesh.nx
    base = np.empty((ny, nx))
    slope = np.empty((ny, nx))
    capacity = np.empty((ny, nx))
    for y in range(ny):
        for x in range(nx):
            mat = mesh.material[y][x]
            base[y, x] = mat.conductivity
            slope[y, x] = mat.conductivity_slope
            capacity[y, x] = mat.volumetric_heat_capacity
    return base, slope, capacity


def _upstream_operator(
    mesh: CaseMesh, velocity: np.ndarray
) -> Tuple[csr_matrix, np.ndarray]:
    """Sparse operator mapping the field to per-cell upstream temperature.

    ``upstream = U @ T.ravel() + b * T_inlet`` for every cell with flow;
    cells without flow get zero rows (their advective term is masked out).
    Wake cells draw from the entrained west-column donors, matching the
    steady solver.
    """
    from scipy.sparse import csr_matrix

    ny, nx = mesh.ny, mesh.nx
    n = ny * nx
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    b = np.zeros(n)

    def idx(x: int, y: int) -> int:
        return y * nx + x

    for y in range(ny):
        for x in range(nx):
            if velocity[y, x] <= 0.0:
                continue
            cell = idx(x, y)
            if x == 0:
                b[cell] = 1.0
            elif mesh.is_air(x - 1, y) and velocity[y, x - 1] > 0.0:
                rows.append(cell)
                cols.append(idx(x - 1, y))
                vals.append(1.0)
            else:
                west: List[Tuple[int, float]] = []
                for reach in (3, ny):
                    west = [
                        (yy, velocity[yy, x - 1])
                        for yy in range(ny)
                        if abs(yy - y) <= reach and velocity[yy, x - 1] > 0.0
                    ]
                    if west:
                        break
                total = sum(v for _, v in west)
                if total > 0.0:
                    for yy, v in west:
                        rows.append(cell)
                        cols.append(idx(x - 1, yy))
                        vals.append(v / total)
                else:
                    b[cell] = 1.0
    return csr_matrix((vals, (rows, cols)), shape=(n, n)), b


def solve_transient(
    mesh: CaseMesh,
    duration: float,
    initial: Optional[np.ndarray] = None,
    sample_every: float = 5.0,
    dt: Optional[float] = None,
) -> TransientResult:
    """Integrate the mesh for ``duration`` seconds from ``initial``.

    ``initial`` defaults to a uniform field at the inlet temperature (a
    cold start against a power step).  The integrator uses the largest
    stable explicit step unless ``dt`` is given.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    ny, nx = mesh.ny, mesh.nx
    d = mesh.cell_size
    depth = mesh.depth
    velocity = mesh.velocity_field()
    rho_c_air = units.AIR_DENSITY * units.AIR_SPECIFIC_HEAT
    if dt is None:
        dt = stable_dt(mesh)
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    temps = (
        np.full((ny, nx), mesh.inlet_temperature)
        if initial is None
        else initial.astype(float).copy()
    )

    base_k, slope_k, vol_capacity = _material_arrays(mesh)
    capacity = vol_capacity * d * d * depth
    source_power = mesh.source * d * d * depth  # W per cell
    m_dot = rho_c_air * velocity * d * depth
    flow_mask = velocity > 0.0
    upstream_op, inlet_weight = _upstream_operator(mesh, velocity)
    inlet_air_left = np.array(
        [mesh.is_air(0, y) for y in range(ny)], dtype=bool
    )

    # Block-cell index lists for sampling.
    block_cells = {
        name: tuple(np.array(list(zip(*mesh.block_cells(name))))[::-1])
        for name in mesh.blocks
    }  # (y_indices, x_indices)

    def block_mean(name: str) -> float:
        ys, xs = block_cells[name]
        return float(temps[ys, xs].mean())

    def refresh_conductances(field: np.ndarray):
        k = base_k * (1.0 + slope_k * (field - 25.0))
        k = np.maximum(k, 0.1 * base_k)
        gx = 2.0 * k[:, :-1] * k[:, 1:] / (k[:, :-1] + k[:, 1:]) * depth
        gy = 2.0 * k[:-1, :] * k[1:, :] / (k[:-1, :] + k[1:, :]) * depth
        g_inlet = 2.0 * k[:, 0] * depth
        return gx, gy, g_inlet

    gx, gy, g_inlet = refresh_conductances(temps)

    times: List[float] = [0.0]
    block_history: Dict[str, List[float]] = {
        name: [block_mean(name)] for name in mesh.blocks
    }

    elapsed = 0.0
    next_sample = sample_every
    steps = int(np.ceil(duration / dt))
    for step in range(steps):
        if step and step % _K_REFRESH_STEPS == 0:
            gx, gy, g_inlet = refresh_conductances(temps)
        flux = np.zeros_like(temps)
        dx_flow = gx * (temps[:, 1:] - temps[:, :-1])
        flux[:, :-1] += dx_flow
        flux[:, 1:] -= dx_flow
        dy_flow = gy * (temps[1:, :] - temps[:-1, :])
        flux[:-1, :] += dy_flow
        flux[1:, :] -= dy_flow
        flux[inlet_air_left, 0] += g_inlet[inlet_air_left] * (
            mesh.inlet_temperature - temps[inlet_air_left, 0]
        )
        upstream = (
            upstream_op @ temps.ravel() + inlet_weight * mesh.inlet_temperature
        ).reshape(ny, nx)
        flux[flow_mask] += m_dot[flow_mask] * (
            upstream[flow_mask] - temps[flow_mask]
        )
        temps = temps + dt * (flux + source_power) / capacity
        elapsed += dt
        if elapsed >= next_sample or step == steps - 1:
            times.append(elapsed)
            for name in mesh.blocks:
                block_history[name].append(block_mean(name))
            next_sample += sample_every

    return TransientResult(
        mesh=mesh, times=times, block_history=block_history, final=temps
    )
