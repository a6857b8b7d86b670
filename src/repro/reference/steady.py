"""Steady-state finite-volume solver for the 2-D case mesh.

This plays Fluent's role in section 3.2: an independent, fine-grained
model that "computes steady-state temperatures based on a fixed power
consumption for each hardware component".  Per cell the energy balance is

``sum_faces k_face A/d (T_nb - T) + advection + source = 0``

with harmonic-mean face conductivities, first-order upwind advection on
the prescribed velocity field, a Dirichlet inlet (left edge), an outflow
right edge, and adiabatic top/bottom walls.  Air conductivity depends on
temperature, so the linear system is re-assembled in a Picard loop until
the temperature field stops moving.

The result object also computes the quantities the paper extracted from
Fluent to calibrate Mercury: per-block mean temperatures, the heat each
block sheds to the air, and the implied lumped conductances
("Fluent was able to calculate the heat-transfer properties of the
material-to-air boundaries").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import units
from .materials import AIR
from .mesh import CaseMesh

#: Picard-iteration convergence threshold (max cell change, Kelvin).
_PICARD_TOL = 1e-4
_PICARD_MAX_ITER = 60


@dataclass
class SteadyResult:
    """Converged steady-state field plus block-level summaries."""

    mesh: CaseMesh
    temperatures: np.ndarray  # (ny, nx)
    iterations: int

    def block_temperature(self, name: str) -> float:
        """Mean temperature of a component block (what the paper compares)."""
        cells = self.mesh.block_cells(name)
        return float(np.mean([self.temperatures[y, x] for x, y in cells]))

    def block_peak_temperature(self, name: str) -> float:
        """Hottest cell of a component block."""
        cells = self.mesh.block_cells(name)
        return float(np.max([self.temperatures[y, x] for x, y in cells]))

    def outlet_temperature(self) -> float:
        """Flow-weighted air temperature leaving the right edge."""
        mesh = self.mesh
        u = mesh.velocity_field()
        x = mesh.nx - 1
        num = 0.0
        den = 0.0
        for y in range(mesh.ny):
            if mesh.is_air(x, y) and u[y, x] > 0.0:
                num += u[y, x] * self.temperatures[y, x]
                den += u[y, x]
        return num / den if den > 0.0 else mesh.inlet_temperature

    def local_air_temperature(self, name: str) -> float:
        """Mean temperature of the air cells bordering a block."""
        mesh = self.mesh
        block = mesh.blocks[name]
        temps = []
        for y in range(block.y0 - 1, block.y1 + 1):
            for x in range(block.x0 - 1, block.x1 + 1):
                if 0 <= x < mesh.nx and 0 <= y < mesh.ny and mesh.is_air(x, y):
                    inside_x = block.x0 <= x < block.x1
                    inside_y = block.y0 <= y < block.y1
                    on_border = (
                        (x in (block.x0 - 1, block.x1) and block.y0 <= y < block.y1)
                        or (y in (block.y0 - 1, block.y1) and block.x0 <= x < block.x1)
                    )
                    if on_border and not (inside_x and inside_y):
                        temps.append(self.temperatures[y, x])
        return float(np.mean(temps)) if temps else mesh.inlet_temperature

    def effective_conductance(self, name: str) -> float:
        """Lumped block-to-local-air conductance k = P / (T_block - T_air).

        This is the material-to-air boundary property the paper fed from
        Fluent into Mercury as the heat edge's ``k``.
        """
        block = self.mesh.blocks[name]
        delta = self.block_temperature(name) - self.local_air_temperature(name)
        if delta <= 0.0:
            raise ValueError(f"block {name!r} is not hotter than its air")
        return block.power / delta


def solve_steady(mesh: CaseMesh,
                 initial: Optional[np.ndarray] = None) -> SteadyResult:
    """Solve the steady advection-diffusion problem on ``mesh``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import spsolve

    ny, nx = mesh.ny, mesh.nx
    n = nx * ny
    d = mesh.cell_size
    depth = mesh.depth
    velocity = mesh.velocity_field()
    rho_c = units.AIR_DENSITY * units.AIR_SPECIFIC_HEAT

    temps = (
        np.full((ny, nx), mesh.inlet_temperature)
        if initial is None
        else initial.copy()
    )

    def idx(x: int, y: int) -> int:
        return y * nx + x

    for iteration in range(1, _PICARD_MAX_ITER + 1):
        rows: list = []
        cols: list = []
        vals: list = []
        rhs = np.zeros(n)

        def add(r: int, c: int, v: float) -> None:
            rows.append(r)
            cols.append(c)
            vals.append(v)

        for y in range(ny):
            for x in range(nx):
                cell = idx(x, y)
                mat = mesh.material[y][x]
                k_cell = mat.conductivity_at(temps[y, x])
                diag = 0.0
                # -- conduction through the four faces (per unit depth
                #    times depth; square cells make A/d == depth) --
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx_, ny_ = x + dx, y + dy
                    if 0 <= nx_ < nx and 0 <= ny_ < ny:
                        k_nb = mesh.material[ny_][nx_].conductivity_at(
                            temps[ny_, nx_]
                        )
                        k_face = (
                            2.0 * k_cell * k_nb / (k_cell + k_nb)
                            if (k_cell + k_nb) > 0.0
                            else 0.0
                        )
                        g = k_face * depth  # W/K through the face
                        add(cell, idx(nx_, ny_), g)
                        diag -= g
                    elif dx == -1 and mesh.is_air(x, y):
                        # Left edge air cell: Dirichlet inlet through a
                        # half-cell conduction path.
                        g = 2.0 * k_cell * depth
                        rhs[cell] -= g * mesh.inlet_temperature
                        diag -= g
                    # other boundaries: adiabatic (top/bottom/solid-left)
                    # or outflow (right; handled by advection)
                # -- upwind advection (positive-x flow only) --
                u = velocity[y, x]
                if u > 0.0:
                    m_dot = rho_c * u * d * depth  # W/K through the cell
                    if x == 0:
                        rhs[cell] -= m_dot * mesh.inlet_temperature
                    elif mesh.is_air(x - 1, y) and velocity[y, x - 1] > 0.0:
                        add(cell, idx(x - 1, y), m_dot)
                    else:
                        # Wake cell (solid immediately upstream): fed by
                        # entrainment from the *nearby* west-column
                        # streamlines, so no phantom inlet-temperature
                        # air is injected mid-case and stratification is
                        # preserved.  Widen the window only if the near
                        # rows are all solid.
                        west = []
                        for reach in (3, ny):
                            west = [
                                (yy, velocity[yy, x - 1])
                                for yy in range(ny)
                                if abs(yy - y) <= reach
                                and velocity[yy, x - 1] > 0.0
                            ]
                            if west:
                                break
                        total = sum(v for _, v in west)
                        if total > 0.0:
                            for yy, v in west:
                                add(cell, idx(x - 1, yy), m_dot * v / total)
                        else:
                            rhs[cell] -= m_dot * mesh.inlet_temperature
                    diag -= m_dot
                add(cell, cell, diag)
                rhs[cell] -= mesh.source[y, x] * d * d * depth

        matrix = csr_matrix((vals, (rows, cols)), shape=(n, n))
        solution = spsolve(matrix, rhs).reshape(ny, nx)
        change = float(np.max(np.abs(solution - temps)))
        temps = solution
        if change < _PICARD_TOL:
            return SteadyResult(mesh=mesh, temperatures=temps, iterations=iteration)
    return SteadyResult(mesh=mesh, temperatures=temps, iterations=_PICARD_MAX_ITER)
