"""The simplified heat-transfer physics behind Mercury (paper section 2.1).

Mercury deliberately trades fidelity for simplicity: the physical world is
reduced to five equations — conservation of heat, Newton's law of cooling,
a utilization-linear power model, and the heat-capacity relation between
internal energy and temperature.  This module implements those equations
as small, well-tested functions that the solver composes.

Two numerically robust helpers extend the paper's explicit formulation:

* :func:`conduction_heat` clamps the explicitly integrated heat so a
  single step can never push two bodies past their equilibrium
  temperature (which the naive explicit form does when
  ``k * dt > m * c``).
* :func:`stream_exchange` solves Newton's law analytically for a flowing
  air stream passing a hot component (the standard steady-flow
  heat-exchanger "effectiveness" solution).  Air regions in a server have
  tiny thermal mass per solver tick, so the explicit form would be wildly
  unstable there; the analytic form is unconditionally stable and reduces
  to Newton's law for small exchange numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def newton_cooling_heat(k: float, t_hot: float, t_cold: float, dt: float) -> float:
    """Heat (J) transferred in time ``dt`` by Newton's law of cooling (Eq. 2).

    ``Q = k * (T1 - T2) * dt``.  Positive when ``t_hot > t_cold`` (heat
    flows from 1 to 2).  ``k`` (W/K) embodies the heat-transfer
    coefficient and the contact surface area.
    """
    return k * (t_hot - t_cold) * dt


def temperature_delta(heat: float, mass: float, specific_heat: float) -> float:
    """Temperature change (K) of an object absorbing ``heat`` Joules (Eq. 5).

    ``dT = dQ / (m * c)``; valid because Mercury assumes constant pressure
    and volume, making temperature proportional to internal energy.
    """
    if mass <= 0.0 or specific_heat <= 0.0:
        raise ValueError("mass and specific heat must be positive")
    return heat / (mass * specific_heat)


def conduction_heat(
    k: float,
    t_1: float,
    t_2: float,
    dt: float,
    mc_1: float,
    mc_2: float,
) -> float:
    """Heat (J) flowing from body 1 to body 2 over ``dt``, stability-clamped.

    The explicit Euler heat ``k (T1 - T2) dt`` is limited to the exact
    two-body exchange obtained by integrating Newton's law analytically,

    ``Q_exact = C_eff (T1 - T2) (1 - exp(-k dt / C_eff))``

    with ``C_eff = (1/mc1 + 1/mc2)^-1`` the series combination of the two
    heat capacities (J/K).  For the component-to-component edges Mercury
    models, ``k dt << C_eff`` and this is numerically identical to the
    paper's explicit form; the analytic clamp only matters for very small
    bodies or very long time steps, where it prevents the temperatures
    from overshooting past each other.
    """
    if mc_1 <= 0.0 or mc_2 <= 0.0:
        raise ValueError("heat capacities must be positive")
    if k < 0.0:
        raise ValueError("heat-transfer constant k must be non-negative")
    c_eff = 1.0 / (1.0 / mc_1 + 1.0 / mc_2)
    return c_eff * (t_1 - t_2) * -math.expm1(-k * dt / c_eff)


def stream_exchange(
    k: float,
    t_body: float,
    t_stream_in: float,
    capacity_rate: float,
    dt: float,
) -> "StreamExchange":
    """Exchange between a solid body and an air stream flowing past it.

    A stream with heat-capacity rate ``capacity_rate`` (W/K, i.e.
    ``rho * flow * c_p``) enters at ``t_stream_in`` and exchanges heat with
    a body at ``t_body`` through conductance ``k`` (W/K).  Integrating
    Newton's law along the stream gives the classic exponential approach:

    ``T_out = T_body + (T_in - T_body) * exp(-k / capacity_rate)``

    The heat removed from the body over ``dt`` is what the stream carried
    away: ``Q = capacity_rate * dt * (T_out - T_in)``.

    Returns a :class:`StreamExchange` with the outlet temperature and the
    heat (J) *gained by the stream* (equivalently, lost by the body).
    """
    if capacity_rate <= 0.0:
        # No flow: nothing is advected, no exchange happens through the
        # stream.  (A zero-flow air pocket should use conduction instead.)
        return StreamExchange(t_out=t_stream_in, heat_to_stream=0.0)
    if k < 0.0:
        raise ValueError("heat-transfer constant k must be non-negative")
    ntu = k / capacity_rate
    t_out = t_body + (t_stream_in - t_body) * math.exp(-ntu)
    heat = capacity_rate * dt * (t_out - t_stream_in)
    return StreamExchange(t_out=t_out, heat_to_stream=heat)


@dataclass(frozen=True)
class StreamExchange:
    """Result of a body/air-stream heat exchange (see :func:`stream_exchange`)."""

    #: Temperature (Celsius) of the stream after passing the body.
    t_out: float
    #: Heat (J) gained by the stream over the step; the body loses this much.
    heat_to_stream: float


def mix_streams(temperatures: "list[float]", weights: "list[float]") -> float:
    """Perfect-mixing temperature of several converging air streams.

    The paper's air-flow traversal "assumes a perfect mixing of the air"
    and computes "a weighted average of the incoming-edge air temperatures
    and fractions".  ``weights`` are the heat-capacity rates (or any
    proportional quantity, e.g. volumetric flows) of the incoming streams.
    Both sums are added left to right, the one order every engine and
    the inlet operator (:mod:`repro.core.inlets`) use; ``sum()`` is
    compensated from Python 3.12 on and would round differently.
    """
    if len(temperatures) != len(weights):
        raise ValueError("temperatures and weights must have the same length")
    total = 0.0
    for w in weights:
        total += w
    if total <= 0.0:
        raise ValueError("total mixing weight must be positive")
    mixed = 0.0
    for t, w in zip(temperatures, weights):
        mixed += t * w
    return mixed / total
