"""Synthetic web-traffic trace generator (paper section 5).

"To load the servers, we used a synthetic trace ... Our trace includes
30% of requests to dynamic content in the form of a simple CGI script
that computes for 25 ms and produces a small reply.  The timing of the
requests mimics the well-known traffic pattern of most Internet
services, consisting of recurring load valleys (over night) followed by
load peaks (in the afternoon).  The load peak is set at 70% utilization
with 4 servers, leaving spare capacity to handle unexpected load
increases or a server failure."

:func:`diurnal_trace` compresses one day's valley-to-peak-to-valley
cycle into an experiment-length window and scales the peak so the
cluster-wide CPU utilization hits the requested value with the requested
number of servers.  A seeded jitter adds the short-term raggedness of
real traffic without breaking repeatability.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Sequence

import numpy as _np

from .webserver import RequestMix


@dataclass(frozen=True)
class TracePoint:
    """Offered request rate in effect from ``time`` to the next point."""

    time: float
    rate: float


class RequestTrace:
    """A deterministic offered-load (req/s) step function."""

    def __init__(self, points: Sequence[TracePoint]) -> None:
        if not points:
            raise ValueError("a trace needs at least one point")
        self._points = list(points)
        self._times = [p.time for p in self._points]
        self._rates = [p.rate for p in self._points]
        for earlier, later in zip(self._points, self._points[1:]):
            if later.time <= earlier.time:
                raise ValueError("trace points must be strictly time-sorted")

    def rate_at(self, time: float) -> float:
        """Offered rate at simulated time ``time`` (0 before the trace)."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            return 0.0
        return self._rates[idx]

    @property
    def points(self) -> "List[TracePoint]":
        """The step points, time-sorted (a copy; safe to transform)."""
        return list(self._points)

    @property
    def duration(self) -> float:
        """Timestamp of the last point."""
        return self._times[-1]

    @property
    def peak_rate(self) -> float:
        """Highest rate anywhere in the trace."""
        return max(p.rate for p in self._points)

    def total_requests(self) -> float:
        """Requests offered over the whole trace (integral of the rate)."""
        total = 0.0
        for point, nxt in zip(self._points, self._points[1:]):
            total += point.rate * (nxt.time - point.time)
        return total

    def __len__(self) -> int:
        return len(self._points)


def peak_rate_for_utilization(
    target_utilization: float,
    servers: int,
    mix: RequestMix = RequestMix(),
) -> float:
    """Cluster-wide request rate putting each of N servers at the target
    CPU utilization."""
    if not 0.0 < target_utilization <= 1.0:
        raise ValueError("target utilization must be in (0, 1]")
    if servers <= 0:
        raise ValueError("need at least one server")
    return target_utilization * servers / mix.cpu_demand


def diurnal_shape(t: float, duration: float, plateau: float = 0.75) -> float:
    """The normalized valley-to-peak-to-valley curve at time ``t``.

    The peak lands at 60% of the way through the window (the paper's
    Figure 11 load subsides in the last quarter of the run); ``plateau``
    flattens the top of the cosine so the afternoon peak is a broad
    shoulder rather than an instant.  Exposed separately so the
    flattened datacenter simulation can evaluate the same curve
    vectorized with per-machine phase offsets.
    """
    peak_at = 0.6 * duration
    if t <= peak_at:
        # Half-cosine from valley (t=0) up to the peak; the descent below
        # is steeper, like an evening drop-off.
        phase = math.pi * (t / peak_at - 1.0)  # -pi .. 0
    else:
        # Rescaled so the descent reaches the valley (phase=pi) exactly
        # at t=duration: phase-wrapped traces are then continuous at the
        # day boundary (shape(duration) == shape(0) == 0).
        phase = math.pi * (t - peak_at) / (duration - peak_at)  # 0 .. pi
        if phase > math.pi:
            phase = math.pi
    shape = 0.5 * (1.0 + math.cos(phase))
    return min(shape, plateau) / plateau  # flat-topped peak


def diurnal_shape_array(t, duration: float, plateau: float = 0.75):
    """:func:`diurnal_shape` over an array of times, elementwise equal.

    One vectorized evaluation of the same piecewise curve — identical
    floating-point operations in identical order, so every element
    matches the scalar function bit-for-bit (pinned by a property test
    in ``tests/cluster/test_tracegen.py``).  The flattened datacenter
    simulation evaluates per-machine phase-shifted copies of the curve
    through this function.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if not 0.0 < plateau <= 1.0:
        raise ValueError("plateau must be in (0, 1]")
    tt = _np.asarray(t, dtype=float)
    peak_at = 0.6 * duration
    ascent = tt <= peak_at
    phase = _np.where(
        ascent,
        math.pi * (tt / peak_at - 1.0),
        _np.minimum(math.pi * (tt - peak_at) / (duration - peak_at), math.pi),
    )
    shape = 0.5 * (1.0 + _np.cos(phase))
    return _np.minimum(shape, plateau) / plateau


def phase_offsets(count: int, spread: float = 0.25, seed: int = 2006) -> List[float]:
    """Deterministic per-machine diurnal phase offsets (fractions of a day).

    Large clusters should not hit their diurnal peaks in lockstep: real
    machines serve regions whose afternoons differ.  Each offset is
    drawn in ``[0, spread)`` from its own derived RNG stream, so the
    list is a pure function of ``(seed, index)`` — extending ``count``
    never changes earlier offsets, and equal seeds reproduce the exact
    same floats on any platform.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0.0 <= spread <= 1.0:
        raise ValueError("spread must be in [0, 1]")
    return [
        random.Random(seed * 1_000_003 + index).random() * spread
        for index in range(count)
    ]


def diurnal_trace(
    duration: float = 2000.0,
    step: float = 10.0,
    peak_utilization: float = 0.70,
    servers: int = 4,
    valley_fraction: float = 0.15,
    mix: RequestMix = RequestMix(),
    jitter: float = 0.03,
    plateau: float = 0.75,
    seed: int = 2006,
    phase: float = 0.0,
) -> RequestTrace:
    """One compressed day: valley, rise to the afternoon peak, decline.

    ``valley_fraction`` sets the overnight load relative to the peak;
    see :func:`diurnal_shape` for the curve itself.  ``phase`` rotates
    the whole pattern by that fraction of the window (wrapping around),
    so per-machine traces built with :func:`phase_offsets` peak at
    different times; ``phase=0`` reproduces the unshifted trace exactly,
    jitter stream included.
    """
    if duration <= 0.0 or step <= 0.0:
        raise ValueError("duration and step must be positive")
    if not 0.0 < plateau <= 1.0:
        raise ValueError("plateau must be in (0, 1]")
    if not 0.0 <= phase < 1.0:
        raise ValueError("phase must be in [0, 1)")
    peak = peak_rate_for_utilization(peak_utilization, servers, mix)
    valley = valley_fraction * peak
    rng = random.Random(seed)
    points: List[TracePoint] = []
    t = 0.0
    while t < duration:
        shape = diurnal_shape(
            (t - phase * duration) % duration, duration, plateau
        )
        base = valley + (peak - valley) * shape
        noisy = base * (1.0 + rng.uniform(-jitter, jitter))
        points.append(TracePoint(time=t, rate=max(noisy, 0.0)))
        t += step
    return RequestTrace(points)


def constant_trace(rate: float, duration: float, step: float = 10.0) -> RequestTrace:
    """A flat trace; useful for steady-state and unit tests.

    The last point always lands at ``duration`` so the trace spans the
    full requested window even when ``duration`` is not a multiple of
    ``step`` (``total_requests()`` would otherwise undercount the tail).
    """
    if rate < 0.0:
        raise ValueError("rate must be non-negative")
    if duration <= 0.0 or step <= 0.0:
        raise ValueError("duration and step must be positive")
    points = [TracePoint(time=t * step, rate=rate)
              for t in range(max(1, int(duration / step)))]
    if points[-1].time < duration:
        points.append(TracePoint(time=duration, rate=rate))
    return RequestTrace(points)
