"""Calibration: tuning Mercury's constants against a measured run.

Section 2.2: determining the heat- and air-flow constants from first
principles "can be time consuming and quite difficult", so "it is often
useful to have a calibration phase, where a single, isolated machine is
tested as fully as possible, and then the heat- and air-flow constants
are tuned until the emulated readings match the calibration experiment".

The workflow mirrors the paper's:

1. run calibration microbenchmarks on the (simulated) physical machine
   and record utilizations + sensor readings (:func:`measure_run`);
2. fit the heat-transfer constants — and optionally per-component power
   scales — so Mercury's emulated temperatures match the recording
   (:func:`calibrate`);
3. validate on a *different* benchmark without touching the inputs
   (:func:`emulate` + :func:`compare`).

Because "temperature changes are second-order effects on the constants",
the fitted constants remain valid for reasonable temperature ranges —
exactly the property the validation experiments (section 3.1) test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import CalibrationError
from ..machine.procfs import ProcReader
from ..machine.server import SimulatedServer
from .graph import MachineLayout
from .solver import Solver

#: Sensor-name -> graph-node mapping used when recording measurements.
_SENSOR_NODES = {"cpu_air": "CPU Air", "disk": "Disk Platters"}


def least_squares(fun, x0, **kwargs):
    """:func:`scipy.optimize.least_squares`, imported on first call.

    Only calibration needs scipy, so ``import repro`` does not load it.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(fun, x0, **kwargs)


@dataclass
class Measurement:
    """A recorded run on the physical machine: what the experimenter sees.

    ``utilizations`` holds the per-interval component utilizations as
    monitord would report them (from /proc deltas); ``temperatures`` holds
    sensor readings keyed by graph-node name.  ``interval`` is the sample
    spacing in seconds.
    """

    interval: float
    times: List[float] = field(default_factory=list)
    utilizations: Dict[str, List[float]] = field(default_factory=dict)
    temperatures: Dict[str, List[float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        """Span of the measurement in seconds."""
        return self.times[-1] if self.times else 0.0

    def downsample(self, factor: int) -> "Measurement":
        """A coarser view: every ``factor`` samples become one.

        Utilizations are averaged over each window (what a monitord with a
        longer period would have reported); temperatures take the last
        reading of the window (sensors report instantaneous values).
        """
        if factor <= 0:
            raise CalibrationError("downsample factor must be positive")
        if factor == 1:
            return self
        out = Measurement(interval=self.interval * factor)
        count = len(self.times) // factor
        for idx in range(count):
            lo, hi = idx * factor, (idx + 1) * factor
            out.times.append(self.times[hi - 1])
        for name, series in self.utilizations.items():
            out.utilizations[name] = [
                sum(series[i * factor:(i + 1) * factor]) / factor
                for i in range(count)
            ]
        for node, series in self.temperatures.items():
            out.temperatures[node] = [
                series[(i + 1) * factor - 1] for i in range(count)
            ]
        return out


def measure_run(
    server: SimulatedServer,
    duration: float,
    interval: float = 1.0,
) -> Measurement:
    """Run the physical machine and record what its instruments report.

    The server's attached workload drives utilization; readings are taken
    every ``interval`` seconds through /proc (utilizations) and the
    physical sensors (temperatures).
    """
    if interval <= 0.0 or duration <= 0.0:
        raise CalibrationError("duration and interval must be positive")
    reader = ProcReader(server.procfs)
    measurement = Measurement(interval=interval)
    for name in server.layout.monitored_components():
        measurement.utilizations[name] = []
    for sensor_name in server.sensors:
        node = _SENSOR_NODES.get(sensor_name, sensor_name)
        measurement.temperatures[node] = []
    steps = int(round(duration / interval))
    for _ in range(steps):
        server.step(interval)
        measurement.times.append(server.time)
        sampled = reader.sample()
        for name in measurement.utilizations:
            measurement.utilizations[name].append(sampled.get(name, 0.0))
        for sensor_name, sensor in server.sensors.items():
            node = _SENSOR_NODES.get(sensor_name, sensor_name)
            measurement.temperatures[node].append(sensor.read())
    return measurement


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted constants plus fit-quality numbers."""

    k_overrides: Dict[Tuple[str, str], float]
    power_scales: Dict[str, float]
    rmse: float
    max_error: float
    iterations: int

    def describe(self) -> str:
        """Human-readable summary of the fitted constants."""
        lines = [f"calibration fit: rmse={self.rmse:.3f} C, max={self.max_error:.3f} C"]
        for (a, b), k in sorted(self.k_overrides.items()):
            lines.append(f"  k[{a} -- {b}] = {k:.4f} W/K")
        for name, scale in sorted(self.power_scales.items()):
            lines.append(f"  power scale[{name}] = {scale:.4f}")
        return "\n".join(lines)


def emulate(
    layout: MachineLayout,
    measurement: Measurement,
    k_overrides: Optional[Mapping[Tuple[str, str], float]] = None,
    power_scales: Optional[Mapping[str, float]] = None,
    dt: float = 1.0,
    initial_temperature: Optional[float] = None,
    nodes: Optional[Sequence[str]] = None,
) -> Dict[str, List[float]]:
    """Replay a measurement's utilizations through Mercury.

    Returns the emulated temperature series for ``nodes`` (default: the
    nodes present in the measurement) aligned with ``measurement.times``.
    """
    if nodes is None:
        nodes = list(measurement.temperatures)
    solver = Solver(
        [layout], dt=dt, initial_temperature=initial_temperature, record=False
    )
    state = solver.machine(layout.name)
    if k_overrides:
        for (a, b), value in k_overrides.items():
            state.set_k(a, b, value)
    if power_scales:
        for name, scale in power_scales.items():
            state.set_power_scale(name, scale)
    result: Dict[str, List[float]] = {node: [] for node in nodes}
    interval = measurement.interval
    if dt > interval + 1e-9:
        raise CalibrationError(
            f"solver dt ({dt}) coarser than the measurement interval "
            f"({interval}); downsample the measurement first"
        )
    ticks_per_sample = max(1, int(round(interval / dt)))
    for idx in range(len(measurement)):
        for component, series in measurement.utilizations.items():
            solver.set_utilization(layout.name, component, series[idx])
        solver.step(ticks_per_sample)
        for node in nodes:
            result[node].append(solver.temperature(layout.name, node))
    return result


def smooth_series(values: Sequence[float], window: int = 61) -> List[float]:
    """Centered moving average, used to strip sensor noise before scoring.

    Physical sensors quantize (the in-disk sensor to a whole degree) and
    jitter; the paper's accuracy claim is about tracking the *temperature
    trend*, so validation compares Mercury against the smoothed sensor
    trace.  The window should comfortably exceed the sensor noise
    correlation time but stay far below the thermal time constants
    (~60 samples at 1 Hz works for this server).
    """
    if window <= 0:
        raise CalibrationError("smoothing window must be positive")
    if window == 1 or len(values) == 0:
        return list(values)
    arr = np.asarray(values, dtype=float)
    window = min(window, 2 * len(arr) - 1)
    kernel = np.ones(window) / window
    # Reflect-pad so the ends are averaged over real data, not zeros.
    pad_front = window // 2
    pad_back = window - 1 - pad_front
    padded = np.concatenate(
        [
            arr[pad_front:0:-1] if pad_front else arr[:0],
            arr,
            arr[-2:-pad_back - 2:-1] if pad_back else arr[:0],
        ]
    )
    return np.convolve(padded, kernel, mode="valid").tolist()


def compare(
    measured: Mapping[str, Sequence[float]],
    emulated: Mapping[str, Sequence[float]],
    warmup: int = 0,
) -> Dict[str, Tuple[float, float]]:
    """Per-node (rmse, max absolute error) between measured and emulated.

    ``warmup`` samples at the start are excluded (initial-condition
    transients are not part of the accuracy claim).
    """
    report: Dict[str, Tuple[float, float]] = {}
    for node, series in measured.items():
        if node not in emulated:
            continue
        a = np.asarray(series[warmup:], dtype=float)
        b = np.asarray(emulated[node][warmup:], dtype=float)
        if len(a) != len(b):
            raise CalibrationError(
                f"series length mismatch for {node!r}: {len(a)} vs {len(b)}"
            )
        err = a - b
        report[node] = (float(np.sqrt(np.mean(err**2))), float(np.max(np.abs(err))))
    return report


def observable_edges(
    layout: MachineLayout, sensed_nodes: Sequence[str]
) -> List[Tuple[str, str]]:
    """Heat edges directly incident to a sensed node.

    These are the constants a calibration run can actually identify;
    edges further from any sensor are weakly observable and fitting them
    mostly lets the optimizer overfit transients.  They stay at their
    nominal values unless the caller opts in (or enables the prior-
    regularized full fit).
    """
    keys: List[Tuple[str, str]] = []
    for node in sensed_nodes:
        for edge in layout.heat_edges_of(node):
            if edge.key not in keys:
                keys.append(edge.key)
            # One hop further: the sensed signal also carries the edges of
            # the immediate neighbour (e.g. the disk platter sensor sees
            # the shell-to-air conductance through the shell).
            neighbour = edge.other(node)
            for far in layout.heat_edges_of(neighbour):
                if far.key not in keys:
                    keys.append(far.key)
    return keys


def calibrate(
    layout: MachineLayout,
    measurements: Sequence[Measurement],
    fit_edges: Optional[Sequence[Tuple[str, str]]] = None,
    fit_power: Sequence[str] = (),
    dt: float = 5.0,
    warmup: int = 30,
    max_nfev: int = 60,
    prior_weight: float = 0.0,
) -> CalibrationResult:
    """Fit heat-transfer constants (and optional power scales) to runs.

    ``fit_edges`` selects which heat edges to tune (default: the edges
    :func:`observable_edges` finds next to the sensed nodes, plus their
    one-hop neighbours along the sensed path); parameters are optimized
    in log space so constants stay positive.  ``dt`` is the solver step
    used *during fitting* — a coarse step makes each objective evaluation
    cheap; validation should use the production 1 s step.

    ``prior_weight`` adds a Tikhonov pull of the log-factors toward the
    nominal constants; use it when fitting weakly observable edges.
    """
    if not measurements:
        raise CalibrationError("at least one measurement is required")
    if fit_edges is None:
        sensed = sorted(
            {node for m in measurements for node in m.temperatures}
        )
        fit_edges = observable_edges(layout, sensed)
        if not fit_edges:
            raise CalibrationError("no heat edges adjacent to any sensed node")
    else:
        fit_edges = [tuple(sorted(edge)) for edge in fit_edges]
    nominal = {edge.key: edge.k for edge in layout.heat_edges}
    for key in fit_edges:
        if key not in nominal:
            raise CalibrationError(f"no heat edge {key}")
    fit_power = list(fit_power)
    n_k = len(fit_edges)
    # Fit against a view of the measurements no finer than the fitting dt,
    # so each objective evaluation stays cheap and time axes line up.
    fitted_measurements = []
    for measurement in measurements:
        factor = max(1, int(round(dt / measurement.interval)))
        fitted_measurements.append(measurement.downsample(factor))
    measurements = fitted_measurements

    def unpack(x: np.ndarray) -> Tuple[Dict[Tuple[str, str], float], Dict[str, float]]:
        k_over = {
            key: nominal[key] * math.exp(x[i]) for i, key in enumerate(fit_edges)
        }
        scales = {
            name: math.exp(x[n_k + j]) for j, name in enumerate(fit_power)
        }
        return k_over, scales

    # Track the most recent parameter vector the optimizer tried, so a
    # failure can report *which* parameters broke the model evaluation.
    last_x: List[float] = []

    def residuals(x: np.ndarray) -> np.ndarray:
        last_x[:] = [float(v) for v in x]
        k_over, scales = unpack(x)
        out: List[float] = []
        for measurement in measurements:
            emulated = emulate(
                layout, measurement, k_overrides=k_over, power_scales=scales, dt=dt
            )
            for node, series in measurement.temperatures.items():
                diff = np.asarray(series[warmup:], dtype=float) - np.asarray(
                    emulated[node][warmup:], dtype=float
                )
                out.extend(diff.tolist())
        if prior_weight > 0.0:
            out.extend((prior_weight * x).tolist())
        return np.asarray(out)

    x0 = np.zeros(n_k + len(fit_power))
    try:
        fit = least_squares(residuals, x0, max_nfev=max_nfev, xtol=1e-6, ftol=1e-6)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # Numerical failures (non-finite residuals, singular Jacobians,
        # overflow in the model) — anything else is a real bug and must
        # propagate rather than masquerade as a calibration problem.
        raise CalibrationError(
            f"optimizer failed: {exc}", parameters=tuple(last_x) or None
        ) from exc
    k_over, scales = unpack(fit.x)
    final = residuals(fit.x)
    rmse = float(np.sqrt(np.mean(final**2))) if len(final) else 0.0
    max_error = float(np.max(np.abs(final))) if len(final) else 0.0
    return CalibrationResult(
        k_overrides=k_over,
        power_scales=scales,
        rmse=rmse,
        max_error=max_error,
        iterations=int(fit.nfev),
    )
