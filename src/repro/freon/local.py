"""CPU-local thermal management: DVFS / clock-throttling (section 4.3).

The paper contrasts Freon's "remote throttling" with hardware-local
techniques: voltage/frequency scaling "is effective at controlling
temperature for CPU-bound computations", but "CPUs typically support
only a limited set of voltages and frequencies", scaling "slows the
processing of interrupts, which can severely degrade the throughput
achievable by the server", and it "does not apply to components other
than the CPU".

:class:`DvfsGovernor` implements the local alternative so the comparison
can actually be run (ablation benchmark
``benchmarks/test_ablation_local_throttling.py``):

* a discrete ladder of (frequency-ratio, power-ratio) P-states — power
  falls roughly with f*V^2, so the ratios are super-linear;
* a thermostat: step down a P-state when the CPU exceeds the high
  threshold, step back up when it cools below the low threshold;
* the machine's *request capacity scales with frequency*, which is
  exactly the throughput cost Freon avoids by throttling remotely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ClusterError, SensorError
from ..telemetry import ensure as _ensure_telemetry

#: A Pentium-4-era P-state ladder: (frequency ratio, power ratio).
#: Power scales ~ f * V^2 with voltage dropping alongside frequency.
DEFAULT_PSTATES: Tuple[Tuple[float, float], ...] = (
    (1.00, 1.00),
    (0.85, 0.68),
    (0.70, 0.45),
    (0.55, 0.29),
)


@dataclass(frozen=True)
class PStateChange:
    """One recorded P-state transition."""

    time: float
    index: int
    frequency_ratio: float
    power_ratio: float
    temperature: float


class DvfsGovernor:
    """A per-CPU thermal governor stepping through discrete P-states.

    Parameters
    ----------
    read_temperature:
        Callable returning the CPU temperature (the on-die sensor).
    apply:
        Callable receiving ``(frequency_ratio, power_ratio)`` and applying
        them to the emulation — the power ratio through Mercury's power
        scaling (`fiddle power` / ``set_power_scale``), the frequency
        ratio to whatever models request processing speed.
    high, low:
        Thermostat thresholds (step down above ``high``, step up below
        ``low``).
    pstates:
        The (frequency, power) ladder, fastest first.
    period:
        Seconds between governor decisions (hardware governors run much
        faster than Freon's one-minute loop; default 5 s).
    """

    def __init__(
        self,
        read_temperature: Callable[[], float],
        apply: Callable[[float, float], None],
        high: float = 67.0,
        low: float = 64.0,
        pstates: Sequence[Tuple[float, float]] = DEFAULT_PSTATES,
        period: float = 5.0,
        machine: str = "",
        telemetry=None,
    ) -> None:
        if not pstates:
            raise ClusterError("at least one P-state is required")
        ordered = list(pstates)
        for (f_a, p_a), (f_b, p_b) in zip(ordered, ordered[1:]):
            if not (f_b < f_a and p_b < p_a):
                raise ClusterError("P-states must be strictly descending")
        if low >= high:
            raise ClusterError("low threshold must be below high threshold")
        if period <= 0.0:
            raise ClusterError("governor period must be positive")
        self._read = read_temperature
        self._apply = apply
        self.high = high
        self.low = low
        self.pstates = ordered
        self.period = period
        self.index = 0
        self._elapsed = 0.0
        self.changes: List[PStateChange] = []
        self.time = 0.0
        self.machine = machine
        self.telemetry = _ensure_telemetry(telemetry)
        labels = {"machine": machine} if machine else None
        self._tel_changes = self.telemetry.counter(
            "dvfs_pstate_changes_total", labels,
            help="P-state transitions made by the local governor.",
        )
        self._tel_freq = self.telemetry.gauge(
            "dvfs_frequency_ratio", labels,
            help="Current frequency relative to nominal.",
        )

    @property
    def frequency_ratio(self) -> float:
        """Current frequency relative to nominal (1.0 = full speed)."""
        return self.pstates[self.index][0]

    @property
    def power_ratio(self) -> float:
        """Current power relative to nominal."""
        return self.pstates[self.index][1]

    @property
    def throttled(self) -> bool:
        """True while running below the top P-state."""
        return self.index > 0

    def tick(self, dt: float) -> bool:
        """Advance the governor clock; decide when a period elapses."""
        self.time += dt
        self._elapsed += dt
        if self._elapsed + 1e-9 < self.period:
            return False
        self._elapsed = 0.0
        return self.decide()

    def wake(self, now: float) -> bool:
        """One kernel-scheduled decision at absolute time ``now``.

        The event kernel owns the cadence; the governor only needs its
        clock synchronized so recorded :class:`PStateChange` timestamps
        stay absolute.
        """
        self.time = now
        return self.decide()

    def decide(self) -> bool:
        """One thermostat decision; returns True on a P-state change.

        A failed sensor read holds the current P-state for this period,
        as tempd's stale hold does.
        """
        try:
            temperature = self._read()
        except SensorError:
            return False
        new_index = self.index
        if temperature > self.high and self.index < len(self.pstates) - 1:
            new_index = self.index + 1
        elif temperature < self.low and self.index > 0:
            new_index = self.index - 1
        if new_index == self.index:
            return False
        self.index = new_index
        frequency, power = self.pstates[new_index]
        self._apply(frequency, power)
        self.changes.append(
            PStateChange(
                time=self.time,
                index=new_index,
                frequency_ratio=frequency,
                power_ratio=power,
                temperature=temperature,
            )
        )
        self._tel_changes.inc()
        self._tel_freq.set(frequency)
        if self.telemetry.enabled:
            self.telemetry.event(
                "dvfs_pstate_change", "dvfs", machine=self.machine,
                index=new_index, frequency_ratio=frequency,
                temperature=temperature,
            )
        return True
