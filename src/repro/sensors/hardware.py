"""Simulated physical temperature sensors.

The paper complains that "hardware sensors with low resolution and poor
precision make matters worse" and later quantifies its own instruments:
digital thermometers accurate to 1.5 Celsius, in-disk sensors to
3 Celsius, and a 500 microsecond average access time for the SCSI disk's
internal sensor.  This module models exactly those imperfections so the
validation experiments compare Mercury against realistically imperfect
"measurements":

* a fixed per-sensor **calibration bias** drawn once at construction
  (within the accuracy band);
* zero-mean Gaussian **read noise**;
* **quantization** to the sensor's resolution;
* an advertised **access latency** that integration tests and the
  latency benchmark can compare against Mercury's readsensor().
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


class PhysicalSensor:
    """One imperfect temperature sensor attached to a true-value source."""

    def __init__(
        self,
        source: Callable[[], float],
        resolution: float = 0.5,
        accuracy: float = 1.5,
        noise_std: float = 0.15,
        latency: float = 500e-6,
        seed: int = 0,
    ) -> None:
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if accuracy < 0.0 or noise_std < 0.0 or latency < 0.0:
            raise ValueError("accuracy, noise and latency must be non-negative")
        self._source = source
        self.resolution = resolution
        self.accuracy = accuracy
        self.noise_std = noise_std
        self.latency = latency
        rng = random.Random(seed)
        # Bias is fixed for the sensor's lifetime; the accuracy spec bounds
        # it.  Using a third of the band keeps ~99.7% of sensors in spec.
        self._bias = rng.gauss(0.0, accuracy / 3.0) if accuracy > 0.0 else 0.0
        self._bias = max(-accuracy, min(accuracy, self._bias))
        self._rng = rng

    @property
    def bias(self) -> float:
        """The sensor's fixed calibration offset (Celsius)."""
        return self._bias

    def read(self) -> float:
        """One reading: true value + bias + noise, quantized to resolution."""
        value = self._source() + self._bias + self._rng.gauss(0.0, self.noise_std)
        return round(value / self.resolution) * self.resolution


@dataclass(frozen=True)
class SensorSpec:
    """Factory parameters for a class of sensor."""

    resolution: float
    accuracy: float
    noise_std: float
    latency: float

    def attach(self, source: Callable[[], float], seed: int = 0) -> PhysicalSensor:
        """Build a sensor of this class reading from ``source``."""
        return PhysicalSensor(
            source,
            resolution=self.resolution,
            accuracy=self.accuracy,
            noise_std=self.noise_std,
            latency=self.latency,
            seed=seed,
        )


#: The external digital thermometer placed on top of the CPU heat sink
#: (paper: accuracy 1.5 Celsius).
DIGITAL_THERMOMETER = SensorSpec(
    resolution=0.1, accuracy=1.5, noise_std=0.12, latency=200e-6
)

#: The SCSI disk's internal sensor (paper: accuracy 3 Celsius, ~500 us
#: average access time, coarse resolution).
IN_DISK_SENSOR = SensorSpec(
    resolution=1.0, accuracy=3.0, noise_std=0.25, latency=500e-6
)

#: A generic motherboard thermal sensor.
MOTHERBOARD_SENSOR = SensorSpec(
    resolution=0.5, accuracy=2.0, noise_std=0.2, latency=300e-6
)
