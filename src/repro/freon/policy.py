"""Freon policy configuration and the admd-side weight arithmetic.

Section 4.1: when tempd reports controller output ``o`` for a hot
server, admd "forces LVS to adjust its request distribution by setting
the hot server's weight so that it receives only 1/(o + 1) of the load
it is currently receiving (this requires accounting for the weights of
all servers)", and additionally caps the server's concurrent requests at
the recent average so rising overall load cannot negate the shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..config import table1
from ..errors import ClusterError

#: Paper values for tempd's PD-controller gains.
DEFAULT_KP = 0.1
DEFAULT_KD = 0.2


@dataclass(frozen=True)
class ComponentThresholds:
    """High / low / red-line temperatures for one component class."""

    high: float
    low: float
    red: float

    def __post_init__(self) -> None:
        if not self.low < self.high < self.red:
            raise ValueError(
                f"thresholds must satisfy low < high < red, got "
                f"{self.low} / {self.high} / {self.red}"
            )


@dataclass(frozen=True)
class FreonConfig:
    """Everything a Freon deployment needs to know.

    Defaults are the paper's section 5 experiment settings: CPU
    thresholds 67/64, disk 65/62 Celsius, red-lines 2 degrees above the
    highs, one-minute daemon periods, five-second LVS statistics
    sampling, and the PD gains 0.1/0.2.
    """

    thresholds: Dict[str, ComponentThresholds] = field(
        default_factory=lambda: {
            "cpu": ComponentThresholds(
                high=table1.T_HIGH_CPU, low=table1.T_LOW_CPU, red=table1.T_RED_CPU
            ),
            "disk": ComponentThresholds(
                high=table1.T_HIGH_DISK, low=table1.T_LOW_DISK, red=table1.T_RED_DISK
            ),
        }
    )
    kp: float = DEFAULT_KP
    kd: float = DEFAULT_KD
    #: tempd wake-up / admd adjustment period, seconds.
    monitor_period: float = 60.0
    #: admd LVS-statistics sampling period, seconds.
    stats_period: float = 5.0
    #: Default LVS weight of an unrestricted server.
    base_weight: float = 1.0
    #: Seconds tempd keeps trusting last-known-good readings when its
    #: sensors stop answering (hold the last PD output meanwhile).
    sensor_staleness_limit: float = 180.0
    #: Controller output tempd applies once readings stay unavailable
    #: past the staleness limit: fail conservative toward throttling
    #: (output 1.0 halves the server's load share).
    conservative_output: float = 1.0

    def high(self, component: str) -> float:
        """High threshold for a component class."""
        return self.thresholds[component].high

    def low(self, component: str) -> float:
        """Low threshold for a component class."""
        return self.thresholds[component].low

    def red(self, component: str) -> float:
        """Red-line threshold for a component class."""
        return self.thresholds[component].red


def weight_for_share_reduction(
    current_weights: Dict[str, float],
    hot_server: str,
    output: float,
    telemetry=None,
) -> float:
    """The new weight giving ``hot_server`` 1/(output+1) of its current share.

    With least-connections scheduling a server's long-run load share is
    ``w_i / sum(w)``.  Let ``s`` be the hot server's current share and
    ``s' = s / (output + 1)`` the target.  Solving
    ``w' / (W_rest + w') = s'`` gives ``w' = s' W_rest / (1 - s')``.

    ``current_weights`` must cover every server currently eligible for
    load (the "accounting for the weights of all servers").  An enabled
    ``telemetry`` facade records the PD outputs this arithmetic was fed
    (``freon_controller_output``), the raw material of Figure 11's
    weight series.
    """
    if hot_server not in current_weights:
        raise ClusterError(f"unknown server {hot_server!r}")
    if output < 0.0:
        raise ClusterError("controller output must be non-negative")
    if telemetry is not None and telemetry.enabled:
        telemetry.histogram(
            "freon_controller_output", {"machine": hot_server},
            buckets=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
            help="PD-controller outputs fed to the weight arithmetic.",
        ).observe(output)
    total = sum(current_weights.values())
    if total <= 0.0:
        raise ClusterError("total weight must be positive")
    w_hot = current_weights[hot_server]
    w_rest = total - w_hot
    share = w_hot / total
    target = share / (output + 1.0)
    if w_rest <= 0.0:
        # Only server in the pool: weights cannot shift load anywhere.
        return w_hot
    if target >= 1.0:
        return w_hot
    return target * w_rest / (1.0 - target)
