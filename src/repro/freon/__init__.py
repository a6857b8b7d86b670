"""Freon and Freon-EC: cluster thermal-emergency management policies.

``AdmdEC`` is re-exported lazily: it subclasses the admd daemon, which in
turn uses this package's policy types, so an eager import would be
circular.
"""

from .controller import ControllerBank, PDController
from .local import DEFAULT_PSTATES, DvfsGovernor, PStateChange
from .policy import ComponentThresholds, FreonConfig, weight_for_share_reduction
from .regions import RegionMap, two_region_split
from .traditional import Shutdown

__all__ = [
    "AdmdEC", "ComponentThresholds", "ControllerBank", "EcEvent",
    "FreonConfig", "PDController", "RegionMap", "Shutdown",
    "two_region_split", "weight_for_share_reduction",
    "DEFAULT_PSTATES", "DvfsGovernor", "PStateChange",
]

_LAZY = ("AdmdEC", "EcEvent")


def __getattr__(name):
    if name in _LAZY:
        from . import ec

        return getattr(ec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
