"""Mercury's core: physics, graphs, the solver, traces, and calibration."""

from .fans import DEFAULT_SERVER_CURVE, FanController, FanCurve
from .graph import (
    AirEdge,
    AirRegion,
    ClusterAirEdge,
    ClusterLayout,
    Component,
    CoolingSource,
    HeatEdge,
    MachineLayout,
)
from .power import (
    ConstantPowerModel,
    LinearPowerModel,
    PowerModel,
    ScaledPowerModel,
    TablePowerModel,
)
from .compiled import CompiledSolver, MachinePlan, compile_layout
from .solver import DEFAULT_DT, ENGINES, Solver
from .state import History, MachineState, Sample
from .trace import TimedEvent, UtilizationTrace, run_offline

__all__ = [
    "AirEdge", "AirRegion", "ClusterAirEdge", "ClusterLayout", "CompiledSolver",
    "Component", "ConstantPowerModel", "CoolingSource", "DEFAULT_DT", "ENGINES",
    "HeatEdge", "History", "LinearPowerModel", "MachineLayout", "MachinePlan",
    "MachineState", "PowerModel", "Sample", "ScaledPowerModel", "Solver",
    "TablePowerModel", "TimedEvent", "UtilizationTrace", "compile_layout",
    "run_offline",
    "DEFAULT_SERVER_CURVE", "FanController", "FanCurve",
]
