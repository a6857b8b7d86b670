"""Run specifications and grid expansion for the parallel sweep engine.

A sweep is described by a *grid spec*: a JSON document with a ``base``
mapping of :class:`RunSpec` fields shared by every run, and an ``axes``
mapping of field name to list of values.  The cartesian product of the
axes (taken in sorted axis-name order, so the expansion is independent
of dict insertion order) yields one :class:`RunSpec` per combination,
with a deterministic ``run_id`` like ``"policy=freon,seed=1"``.

Example grid spec reproducing the Figure 11 policy comparison::

    {
      "base": {"scenario": "emergency", "duration": 2000.0},
      "axes": {"policy": ["none", "freon", "traditional"]}
    }

Everything here is plain data: specs serialize to JSON-able dicts so
they can cross a ``multiprocessing`` worker boundary, land in the merged
sweep artifact, and be re-expanded bit-for-bit by a later process.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence

from ..cluster.scenarios import scenario_names
from ..cluster.simulation import POLICIES
from ..config import table1
from ..control import STACKS
from ..control import names as _policy_names
from ..core.solver import ENGINES
from ..errors import SweepError

#: Fiddle scenarios a spec may name (see ``cluster.simulation``) plus
#: the workload scenario library (see ``cluster.scenarios``): workload
#: names select a trace/mix/fault-script bundle, the legacy three only
#: a fiddle script on the classic diurnal trace.
LEGACY_SCENARIOS = ("emergency", "chaos", "none")
SCENARIOS = LEGACY_SCENARIOS + scenario_names()


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run inside a sweep.

    A spec is *complete*: two processes constructing a simulation from
    equal specs produce bit-identical runs.  The fault RNG is seeded
    from ``derive_seed(seed, run_id)``, so every run in a grid draws an
    independent, reproducible stream even when the ``seed`` field is
    shared across the whole sweep.
    """

    run_id: str
    policy: str = "freon"
    engine: str = "python"
    #: Which fiddle script drives the run: the section 5 emergencies,
    #: the chaos storm (emergencies + faults), or nothing.
    scenario: str = "emergency"
    duration: float = 2000.0
    #: Base fault seed; the per-run seed is derived from it and run_id.
    seed: int = 0
    #: Datagram loss probability (chaos scenario only).
    loss: float = 0.05
    #: Cluster size; 0 means the paper's 4-machine validation cluster.
    cluster_size: int = 0
    #: Freon CPU threshold overrides for the section 5.1 sweep; None
    #: keeps the Table 1 defaults (67/64, red-line high + 2).  Setting
    #: only ``cpu_high`` keeps the Table 1 spread: ``low = high - 3``.
    cpu_high: Optional[float] = None
    cpu_low: Optional[float] = None
    #: Simulated seconds between worker checkpoints; 0 disables them.
    checkpoint_every: float = 0.0
    #: Test-only: raise a WorkerCrash when sim time reaches this value.
    crash_at: Optional[float] = None
    #: Spatial topology as canonical Topology JSON text (hashable and
    #: wire-safe); None runs the scalar cluster coupling.  Mutually
    #: exclusive with ``cluster_size``: a topology names its machines.
    topology: Optional[str] = None
    #: Request-cloning degree (clone each request to this many backends,
    #: first response wins); 0 keeps classic single dispatch.
    cloning: int = 0
    #: Which simulation stack runs the spec: "cluster" is the per-machine
    #: daemon stack, "scale" the flattened datacenter
    #: (:class:`~repro.topology.sim.ScaleSimulation`).  The policy is
    #: validated against the :mod:`repro.control` registry's names for
    #: the chosen stack, so e.g. ``policy="emergency"`` is a scale-only
    #: spec and ``policy="local-dvfs"`` a cluster-only one.
    stack: str = "cluster"

    def __post_init__(self) -> None:
        if not self.run_id:
            raise SweepError("run_id must be non-empty")
        if self.stack not in STACKS:
            raise SweepError(
                f"unknown stack {self.stack!r}; pick from {STACKS}"
            )
        if self.policy not in _policy_names(self.stack):
            raise SweepError(
                f"unknown policy {self.policy!r} on the {self.stack!r} "
                f"stack; pick from {_policy_names(self.stack)}"
            )
        if self.engine not in ENGINES:
            raise SweepError(
                f"unknown engine {self.engine!r}; pick from {tuple(ENGINES)}"
            )
        if self.scenario not in SCENARIOS:
            raise SweepError(
                f"unknown scenario {self.scenario!r}; pick from {SCENARIOS}"
            )
        if self.duration <= 0:
            raise SweepError("duration must be positive")
        if self.cluster_size < 0:
            raise SweepError("cluster_size must be >= 0")
        if self.cloning < 0:
            raise SweepError("cloning must be >= 0 (0 disables cloning)")
        if self.cpu_low is not None and self.cpu_high is None:
            raise SweepError("cpu_low requires cpu_high")
        if self.cpu_high is not None and self.cpu_low is None:
            # Keep the Table 1 high/low spread (67/64) by default.
            object.__setattr__(self, "cpu_low", float(self.cpu_high) - 3.0)
        if self.cpu_high is not None and not self.cpu_low < self.cpu_high:
            raise SweepError("cpu thresholds must satisfy low < high")
        if self.topology is not None:
            if self.cluster_size != 0:
                raise SweepError(
                    "topology and cluster_size are mutually exclusive; "
                    "the topology names its machines"
                )
            # Validate eagerly so a malformed grid fails at expansion,
            # not inside a worker process.
            self.load_topology()

    def load_topology(self):
        """The spec's :class:`~repro.topology.model.Topology`, or None."""
        if self.topology is None:
            return None
        from ..topology.model import Topology

        try:
            return Topology.from_json(self.topology)
        except Exception as exc:
            raise SweepError(f"invalid topology in spec: {exc}") from exc

    def machine_names(self) -> List[str]:
        """The cluster machine names this spec simulates."""
        if self.topology is not None:
            return list(self.load_topology().machines)
        if self.cluster_size == 0:
            return list(table1.CLUSTER_MACHINES)
        return [f"machine{i}" for i in range(1, self.cluster_size + 1)]

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able form (the worker wire format).

        ``topology``, ``cloning``, and ``stack`` are omitted when unset
        (``stack="cluster"``) so sweep artifacts without them keep
        their historical bytes (golden digests).
        """
        data = asdict(self)
        if data["topology"] is None:
            del data["topology"]
        if data["cloning"] == 0:
            del data["cloning"]
        if data["stack"] == "cluster":
            del data["stack"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise SweepError(f"unknown RunSpec field(s): {unknown}")
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class RunResult:
    """What one completed run hands back to the sweep parent.

    Everything is plain data (the telemetry registry is carried as a
    :func:`~repro.telemetry.dump_registry` payload) so results can be
    pickled across the pool boundary and serialized into the artifact.
    """

    run_id: str
    spec: Dict[str, object]
    #: Scalar outcome summary (drop fraction, peaks, event counts).
    summary: Dict[str, object]
    #: Per-tick records as plain dicts (ClusterSimulation wire form).
    records: List[dict]
    #: dump_registry() payload of the run's whole-run telemetry.
    registry: List[dict]
    #: True when the run was resumed from a checkpoint after a worker
    #: crash; its registry then covers only the resumed tail.
    resumed: bool = False

    def to_dict(self) -> Dict[str, object]:
        """Wire/artifact form of the result.

        Every field is already plain data, so this is a shallow
        conversion: the per-tick record and registry entries are shared
        with the result object, not deep-copied (``dataclasses.asdict``
        recursed through every one of them, which dominated sweep
        merge time).  Treat the returned payload as frozen.
        """
        return {
            "run_id": self.run_id,
            "spec": dict(self.spec),
            "summary": dict(self.summary),
            "records": list(self.records),
            "registry": list(self.registry),
            "resumed": self.resumed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunResult":
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise SweepError(f"unknown RunResult field(s): {unknown}")
        return cls(**data)  # type: ignore[arg-type]


def _format_axis_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def expand_grid(grid: Mapping[str, object]) -> List[RunSpec]:
    """Expand a grid spec into a deterministic list of :class:`RunSpec`.

    Axes are iterated in sorted name order and each axis in its listed
    value order, so the run list (and every ``run_id``) is a pure
    function of the grid content.  ``run_id`` is the comma-joined
    ``name=value`` coordinates; a grid with no axes yields the single
    run ``"single"``.
    """
    unknown_keys = sorted(set(grid) - {"base", "axes"})
    if unknown_keys:
        raise SweepError(f"unknown grid key(s): {unknown_keys} "
                         f"(expected 'base' and/or 'axes')")
    base = dict(grid.get("base", {}))
    axes = grid.get("axes", {})
    if "run_id" in base or "run_id" in axes:
        raise SweepError("run_id is derived from the axes; do not set it")
    spec_fields = {f.name for f in fields(RunSpec)}
    for source, keys in (("base", base), ("axes", axes)):
        bad = sorted(set(keys) - spec_fields)
        if bad:
            raise SweepError(f"unknown RunSpec field(s) in {source}: {bad}")
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise SweepError(f"axis {name!r} must be a non-empty list")
    names = sorted(axes)
    specs: List[RunSpec] = []
    seen: Dict[str, int] = {}
    for combo in itertools.product(*(axes[n] for n in names)):
        params = dict(base)
        params.update(zip(names, combo))
        run_id = ",".join(
            f"{n}={_format_axis_value(v)}" for n, v in zip(names, combo)
        ) or "single"
        if run_id in seen:
            raise SweepError(f"duplicate run_id {run_id!r} "
                             f"(axis values must be distinct)")
        seen[run_id] = 1
        specs.append(RunSpec(run_id=run_id, **params))
    return specs


def fig11_grid(
    duration: float = 2000.0,
    seeds: int = 1,
    engine: str = "python",
    policies: Sequence[str] = POLICIES,
) -> Dict[str, object]:
    """The Figure 11 grid: every policy under the section 5 emergencies.

    ``seeds > 1`` adds a seed axis (useful for scaling runs that need
    more shards than policies); the emergencies themselves are
    deterministic, so extra seeds only vary the fault RNG stream.
    """
    grid: Dict[str, object] = {
        "base": {
            "scenario": "emergency",
            "duration": float(duration),
            "engine": engine,
        },
        "axes": {"policy": list(policies)},
    }
    if seeds > 1:
        grid["axes"]["seed"] = list(range(seeds))
    return grid


def threshold_grid(
    highs: Sequence[float] = (65.0, 67.0, 69.0),
    duration: float = 2000.0,
    policy: str = "freon",
) -> Dict[str, object]:
    """The section 5.1 policy-threshold sweep grid.

    Sweeps the CPU high threshold (``cpu_low`` follows at the Table 1
    spread, ``high - 3``) to show the drop-rate/temperature trade-off
    around the paper's 67/64 setting.
    """
    return {
        "base": {
            "scenario": "emergency",
            "duration": float(duration),
            "policy": policy,
        },
        "axes": {"cpu_high": [float(h) for h in highs]},
    }


def scenario_grid(
    duration: float = 2000.0,
    policy: str = "freon",
    cloning: Sequence[int] = (0, 2),
    include_chaos: bool = True,
) -> Dict[str, object]:
    """The workload-scenario sweep: every adversarial scenario (and its
    chaos variant) crossed with cloning off/on.

    The grid behind the EXPERIMENTS.md scenario table: per scenario, the
    thermal-emergency throughput cost with and without request cloning.
    """
    return {
        "base": {"duration": float(duration), "policy": policy},
        "axes": {
            "scenario": list(scenario_names(include_chaos=include_chaos)),
            "cloning": [int(c) for c in cloning],
        },
    }
