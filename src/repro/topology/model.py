"""Datacenter spatial topology: racks, zones, and machine positions.

The paper's cluster experiments treat the machine room as a flat list of
machines fed by one air conditioner; recirculation appears only as a
scalar inlet-mixing fraction (``recirculating_cluster``).  This module
models the *room*: machines sit at grid positions (zone, rack, slot),
zones have their own cold-aisle supply temperature, and an explicit
inter-machine recirculation edge list says which machines re-ingest
which neighbours' exhaust air (hot-aisle coupling).  "Spatiotemporal
Modeling of Node Temperatures in Supercomputers" (see PAPERS.md) shows
node temperatures are strongly spatially correlated across a room —
exactly the structure these edges encode.

A :class:`Topology` is *convex by construction*: each machine's inlet is

    ``(1 - sum(w_in)) * supply(zone) + sum(w_e * exhaust(src_e))``

so the incoming recirculation weights of every machine must sum to at
most 1, the remainder being the cold-aisle supply fraction.  Unlike the
perfect-mixing cluster graph there is no flow-weight normalization
step: :mod:`repro.topology.recirculation` compiles each inlet into a
row of the solvers' one inlet operator with a denominator of exactly 1.

Topologies serialize to plain JSON (``to_dict`` / ``from_dict`` /
:func:`load_topology`) so they can ride inside a
:class:`~repro.parallel.spec.RunSpec`, a checkpoint, or a ``--topology``
CLI file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import TopologyError

#: Incoming recirculation weights may sum to at most this (tolerance for
#: builders that split a budget across float shares).
_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Zone:
    """One cooling zone: a named cold-aisle supply."""

    name: str
    supply_temperature: float


@dataclass(frozen=True)
class Position:
    """Grid coordinates of one machine: zone name, rack, slot-in-rack."""

    zone: str
    rack: int
    slot: int


@dataclass(frozen=True)
class RecirculationEdge:
    """``weight`` of ``src``'s exhaust entering ``dst``'s inlet mix."""

    src: str
    dst: str
    weight: float


class Topology:
    """The machine-room model: zones, machine positions, recirculation.

    ``machines`` fixes the canonical machine order (the row order of the
    flattened solver arrays); every machine must have a
    :class:`Position` in a known zone.  ``recirculation`` edges are kept
    in the given order — the order is part of the model, because it
    fixes the floating-point accumulation order of the inlet mix.
    """

    def __init__(
        self,
        machines: Sequence[str],
        zones: Sequence[Zone],
        positions: Mapping[str, Position],
        recirculation: Sequence[RecirculationEdge] = (),
    ) -> None:
        self.machines: Tuple[str, ...] = tuple(machines)
        if not self.machines:
            raise TopologyError("a topology needs at least one machine")
        if len(set(self.machines)) != len(self.machines):
            raise TopologyError("duplicate machine names in topology")
        self.zones: Dict[str, Zone] = {}
        for zone in zones:
            if zone.name in self.zones:
                raise TopologyError(f"duplicate zone {zone.name!r}")
            self.zones[zone.name] = zone
        if not self.zones:
            raise TopologyError("a topology needs at least one zone")
        self.positions: Dict[str, Position] = dict(positions)
        missing = set(self.machines) - set(self.positions)
        extra = set(self.positions) - set(self.machines)
        if missing or extra:
            raise TopologyError(
                "positions do not match machines "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for name, pos in self.positions.items():
            if pos.zone not in self.zones:
                raise TopologyError(
                    f"machine {name!r} placed in unknown zone {pos.zone!r}"
                )
        taken: Dict[Tuple[str, int, int], str] = {}
        for name in self.machines:
            pos = self.positions[name]
            key = (pos.zone, pos.rack, pos.slot)
            if key in taken:
                raise TopologyError(
                    f"machines {taken[key]!r} and {name!r} share grid "
                    f"position {key}"
                )
            taken[key] = name
        self.recirculation: Tuple[RecirculationEdge, ...] = tuple(recirculation)
        known = set(self.machines)
        incoming: Dict[str, float] = {name: 0.0 for name in self.machines}
        seen_pairs = set()
        for edge in self.recirculation:
            if edge.src not in known or edge.dst not in known:
                raise TopologyError(
                    f"recirculation edge {edge.src!r}->{edge.dst!r} names "
                    "an unknown machine"
                )
            if edge.src == edge.dst:
                raise TopologyError(
                    f"machine {edge.src!r} cannot recirculate into itself"
                )
            if (edge.src, edge.dst) in seen_pairs:
                raise TopologyError(
                    f"duplicate recirculation edge {edge.src!r}->{edge.dst!r}"
                )
            seen_pairs.add((edge.src, edge.dst))
            if edge.weight < 0.0:
                raise TopologyError("recirculation weights must be >= 0")
            incoming[edge.dst] += edge.weight
        for name, total in incoming.items():
            if total > 1.0 + _SUM_TOLERANCE:
                raise TopologyError(
                    f"incoming recirculation weights of {name!r} sum to "
                    f"{total:.4f}, must be <= 1 (the remainder is the "
                    "cold-aisle supply fraction)"
                )

    # -- queries ---------------------------------------------------------

    def zone_of(self, machine: str) -> str:
        """Zone name of one machine."""
        try:
            return self.positions[machine].zone
        except KeyError:
            raise TopologyError(f"unknown machine {machine!r}") from None

    def supply_temperature(self, machine: str) -> float:
        """Cold-aisle supply temperature feeding one machine."""
        return self.zones[self.zone_of(machine)].supply_temperature

    def zone_members(self) -> Dict[str, List[str]]:
        """Machines per zone, in canonical machine order."""
        members: Dict[str, List[str]] = {name: [] for name in self.zones}
        for machine in self.machines:
            members[self.positions[machine].zone].append(machine)
        return members

    def __len__(self) -> int:
        return len(self.machines)

    def __repr__(self) -> str:
        return (
            f"Topology({len(self.machines)} machines, "
            f"{len(self.zones)} zones, "
            f"{len(self.recirculation)} recirculation edges)"
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able form; machine key order is the solve order."""
        return {
            "zones": {
                zone.name: {"supply_temperature": zone.supply_temperature}
                for zone in self.zones.values()
            },
            "machines": {
                name: {
                    "zone": self.positions[name].zone,
                    "rack": self.positions[name].rack,
                    "slot": self.positions[name].slot,
                }
                for name in self.machines
            },
            "recirculation": [
                [edge.src, edge.dst, edge.weight]
                for edge in self.recirculation
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Topology":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        unknown = sorted(set(data) - {"zones", "machines", "recirculation"})
        if unknown:
            raise TopologyError(f"unknown topology key(s): {unknown}")
        try:
            zones = [
                Zone(name, float(spec["supply_temperature"]))
                for name, spec in data["zones"].items()
            ]
            machines = list(data["machines"])
            positions = {
                name: Position(
                    zone=str(spec["zone"]),
                    rack=int(spec["rack"]),
                    slot=int(spec["slot"]),
                )
                for name, spec in data["machines"].items()
            }
            recirculation = [
                RecirculationEdge(str(src), str(dst), float(weight))
                for src, dst, weight in data.get("recirculation", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"malformed topology data: {exc}") from exc
        return cls(machines, zones, positions, recirculation)

    def to_json(self) -> str:
        """Canonical JSON text (machine order preserved)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"invalid topology JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise TopologyError("topology JSON must be an object")
        return cls.from_dict(data)


def load_topology(path: str) -> Topology:
    """Read a :class:`Topology` from a JSON file (CLI ``--topology``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TopologyError(f"cannot read topology file {path!r}: {exc}") from exc
    return Topology.from_json(text)


def grid_topology(
    machines: int,
    zones: int = 2,
    machines_per_rack: int = 20,
    supply_temperature: float = 21.6,
    zone_supplies: Optional[Mapping[str, float]] = None,
    intra_rack: float = 0.08,
    cross_rack: float = 0.04,
) -> Topology:
    """A regular machine-room grid with hot-aisle coupling.

    Machines ``machine1..machineN`` fill racks of ``machines_per_rack``
    slots; racks are dealt round-robin across ``zones`` zones.  Each
    machine re-ingests ``intra_rack`` of the exhaust of the machine one
    slot below it in the same rack (heat rising inside the rack) and
    ``cross_rack`` of the exhaust of the same slot in the previous rack
    of its zone (the shared hot aisle between adjacent racks).  Both
    couplings are deterministic functions of the grid, so equal
    arguments build byte-identical topologies.
    """
    if machines <= 0:
        raise TopologyError("machines must be positive")
    if zones <= 0 or machines_per_rack <= 0:
        raise TopologyError("zones and machines_per_rack must be positive")
    if intra_rack < 0.0 or cross_rack < 0.0 or intra_rack + cross_rack > 1.0:
        raise TopologyError(
            "coupling weights must be >= 0 and sum to at most 1"
        )
    zone_names = [f"zone{z}" for z in range(zones)]
    zone_list = [
        Zone(
            name,
            float(
                zone_supplies.get(name, supply_temperature)
                if zone_supplies is not None
                else supply_temperature
            ),
        )
        for name in zone_names
    ]
    names = [f"machine{i}" for i in range(1, machines + 1)]
    positions: Dict[str, Position] = {}
    edges: List[RecirculationEdge] = []
    per_rack = machines_per_rack
    for i, name in enumerate(names):
        rack_global = i // per_rack
        slot = i % per_rack
        zone = zone_names[rack_global % zones]
        rack_in_zone = rack_global // zones
        positions[name] = Position(zone=zone, rack=rack_in_zone, slot=slot)
        if intra_rack > 0.0 and slot > 0:
            edges.append(RecirculationEdge(names[i - 1], name, intra_rack))
        prev_rack_start = (rack_global - zones) * per_rack
        if cross_rack > 0.0 and prev_rack_start >= 0:
            edges.append(
                RecirculationEdge(names[prev_rack_start + slot], name, cross_rack)
            )
    return Topology(names, zone_list, positions, edges)
