"""The inlet operator of a spatial topology.

:class:`RecirculationOperator` compiles a :class:`~repro.topology.model.
Topology` into rows of the solvers' one
:class:`~repro.core.inlets.InletOperator`:

    ``inlet_i = (1 - sum_j w_ji) * supply(zone_i) + sum_j w_ji * exhaust_j``

generalizing the cluster graph's scalar ``set_cluster_fraction`` weights
into a sparse coupling over the whole room.  A row adds the zone supply
term first, then the incoming edges in topology edge order, over a
denominator of exactly 1.0.

Fiddle edits are supported live: :meth:`set_supply` overrides a zone's
cold-aisle temperature (an AC failure), :meth:`set_weight` changes one
recirculation edge (a containment-curtain change).  Both drop the
compiled table, which is rebuilt lazily.  All mutable state round trips
through :meth:`checkpoint` / :meth:`restore` as plain JSON data.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from ..core.inlets import InletOperator
from ..errors import TopologyError
from .model import Topology, _SUM_TOLERANCE


class RecirculationOperator(InletOperator):
    """Live, editable inlet-mixing operator compiled from a topology."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology.machines)
        self.topology = topology
        #: Live edge weights, editable through :meth:`set_weight`.
        self._weights: Dict[Tuple[str, str], float] = {
            (e.src, e.dst): e.weight for e in topology.recirculation
        }
        #: Zone supply-temperature overrides (fiddle ``cluster zone``).
        self._supply_overrides: Dict[str, float] = {}

    # -- edits -----------------------------------------------------------

    def set_supply(self, zone: str, value: float) -> None:
        """Override one zone's cold-aisle supply temperature."""
        if zone not in self.topology.zones:
            raise TopologyError(f"unknown zone {zone!r}")
        self._supply_overrides[zone] = float(value)
        self.invalidate()

    def set_weight(self, src: str, dst: str, value: float) -> None:
        """Change one recirculation edge's weight.

        The edge must exist in the topology; the new per-destination
        weight sum must stay convex (<= 1).
        """
        if (src, dst) not in self._weights:
            raise TopologyError(
                f"no recirculation edge {src!r}->{dst!r} in the topology"
            )
        if value < 0.0:
            raise TopologyError("recirculation weights must be >= 0")
        total = value + sum(
            w for (s, d), w in self._weights.items()
            if d == dst and (s, d) != (src, dst)
        )
        if total > 1.0 + _SUM_TOLERANCE:
            raise TopologyError(
                f"incoming weights of {dst!r} would sum to {total:.4f} > 1"
            )
        self._weights[(src, dst)] = float(value)
        self.invalidate()

    def supply_temperature(self, zone: str) -> float:
        """Current (possibly overridden) supply temperature of a zone."""
        if zone not in self.topology.zones:
            raise TopologyError(f"unknown zone {zone!r}")
        return self._supply_overrides.get(
            zone, self.topology.zones[zone].supply_temperature
        )

    def weight(self, src: str, dst: str) -> float:
        """Current weight of one recirculation edge."""
        try:
            return self._weights[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"no recirculation edge {src!r}->{dst!r} in the topology"
            ) from None

    # -- compilation -----------------------------------------------------

    def _compile(self) -> tuple:
        topo = self.topology
        n = len(self.names)
        edges = topo.recirculation
        src = np.array([self.index[e.src] for e in edges], dtype=np.intp)
        dst = np.array([self.index[e.dst] for e in edges], dtype=np.intp)
        w = np.array([self._weights[(e.src, e.dst)] for e in edges],
                     dtype=float)
        incoming = np.zeros(n)
        np.add.at(incoming, dst, w)  # unbuffered, in edge order
        # Term 0 of a row is its zone supply; an edge follows the edges
        # into the same machine that precede it in the topology.
        counts = np.bincount(dst, minlength=n)
        starts = np.cumsum(counts) - counts
        place = np.empty(len(edges), dtype=np.intp)
        place[np.argsort(dst, kind="stable")] = (
            np.arange(1, len(edges) + 1) - np.repeat(starts, counts)
        )
        supply = {zone: self.supply_temperature(zone) for zone in topo.zones}
        rows = np.arange(n)
        return self._table(
            np.concatenate((rows, place * n + dst)),
            np.concatenate((n + rows, src)),
            np.concatenate((1.0 - incoming, w)),
            [supply[topo.positions[name].zone] for name in self.names],
            np.ones(n),
        )

    # -- checkpoint / restore --------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """All mutable operator state as plain JSON-able data."""
        return {
            "supply_overrides": dict(self._supply_overrides),
            "weights": {
                f"{src}|{dst}": w for (src, dst), w in self._weights.items()
            },
        }

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` (same topology required)."""
        overrides = {
            str(zone): float(v)
            for zone, v in data["supply_overrides"].items()
        }
        for zone in overrides:
            if zone not in self.topology.zones:
                raise TopologyError(f"unknown zone {zone!r} in checkpoint")
        weights: Dict[Tuple[str, str], float] = {}
        for key, w in data["weights"].items():
            src, dst = key.split("|")
            if (src, dst) not in self._weights:
                raise TopologyError(
                    f"unknown recirculation edge {src!r}->{dst!r} "
                    "in checkpoint"
                )
            weights[(src, dst)] = float(w)
        if set(weights) != set(self._weights):
            raise TopologyError("checkpoint weight set does not match topology")
        self._supply_overrides = overrides
        self._weights = weights
        self.invalidate()

    def __repr__(self) -> str:
        return (
            f"RecirculationOperator({len(self.names)} machines, "
            f"{len(self._weights)} edges)"
        )
