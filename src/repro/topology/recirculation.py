"""The sparse per-machine inlet coupling operator of a topology.

:class:`RecirculationOperator` turns a :class:`~repro.topology.model.
Topology` into the per-tick inlet computation

    ``inlet_i = (1 - sum_j w_ji) * supply(zone_i) + sum_j w_ji * exhaust_j``

generalizing the solver's scalar ``set_cluster_fraction`` weights into a
sparse coupling operator over the whole room.  It offers two bitwise
compatible evaluations:

* :meth:`inlet` — scalar, one machine at a time, reading a mapping of
  previous-tick exhausts.  This is what :class:`~repro.core.solver.
  Solver` calls from its inter-machine traversal (both the python and
  compiled engines go through the solver's scalar inlet dict).
* :meth:`inlets_array` — one sparse matvec over the whole machine axis
  (``np.add.at`` accumulation), used by the flattened
  :class:`~repro.topology.sim.FlatSolver`.

Both paths add the supply term first and then each incoming edge in
topology edge order, so they accumulate in the same floating-point
order; ``tests/topology/test_recirculation.py`` pins the bitwise
equality.

Fiddle edits are supported live: :meth:`set_supply` overrides a zone's
cold-aisle temperature (an AC failure), :meth:`set_weight` changes one
recirculation edge (a containment-curtain change).  Both invalidate the
compiled tables, which are rebuilt lazily.  All mutable state round
trips through :meth:`checkpoint` / :meth:`restore` as plain JSON data.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import TopologyError
from .model import Topology, _SUM_TOLERANCE


class RecirculationOperator:
    """Live, editable inlet-mixing operator compiled from a topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.names: Tuple[str, ...] = topology.machines
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        #: Live edge weights, editable through :meth:`set_weight`.
        self._weights: Dict[Tuple[str, str], float] = {
            (e.src, e.dst): e.weight for e in topology.recirculation
        }
        #: Zone supply-temperature overrides (fiddle ``cluster zone``).
        self._supply_overrides: Dict[str, float] = {}
        # Compiled tables, rebuilt lazily after an edit.
        self._dirty = True
        self._supply_frac: List[float] = []
        self._supply_temp: List[float] = []
        #: Per machine: incoming (src name, weight) terms in edge order.
        self._terms: List[List[Tuple[str, float]]] = []
        self._rows = None  # dst index per edge (NumPy path)
        self._cols = None  # src index per edge
        self._w = None  # weight per edge
        self._supply_arr = None
        self._frac_arr = None

    # -- edits -----------------------------------------------------------

    def set_supply(self, zone: str, value: float) -> None:
        """Override one zone's cold-aisle supply temperature."""
        if zone not in self.topology.zones:
            raise TopologyError(f"unknown zone {zone!r}")
        self._supply_overrides[zone] = float(value)
        self._dirty = True

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
        self._dirty = True

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

    def _compile(self) -> None:
        topo = self.topology
        n = len(self.names)
        terms: List[List[Tuple[str, float]]] = [[] for _ in range(n)]
        incoming = [0.0] * n
        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []
        for edge in topo.recirculation:
            w = self._weights[(edge.src, edge.dst)]
            dst_i = self.index[edge.dst]
            terms[dst_i].append((edge.src, w))
            incoming[dst_i] += w
            rows.append(dst_i)
            cols.append(self.index[edge.src])
            weights.append(w)
        self._terms = terms
        self._supply_frac = [1.0 - total for total in incoming]
        self._supply_temp = [
            self.supply_temperature(topo.positions[name].zone)
            for name in self.names
        ]
        self._rows = np.array(rows, dtype=np.intp)
        self._cols = np.array(cols, dtype=np.intp)
        self._w = np.array(weights, dtype=float)
        self._supply_arr = np.array(self._supply_temp, dtype=float)
        self._frac_arr = np.array(self._supply_frac, dtype=float)
        self._dirty = False

    # -- evaluation ------------------------------------------------------

    def inlet(self, machine: str, prev_exhaust: Mapping[str, float]) -> float:
        """Scalar inlet temperature of one machine for this tick."""
        if self._dirty:
            self._compile()
        i = self.index[machine]
        total = self._supply_frac[i] * self._supply_temp[i]
        for src, w in self._terms[i]:
            total += w * prev_exhaust[src]
        return total

    def inlets_array(self, prev_exhaust):
        """Per-machine inlet temperatures as one sparse matvec.

        ``prev_exhaust`` is the previous-tick exhaust array in canonical
        machine order.  ``np.add.at`` applies the edge contributions
        unbuffered in edge order, matching :meth:`inlet`'s scalar
        accumulation bitwise.
        """
        if self._dirty:
            self._compile()
        out = self._frac_arr * self._supply_arr
        if len(self._rows):
            np.add.at(out, self._rows, self._w * prev_exhaust[self._cols])
        return out

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
        self._dirty = True

    def __repr__(self) -> str:
        return (
            f"RecirculationOperator({len(self.names)} machines, "
            f"{len(self._weights)} edges)"
        )
