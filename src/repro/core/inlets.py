"""Machine inlets as one table: the inter-machine air traversal.

Mercury's inter-machine air movement "assumes a perfect mixing of the
air" (paper section 2.2): a machine's inlet is a weighted average of the
streams that feed it.  :class:`InletOperator` compiles those mixes into
one table.  A machine's row holds its terms, each a supply temperature
or another machine's previous-tick exhaust with a weight, and a
denominator.  Every row is evaluated with one formula, added left to
right in term order::

    inlet = (t0*w0 + t1*w1 + ...) / den

:class:`ClusterInlets` compiles the paper's cluster air graph: a weight
is the stream's flow times its edge fraction, and ``den`` the weights'
sum, as :func:`~repro.core.physics.mix_streams` mixes them.
:class:`~repro.topology.recirculation.RecirculationOperator` compiles a
spatial topology: the zone supply weighted by ``1 - sum(w)`` first, then
the recirculation edges, over ``den = 1.0``.  Both
:class:`~repro.core.solver.Solver` engines, every batched sweep member
and :class:`~repro.topology.sim.FlatSolver` evaluate through
:meth:`InletOperator.inlets_array`.  An edit drops the table; the next
evaluation compiles it again.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..errors import SolverError, UnknownNodeError
from .graph import ClusterLayout

#: One term of a row: (stream name, supply temperature, weight).  The
#: temperature is None for a term that reads machine ``name``'s exhaust.
Term = Tuple[str, Optional[float], float]


class InletOperator:
    """Per-machine inlets compiled into one table.

    Subclasses list each machine's terms in :meth:`_compile` and build
    the table with :meth:`_table`.  The table is compiled on the first
    evaluation and kept until an edit calls :meth:`invalidate`.
    """

    def __init__(self, names: Sequence[str]) -> None:
        #: Machine per row; also the order of the exhaust array.
        self.names: Tuple[str, ...] = tuple(names)
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        #: (values, columns, weights, den, reads_no_exhaust), or None
        #: until compiled.
        self.table: Optional[tuple] = None
        #: The inlets of a table none of whose terms reads an exhaust:
        #: they stay the same until an edit, so they are evaluated once.
        self._constant: Optional[Dict[str, float]] = None

    def invalidate(self) -> None:
        """Drop the compiled table after an edit."""
        self.table = None
        self._constant = None

    def _table(self, places, columns, weights, supplies, dens) -> tuple:
        """The table from flat per-term lists.

        Term ``k`` sits at ``places[k]``, its position in its row times
        the machine count plus the row.  ``columns[k]`` indexes the
        exhausts, or ``supplies`` from the machine count on.
        """
        n = len(self.names)
        places = np.asarray(places, dtype=np.intp)
        width = int(places.max()) // n + 1
        pad = n + len(supplies)  # a 0.0 slot
        values = np.zeros(pad + 1)
        values[n:pad] = supplies
        # Term-major, so each term is one contiguous row.  Short rows are
        # padded with 0.0 * -0.0 = -0.0, which adds nothing to any sum,
        # bit for bit.
        columns_arr = np.full(width * n, pad, dtype=np.intp)
        columns_arr[places] = columns
        weights_arr = np.full(width * n, -0.0)
        weights_arr[places] = weights
        return (values, columns_arr.reshape(width, n),
                weights_arr.reshape(width, n), np.asarray(dens, dtype=float),
                int(np.min(columns)) >= n)

    def inlets_array(self, exhaust):
        """Every machine's inlet as a new array, from the previous-tick
        ``exhaust`` array in :attr:`names` order."""
        if self.table is None:
            self.table = self._compile()
        values, columns, weights, den, _ = self.table
        values[:len(self.names)] = exhaust
        terms = values[columns] * weights
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total / den

    def inlets(self, exhaust: Mapping[str, float]) -> Dict[str, float]:
        """Every machine's inlet as a Python float, by machine name."""
        if self._constant is not None:
            return dict(self._constant)
        values = self.inlets_array([exhaust[name] for name in self.names])
        inlets = dict(zip(self.names, values.tolist()))
        if self.table[4]:  # no term reads an exhaust
            self._constant = dict(inlets)
        return inlets

    def inlet(self, machine: str, exhaust: Mapping[str, float]) -> float:
        """One machine's inlet, read from :meth:`inlets`."""
        return self.inlets(exhaust)[machine]


class ClusterInlets(InletOperator):
    """The cluster air graph's inlet rows and their live fiddle edits.

    A source's flow is its ``flow_m3s`` or, without one, the fan flow
    summed over all machines; a machine's exhaust flow is its fan flow,
    both from the cluster layout's ``fan_cfm``.  A machine no edge feeds
    keeps ``fallback[machine]``, its layout inlet temperature.
    """

    def __init__(self, cluster: ClusterLayout,
                 fallback: Mapping[str, float]) -> None:
        super().__init__(cluster.machines)
        self.cluster = cluster
        self._fallback = fallback
        #: Live inter-machine edge fractions (fiddle ``cluster fraction``).
        self.fractions: Dict[Tuple[str, str], float] = {
            (e.src, e.dst): e.fraction for e in cluster.edges
        }
        #: Supply-temperature overrides (fiddle ``cluster source``).
        self.source_overrides: Dict[str, float] = {}

    def set_source(self, source: str, value: float) -> None:
        """Override a cooling source's supply temperature."""
        if source not in self.cluster.sources:
            raise UnknownNodeError(source)
        self.source_overrides[source] = value
        self.invalidate()

    def set_fraction(self, src: str, dst: str, value: float) -> None:
        """Change one edge's fraction.

        A fraction outside [0, 1], or one that leaves a machine ``dst``
        no incoming air, raises :class:`SolverError` and changes nothing.
        """
        fractions = self._with(dict(self.fractions), src, dst, value)
        if dst in self.cluster.machines:
            self._row(dst, fractions)  # raises if no air reaches dst
        self.fractions = fractions
        self.invalidate()

    @staticmethod
    def _with(fractions, src: str, dst: str, value):
        if (src, dst) not in fractions:
            raise UnknownNodeError(f"{src}->{dst}")
        if not 0.0 <= value <= 1.0:
            raise SolverError("cluster air fraction must be in [0, 1]")
        fractions[(src, dst)] = value
        return fractions

    def _flow(self, src: str) -> float:
        cluster = self.cluster
        if src not in cluster.sources:
            return units.cfm_to_m3s(cluster.machines[src].fan_cfm)
        flow = cluster.sources[src].flow_m3s
        if flow is None:
            flow = sum(
                units.cfm_to_m3s(m.fan_cfm) for m in cluster.machines.values()
            )
        return flow

    def _row(self, machine: str, fractions) -> Tuple[List[Term], float]:
        terms: List[Term] = []
        den = 0.0
        for edge in self.cluster.incoming(machine):
            weight = self._flow(edge.src) * fractions[(edge.src, edge.dst)]
            source = self.cluster.sources.get(edge.src)
            supply = None if source is None else self.source_overrides.get(
                edge.src, source.supply_temperature
            )
            terms.append((edge.src, supply, weight))
            den += weight
        if not terms:
            return [(machine, self._fallback[machine], 1.0)], 1.0
        if not den > 0.0:
            raise SolverError(
                f"no air flows into {machine!r}: its incoming cluster "
                "fractions are all 0"
            )
        return terms, den

    def _compile(self) -> tuple:
        n = len(self.names)
        places: List[int] = []
        columns: List[int] = []
        weights: List[float] = []
        supplies: List[float] = []
        dens: List[float] = []
        for row, name in enumerate(self.names):
            terms, den = self._row(name, self.fractions)
            for place, (src, supply, weight) in enumerate(terms):
                places.append(place * n + row)
                if supply is None:
                    columns.append(self.index[src])
                else:
                    columns.append(n + len(supplies))
                    supplies.append(supply)
                weights.append(weight)
            dens.append(den)
        return self._table(places, columns, weights, supplies, dens)

    def checkpoint(self) -> Dict[str, object]:
        """The edits, under the solver checkpoint's keys."""
        return {
            "source_overrides": dict(self.source_overrides),
            "cluster_fractions": {
                f"{src}|{dst}": v for (src, dst), v in self.fractions.items()
            },
        }

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint`; a bad fraction changes nothing."""
        fractions = dict(self.fractions)
        for key, value in data["cluster_fractions"].items():
            self._with(fractions, *key.split("|"), value)
        self.source_overrides = {
            name: float(v) for name, v in data["source_overrides"].items()
        }
        self.fractions = fractions
        self.invalidate()
