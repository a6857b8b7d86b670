"""fiddle: the thermal-emergency tool (paper section 2.3).

"To simulate temperature emergencies and other environmental changes, we
created a tool called fiddle.  Fiddle can force the solver to change any
constant or temperature on-line."  Examples from the paper: raising a
machine's inlet temperature to emulate an air-conditioning failure, and
changing air-flow or power-consumption information to emulate multi-speed
fans or CPU-driven thermal management (DVFS / clock throttling).

:class:`Fiddle` is the programmatic face; each verb maps to a solver
mutation:

==============  ====================================================
verb            effect
==============  ====================================================
``temperature`` force a node temperature (``inlet`` installs an
                override until cleared)
``k``           change a heat edge's conductance
``fraction``    change an air edge's fraction
``fan``         change a machine's fan flow (ft^3/min)
``power``       scale a component's power draw (DVFS/throttling)
``source``      change a cluster cooling source's supply temperature
``fraction``    (cluster) change an inter-machine air edge's fraction
``zone``        change a topology zone's cold-aisle supply temperature
``recirculation`` change a topology recirculation edge's weight
``restore``     clear a machine's inlet override
==============  ====================================================

The string command form (:meth:`Fiddle.command`) accepts shell-like
lines — ``fiddle machine1 temperature inlet 30`` — with quoting for
multi-word node names; :mod:`repro.fiddle.script` builds timed scripts
out of these.
"""

from __future__ import annotations

import math
import shlex
from typing import List, Optional, Sequence

from ..core.solver import Solver
from ..errors import FiddleError

#: Verbs and the number of target tokens they take before the value.
_VERBS = {
    "temperature": 1,
    "k": 2,
    "fraction": 2,
    "fan": 0,
    "power": 1,
    "restore": 0,
}


class Fiddle:
    """Runtime mutator for a solver (single machine or cluster)."""

    def __init__(self, solver: Solver) -> None:
        self._solver = solver
        #: Audit log of applied commands, for experiment write-ups.
        self.log: List[str] = []

    # -- verbs ------------------------------------------------------------

    def temperature(self, machine: str, node: str, value: float) -> None:
        """Force a node's temperature (Celsius)."""
        self._solver.force_temperature(machine, node, value)
        self._record(f"{machine} temperature {node} {value}")

    def k(self, machine: str, a: str, b: str, value: float) -> None:
        """Change the heat-transfer constant between two nodes (W/K)."""
        self._solver.machine(machine).set_k(a, b, value)
        self._record(f"{machine} k {a}|{b} {value}")

    def fraction(self, machine: str, src: str, dst: str, value: float) -> None:
        """Change an air edge's flow fraction."""
        self._solver.machine(machine).set_fraction(src, dst, value)
        self._record(f"{machine} fraction {src}|{dst} {value}")

    def fan(self, machine: str, cfm: float) -> None:
        """Change a machine's fan flow (emulates multi-speed fans)."""
        self._solver.machine(machine).set_fan_cfm(cfm)
        self._record(f"{machine} fan {cfm}")

    def power(self, machine: str, component: str, factor: float) -> None:
        """Scale a component's power (emulates DVFS / clock throttling)."""
        self._solver.machine(machine).set_power_scale(component, factor)
        self._record(f"{machine} power {component} {factor}")

    def source(self, source: str, value: float) -> None:
        """Change a cluster cooling source's supply temperature."""
        self._solver.set_source_temperature(source, value)
        self._record(f"cluster source {source} {value}")

    def cluster_fraction(self, src: str, dst: str, value: float) -> None:
        """Change an inter-machine air edge's fraction (e.g. a failed damper)."""
        self._solver.set_cluster_fraction(src, dst, value)
        self._record(f"cluster fraction {src}|{dst} {value}")

    def zone(self, zone: str, value: float) -> None:
        """Change a topology zone's cold-aisle supply temperature."""
        self._solver.set_zone_supply(zone, value)
        self._record(f"cluster zone {zone} {value}")

    def recirculation(self, src: str, dst: str, value: float) -> None:
        """Change a topology recirculation edge's weight."""
        self._solver.set_recirculation(src, dst, value)
        self._record(f"cluster recirculation {src}|{dst} {value}")

    def restore(self, machine: str) -> None:
        """Clear a machine's inlet override (cooling restored)."""
        self._solver.clear_inlet_override(machine)
        self._record(f"{machine} restore")

    def _record(self, entry: str) -> None:
        self.log.append(entry)

    # -- command-string form ------------------------------------------------

    def command(self, line: str) -> None:
        """Apply one shell-style fiddle command line.

        Forms (node names with spaces need quotes)::

            fiddle <machine> temperature <node> <value>
            fiddle <machine> k <node-a> <node-b> <value>
            fiddle <machine> fraction <src> <dst> <value>
            fiddle <machine> fan <cfm>
            fiddle <machine> power <component> <factor>
            fiddle <machine> restore
            fiddle cluster source <source> <value>
            fiddle cluster fraction <src> <dst> <value>
            fiddle cluster zone <zone> <value>
            fiddle cluster recirculation <src> <dst> <value>

        The leading ``fiddle`` word is optional.
        """
        tokens = shlex.split(line, comments=True)
        if not tokens:
            raise FiddleError("empty fiddle command")
        if tokens[0] == "fiddle":
            tokens = tokens[1:]
        if len(tokens) < 2:
            raise FiddleError(f"short fiddle command: {line!r}")
        target, verb, rest = tokens[0], tokens[1], tokens[2:]
        if target == "cluster":
            if verb == "source" and len(rest) == 2:
                self.source(rest[0], parse_number(rest[1], line))
                return
            if verb == "fraction" and len(rest) == 3:
                self.cluster_fraction(rest[0], rest[1], parse_number(rest[2], line))
                return
            if verb == "zone" and len(rest) == 2:
                self.zone(rest[0], parse_number(rest[1], line))
                return
            if verb == "recirculation" and len(rest) == 3:
                self.recirculation(rest[0], rest[1], parse_number(rest[2], line))
                return
            raise FiddleError(
                "cluster commands are 'cluster source <name> <value>', "
                "'cluster fraction <src> <dst> <value>', "
                "'cluster zone <zone> <value>', or "
                f"'cluster recirculation <src> <dst> <value>': {line!r}"
            )
        if verb not in _VERBS:
            raise FiddleError(f"unknown fiddle verb {verb!r} in {line!r}")
        n_targets = _VERBS[verb]
        needs_value = verb != "restore"
        expected = n_targets + (1 if needs_value else 0)
        if len(rest) != expected:
            raise FiddleError(
                f"verb {verb!r} takes {expected} arguments, got {len(rest)}: {line!r}"
            )
        if verb == "temperature":
            self.temperature(target, rest[0], parse_number(rest[1], line))
        elif verb == "k":
            self.k(target, rest[0], rest[1], parse_number(rest[2], line))
        elif verb == "fraction":
            self.fraction(target, rest[0], rest[1], parse_number(rest[2], line))
        elif verb == "fan":
            self.fan(target, parse_number(rest[0], line))
        elif verb == "power":
            self.power(target, rest[0], parse_number(rest[1], line))
        elif verb == "restore":
            self.restore(target)


def parse_number(token: str, line: str) -> float:
    """A command's finite numeric argument; :class:`FiddleError` otherwise."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FiddleError(f"expected a finite number, got {token!r} in {line!r}")
    return value
