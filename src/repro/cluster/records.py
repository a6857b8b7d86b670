"""Per-tick cluster records, stored as per-field columns.

:class:`~repro.cluster.simulation.ClusterSimulation` records every tick:
four cluster-wide values plus nine observables per server.  Building a
:class:`TickRecord` and one :class:`ServerRecord` per server per tick
made five container objects per tick, which a long sweep kept alive by
the hundred thousand and the garbage collector kept rescanning.  A
:class:`RecordTable` instead appends each value to its column and builds
records only when they are read.

The table is a read-only sequence of :class:`TickRecord` values, so
callers index, slice, iterate and compare it as they would a list of
records.  It is also the one serialiser of the records' wire form, the
per-tick dicts that sweep artifacts and checkpoints carry
(:meth:`RecordTable.to_dicts` / :meth:`RecordTable.from_dicts`).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as _SequenceABC
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from ..errors import ClusterError


class ServerRecord(NamedTuple):
    """One server's observables at one tick."""

    state: str
    rate: float
    cpu_utilization: float
    disk_utilization: float
    connections: float
    weight: float
    connection_limit: Optional[float]
    cpu_temperature: float
    disk_temperature: float


#: Column order of each server's fields; also their wire order.
SERVER_FIELDS = ServerRecord._fields

#: Position of each server field among a server's columns.
_FIELD_INDEX = {name: i for i, name in enumerate(SERVER_FIELDS)}


class TickRecord(NamedTuple):
    """One tick of the whole cluster."""

    time: float
    offered_rate: float
    dropped_rate: float
    active_servers: int
    servers: Dict[str, ServerRecord]


class RecordTable(_SequenceABC):
    """The per-tick records of one run, one list per field.

    ``time``, ``offered_rate``, ``dropped_rate`` and ``active_servers``
    hold the cluster-wide values; ``servers[name]`` holds that server's
    columns in :data:`SERVER_FIELDS` order.  The recorder appends one
    value to every column per tick, so all columns have the same length.

    Reading ``table[i]`` (negative indexes too), a slice or an iterator
    builds :class:`TickRecord` values on demand; a slice is a list of
    them.  Two tables are equal when their records are, and a table
    equals a list of equal records.
    """

    __slots__ = ("machines", "time", "offered_rate", "dropped_rate",
                 "active_servers", "servers")
    __hash__ = None  # mutable, like a list

    def __init__(self, machines: Sequence[str]) -> None:
        self.machines: Tuple[str, ...] = tuple(machines)
        self.time: List[float] = []
        self.offered_rate: List[float] = []
        self.dropped_rate: List[float] = []
        self.active_servers: List[int] = []
        self.servers: Dict[str, Tuple[List[object], ...]] = {
            name: tuple([] for _ in SERVER_FIELDS) for name in self.machines
        }

    # -- sequence ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index):
        if isinstance(index, slice):
            indices = range(*index.indices(len(self.time)))
            return [self._row(i) for i in indices]
        i = operator.index(index)
        n = len(self.time)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("record index out of range")
        return self._row(i)

    def _row(self, i: int) -> TickRecord:
        make = ServerRecord._make
        return TickRecord(
            self.time[i], self.offered_rate[i], self.dropped_rate[i],
            self.active_servers[i],
            {
                name: make([column[i] for column in columns])
                for name, columns in self.servers.items()
            },
        )

    def __iter__(self) -> Iterator[TickRecord]:
        names = self.machines
        make = ServerRecord._make
        rows = [zip(*self.servers[name]) for name in names]
        for time, offered, dropped, active, *servers in zip(
            self.time, self.offered_rate, self.dropped_rate,
            self.active_servers, *rows,
        ):
            yield TickRecord(
                time, offered, dropped, active,
                {name: make(row) for name, row in zip(names, servers)},
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable):
            return (
                self.time == other.time
                and self.offered_rate == other.offered_rate
                and self.dropped_rate == other.dropped_rate
                and self.active_servers == other.active_servers
                and self.servers == other.servers
            )
        if isinstance(other, list):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} ticks, machines={list(self.machines)})"

    # -- columns -----------------------------------------------------------

    def column(self, machine: str, field: str) -> List[object]:
        """One server field over every tick (the stored list itself)."""
        try:
            position = _FIELD_INDEX[field]
        except KeyError:
            raise AttributeError(
                f"server records have no field {field!r}"
            ) from None
        return self.servers[machine][position]

    def copy(self) -> "RecordTable":
        """An independent table holding the records so far."""
        table = RecordTable(self.machines)
        table.time = list(self.time)
        table.offered_rate = list(self.offered_rate)
        table.dropped_rate = list(self.dropped_rate)
        table.active_servers = list(self.active_servers)
        table.servers = {
            name: tuple(list(column) for column in columns)
            for name, columns in self.servers.items()
        }
        return table

    # -- wire form ---------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        """Every record as a plain dict, built straight from the columns.

        The layout is the sweep artifact's and checkpoint's::

            {"time", "offered_rate", "dropped_rate", "active_servers",
             "servers": {machine: {<SERVER_FIELDS>}}}
        """
        names = self.machines
        # One pass over each server's columns, then one over the ticks.
        # The literal keys are SERVER_FIELDS in order: a dict display
        # builds each server dict about twice as fast as dict(zip(...)).
        servers = [
            [
                {
                    "state": state,
                    "rate": rate,
                    "cpu_utilization": cpu_utilization,
                    "disk_utilization": disk_utilization,
                    "connections": connections,
                    "weight": weight,
                    "connection_limit": connection_limit,
                    "cpu_temperature": cpu_temperature,
                    "disk_temperature": disk_temperature,
                }
                for (state, rate, cpu_utilization, disk_utilization,
                     connections, weight, connection_limit, cpu_temperature,
                     disk_temperature) in zip(*self.servers[name])
            ]
            for name in names
        ]
        return [
            {
                "time": time,
                "offered_rate": offered,
                "dropped_rate": dropped,
                "active_servers": active,
                "servers": dict(zip(names, row)),
            }
            for time, offered, dropped, active, *row in zip(
                self.time, self.offered_rate, self.dropped_rate,
                self.active_servers, *servers,
            )
        ]

    @classmethod
    def from_dicts(
        cls, machines: Sequence[str], records: Sequence[Mapping[str, object]]
    ) -> "RecordTable":
        """Rebuild a table from :meth:`to_dicts` output.

        Every record must carry exactly ``machines``, each with exactly
        the :data:`SERVER_FIELDS`; anything else raises
        :class:`~repro.errors.ClusterError`.
        """
        table = cls(machines)
        expected = set(table.machines)
        fields = set(SERVER_FIELDS)
        for data in records:
            servers = data["servers"]
            if set(servers) != expected:
                raise ClusterError(
                    f"record at t={data['time']!r} has servers "
                    f"{sorted(servers)}, expected {sorted(expected)}"
                )
            for name, server in servers.items():
                if set(server) != fields:
                    raise ClusterError(
                        f"record at t={data['time']!r} has server fields "
                        f"{sorted(server)} for {name!r}, expected "
                        f"{sorted(fields)}"
                    )
                for column, field in zip(table.servers[name], SERVER_FIELDS):
                    column.append(server[field])
            table.time.append(float(data["time"]))
            table.offered_rate.append(float(data["offered_rate"]))
            table.dropped_rate.append(float(data["dropped_rate"]))
            table.active_servers.append(int(data["active_servers"]))
        return table
