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
records.  Its columns are also the records' wire form, the one layout
sweep artifacts and checkpoints carry: :meth:`RecordTable.to_columns`
hands them out as a mapping of lists, and
:meth:`RecordTable.from_columns` validates and copies such a mapping
back into a table.  No per-tick dict is built either way.
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

    def to_columns(self) -> Dict[str, object]:
        """The records' wire form: this table's own column lists.

        The layout sweep artifacts and checkpoints carry::

            {"time": [...], "offered_rate": [...], "dropped_rate": [...],
             "active_servers": [...], "servers": {machine: {field: [...]}}}

        with machines in simulation order and fields in
        :data:`SERVER_FIELDS` order.  Nothing is copied, so the mapping
        sees every later append; take it from a :meth:`copy` to freeze it.
        """
        return {
            "time": self.time,
            "offered_rate": self.offered_rate,
            "dropped_rate": self.dropped_rate,
            "active_servers": self.active_servers,
            "servers": {
                name: dict(zip(SERVER_FIELDS, columns))
                for name, columns in self.servers.items()
            },
        }

    @classmethod
    def from_columns(cls, machines: Sequence[str], data: object) -> "RecordTable":
        """Rebuild a table from :meth:`to_columns` output, copying every
        column.

        The whole layout is checked before the table is built: a mapping
        with exactly the wire keys, ``servers`` naming exactly
        ``machines`` with exactly the :data:`SERVER_FIELDS` each, every
        column a list, all of one length, and numeric times, rates and
        active counts.  Anything else raises
        :class:`~repro.errors.ClusterError`.  Times and rates are cast to
        float and active counts to int; server values are kept as stored.
        """
        names = tuple(machines)
        _check_keys("records", data, _WIRE_KEYS)
        servers = data["servers"]
        _check_keys("records servers", servers, names)
        ticks = len(_check_column("records column 'time'", data["time"]))
        cast = {}
        for key, kind in _TICK_COLUMNS:
            what = f"records column {key!r}"
            column = _check_column(what, data[key], ticks)
            try:
                cast[key] = [kind(value) for value in column]
            except (TypeError, ValueError, OverflowError):
                raise ClusterError(f"{what} holds a non-numeric value") from None
        for name in names:
            fields = servers[name]
            _check_keys(f"records fields of {name!r}", fields, SERVER_FIELDS)
            for field in SERVER_FIELDS:
                _check_column(
                    f"records column {field!r} of {name!r}", fields[field],
                    ticks,
                )
        table = cls(names)
        for key, values in cast.items():
            setattr(table, key, values)
        table.servers = {
            name: tuple(list(servers[name][field]) for field in SERVER_FIELDS)
            for name in names
        }
        return table


#: The wire form's keys, in order.
_WIRE_KEYS = ("time", "offered_rate", "dropped_rate", "active_servers",
              "servers")

#: The cluster-wide columns and the type each value is read back as.
_TICK_COLUMNS = (
    ("time", float), ("offered_rate", float), ("dropped_rate", float),
    ("active_servers", int),
)


def _check_keys(what: str, data: object, expected: Sequence[str]) -> None:
    """Raise :class:`ClusterError` unless ``data`` is a mapping with
    exactly the ``expected`` keys."""
    if not isinstance(data, Mapping):
        raise ClusterError(
            f"{what} must be a mapping, not {type(data).__name__}"
        )
    missing = [key for key in expected if key not in data]
    extra = sorted(map(repr, set(data) - set(expected)))
    if missing or extra:
        raise ClusterError(
            f"{what}: missing {missing}, unexpected [{', '.join(extra)}]"
        )


def _check_column(what: str, column: object, ticks: Optional[int] = None):
    """``column`` if it is a list of ``ticks`` values (any length when
    ``ticks`` is None); otherwise raise :class:`ClusterError`."""
    if not isinstance(column, list):
        raise ClusterError(
            f"{what} must be a list, not {type(column).__name__}"
        )
    if ticks is not None and len(column) != ticks:
        raise ClusterError(
            f"{what} has {len(column)} values for {ticks} ticks"
        )
    return column
