"""The injector's daemon index answers as the linear scans it replaced.

``daemon_up``, ``monitord_active`` and ``crashed_daemons`` read an index
the injector rebuilds on every change to its active-fault list.  Their
earlier bodies, which rescanned the list on every call, are kept below
as the oracle; random sequences of every call that changes the list
(inject, expire, clear, restart, restore, a watchdog pass) must leave
the index agreeing with them after each step.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.faults.injector import DaemonWatchdog, FaultInjector
from repro.faults.model import FaultKind, FaultSpec

MACHINES = ("m1", "m2", "m3")
DAEMONS = ("tempd", "monitord")


# -- the oracle: the linear-scan bodies -------------------------------------


def _matching(injector, *kinds):
    if not injector._active:
        return []
    return [f for f in injector._active if f.spec.kind in kinds]


def oracle_daemon_up(injector, machine, daemon):
    for fault in _matching(injector, FaultKind.DAEMON_CRASH):
        if fault.spec.machine == machine and fault.spec.target == daemon:
            return False
    return True


def oracle_crashed_daemons(injector):
    return [
        (f.spec.machine, f.spec.target, f.start)
        for f in _matching(injector, FaultKind.DAEMON_CRASH)
    ]


def oracle_monitord_active(injector, machine):
    if not injector._active:
        return True
    if not oracle_daemon_up(injector, machine, "monitord"):
        return False
    for fault in _matching(injector, FaultKind.MONITORD_STALL):
        if fault.spec.machine == machine:
            return False
    return True


def assert_index_matches(injector):
    for machine in MACHINES:
        for daemon in DAEMONS:
            assert injector.daemon_up(machine, daemon) == oracle_daemon_up(
                injector, machine, daemon
            )
        assert injector.monitord_active(machine) == oracle_monitord_active(
            injector, machine
        )
    assert injector.crashed_daemons() == oracle_crashed_daemons(injector)
    assert injector.silenced_monitords == {
        m for m in MACHINES if not oracle_monitord_active(injector, m)
    }


# -- random call sequences ---------------------------------------------------

durations = st.one_of(st.none(), st.sampled_from([1.0, 2.5, 7.0]))
machines = st.sampled_from(MACHINES)

specs = st.one_of(
    st.builds(
        FaultSpec, kind=st.just(FaultKind.DAEMON_CRASH), machine=machines,
        target=st.sampled_from(DAEMONS), duration=durations,
    ),
    st.builds(
        FaultSpec, kind=st.just(FaultKind.MONITORD_STALL), machine=machines,
        target=st.just("monitord"), duration=durations,
    ),
    # Faults the index must ignore.
    st.builds(
        FaultSpec, kind=st.just(FaultKind.NET_LOSS), value=st.just(0.5),
        duration=durations,
    ),
    st.builds(
        FaultSpec, kind=st.just(FaultKind.SENSOR_STUCK), machine=machines,
        target=st.just("cpu"), value=st.just(40.0), duration=durations,
    ),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("inject"), specs),
        st.tuples(st.just("schedule"), st.sampled_from([0.0, 1.0, 3.0]), specs),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 4.0])),
        st.tuples(
            st.just("clear"),
            st.sampled_from([None, FaultKind.DAEMON_CRASH,
                             FaultKind.MONITORD_STALL, FaultKind.NET_LOSS]),
        ),
        st.tuples(st.just("restart"), machines, st.sampled_from(DAEMONS)),
        st.tuples(st.just("watchdog"), st.sampled_from([0.0, 2.0, 10.0])),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore"), st.booleans()),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_index_agrees_with_the_linear_scans(ops):
    injector = FaultInjector(seed=3)
    saved = injector.checkpoint()
    for op in ops:
        kind = op[0]
        if kind == "inject":
            injector.inject(op[1])
        elif kind == "schedule":
            injector.schedule(injector.now + op[1], op[2])
        elif kind == "advance":
            injector.advance_to(injector.now + op[1])
        elif kind == "clear":
            injector.clear(op[1])
        elif kind == "restart":
            injector.restart_daemon(op[1], op[2])
        elif kind == "watchdog":
            watchdog = DaemonWatchdog(
                injector, restart=lambda m, d: None, restart_delay=op[1]
            )
            watchdog.check(injector.now)
        elif kind == "checkpoint":
            saved = json.loads(json.dumps(injector.checkpoint()))
        elif kind == "restore":
            # Onto this injector (rewinding it) or onto a fresh one.
            if op[1]:
                injector = FaultInjector()
            injector.restore(saved)
        assert_index_matches(injector)
