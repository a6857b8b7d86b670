"""The golden Freon decision logs: what tempd, admd and Freon-EC decided.

Each run is a 2000 s :class:`ClusterSimulation` on the reference
``python`` engine.  Together they walk every branch of the decision
logic: the PD adjustments and releases of Figure 11, the Figure 10
reconfigurations of Freon-EC, datagram loss, duplication, delay and
reordering on the tempd -> admd path, a sensor whose noise draws from
the same RNG as the datagram fates, the last-known-good hold and the
conservative fallback of a tempd whose sensor drops out, and a tempd
restarted by the watchdog.

For each run the file stores the adjustments, releases, redlines,
Freon-EC events, watchdog restarts, datagram statistics and the fault
log.  :func:`compare` demands the decisions exactly and every float
within :data:`~tests.golden.traces.TOLERANCE`, so the file holds on
every supported Python.  Regenerate with
``PYTHONPATH=src python -m tests.golden.regen`` only after an
intentional change to the policy.
"""

import json
import math
from dataclasses import asdict

from repro.cluster.simulation import (
    ClusterSimulation,
    chaos_script,
    emergency_script,
)

from .traces import GOLDEN_DIR, TOLERANCE

GOLDEN_DECISIONS_FILE = "freon_decisions.json"

#: Every run lasts this long: past both emergencies (t=480 s) and the
#: chaos storm's tempd crash (t=1060 s).
DURATION = 2000.0

#: Network faults on top of the emergencies, plus a noisy CPU sensor
#: drawing from the RNG the datagram fates draw from.
NET_FAULTS = (
    "fault net delay 3\n"
    "fault net dup 0.1\n"
    "fault net reorder 0.2\n"
    "fault machine3 sensor noise cpu 0.3\n"
)

#: machine1's CPU sensor is dead from the start (no good read ever, so
#: every failed wake throttles conservatively), then its tempd crashes.
DROPOUT_FROM_START = (
    "fault machine1 sensor dropout cpu for 400\n"
    "sleep 500\n"
    "fault machine1 daemon crash tempd\n"
)

#: The same sensor dies after good reads while machine1 is hot and
#: restricted: the stale holds come first, the fallback after the
#: staleness limit, and the crash lands inside the dropout.
DROPOUT_WHILE_HOT = (
    emergency_script()
    + "sleep 600\n"
    + "fault machine1 sensor dropout cpu for 400\n"
    + "sleep 200\n"
    + "fault machine1 daemon crash tempd\n"
)

#: run name -> ClusterSimulation keyword arguments.
RUNS = {
    "fig11_freon": dict(policy="freon", fiddle_script=emergency_script()),
    "fig12_freon_ec": dict(
        policy="freon-ec", fiddle_script=emergency_script()
    ),
    "chaos_freon_seed6": dict(
        policy="freon", fiddle_script=chaos_script(), fault_seed=6
    ),
    "chaos_freon_seed15": dict(
        policy="freon", fiddle_script=chaos_script(), fault_seed=15
    ),
    "chaos_freon_ec_seed2006_legacy": dict(
        policy="freon-ec", fiddle_script=chaos_script(), fault_seed=2006,
        mode="legacy",
    ),
    "chaos_freon_ec_seed2006_event": dict(
        policy="freon-ec", fiddle_script=chaos_script(), fault_seed=2006,
        mode="event",
    ),
    "net_faults_freon_ec": dict(
        policy="freon-ec", fiddle_script=NET_FAULTS + emergency_script(),
        fault_seed=2006,
    ),
    "dropout_restart_freon": dict(
        policy="freon", fiddle_script=DROPOUT_FROM_START,
    ),
    "dropout_while_hot_freon": dict(
        policy="freon", fiddle_script=DROPOUT_WHILE_HOT,
    ),
}


def build(name: str, telemetry=None) -> ClusterSimulation:
    """A fresh simulation for one golden run."""
    return ClusterSimulation(
        engine="python", telemetry=telemetry, **RUNS[name]
    )


def decisions(result) -> dict:
    """The decision log of one finished run, as plain JSON data."""
    return {
        "adjustments": [list(a) for a in result.adjustments],
        "releases": [list(r) for r in result.releases],
        "redlined": [list(r) for r in result.redlined],
        "ec_events": [asdict(e) for e in result.ec_events],
        "restarts": [asdict(r) for r in result.restarts],
        "datagram_stats": dict(result.datagram_stats),
        "fault_log": [list(f) for f in result.fault_log],
    }


def generate() -> dict:
    """Run every golden scenario; name -> decision log."""
    return {name: decisions(build(name).run(DURATION)) for name in RUNS}


def compare(actual, expected, where: str = "") -> None:
    """Assert two decision logs agree: structure, strings, ints and
    bools exactly, floats within :data:`TOLERANCE`."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and not isinstance(
            actual, bool
        ), f"{where}: {actual!r} is not a number"
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=TOLERANCE), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {actual!r} is not a map"
        assert sorted(actual) == sorted(expected), (
            f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            compare(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)), (
            f"{where}: {actual!r} is not a list"
        )
        assert len(actual) == len(expected), (
            f"{where}: {len(actual)} entries != {len(expected)}"
        )
        for index, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{where}[{index}]")
    else:
        assert actual == expected and type(actual) is type(expected), (
            f"{where}: {actual!r} != {expected!r}"
        )


def load() -> dict:
    return json.loads((GOLDEN_DIR / GOLDEN_DECISIONS_FILE).read_text())


def regenerate() -> None:
    data = generate()
    path = GOLDEN_DIR / GOLDEN_DECISIONS_FILE
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {path} ({len(data)} runs)")
