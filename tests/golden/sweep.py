"""The golden sweep artifact: the pinned ``thresholds`` preset.

The full merged artifact of the section 5.1 threshold sweep is a
couple of megabytes, so the golden file pins its canonical form by
digest instead of by value: the SHA-256 of the sorted-keys JSON (the
exact byte-identity contract the sweep strategies are tested against)
plus the per-run summaries and registry family names in the clear, so
a digest mismatch still leaves something human-readable to diff.

A second digest pins the same artifact in the version 1 layout, which
carried each run's records as one dict per tick: :func:`v1_artifact`
expands today's record columns back into those dicts, so the digest
pinned before the columnar layout still checks every recorded value.

Regenerate with ``PYTHONPATH=src python -m tests.golden.regen`` after
an *intentional* change to the simulation, and eyeball the summary
diff before committing it.
"""

import hashlib
import json
from typing import Dict, List

from repro.parallel import expand_grid, sweep, threshold_grid

from .traces import GOLDEN_DIR

GOLDEN_SWEEP_FILE = "thresholds_sweep.json"

#: Long enough to cross the t=480 emergencies (so Freon actually works
#: the thresholds being swept), short enough to regenerate in seconds.
DURATION = 600.0


def build_grid() -> Dict[str, object]:
    """The pinned grid: the thresholds preset on the compiled engine."""
    grid = threshold_grid(duration=DURATION)
    grid["base"]["engine"] = "compiled"
    return grid


def generate_artifact(strategy: str) -> Dict[str, object]:
    return sweep(expand_grid(build_grid()), strategy=strategy)


def canonical(artifact: Dict[str, object]) -> str:
    return json.dumps(artifact, sort_keys=True)


def digest(artifact: Dict[str, object]) -> str:
    return hashlib.sha256(canonical(artifact).encode()).hexdigest()


#: The cluster-wide record columns, in their version 1 dict order.
_TICK_KEYS = ("time", "offered_rate", "dropped_rate", "active_servers")


def _tick_dicts(columns: Dict[str, object]) -> List[Dict[str, object]]:
    """Record columns as version 1's per-tick dicts."""
    if not columns:
        return []  # a scale-stack run records no ticks
    servers = columns["servers"]
    return [
        {
            **dict(zip(_TICK_KEYS, values)),
            "servers": {
                name: {field: column[tick] for field, column in fields.items()}
                for name, fields in servers.items()
            },
        }
        for tick, values in enumerate(
            zip(*(columns[key] for key in _TICK_KEYS))
        )
    ]


def v1_artifact(artifact: Dict[str, object]) -> Dict[str, object]:
    """``artifact`` as version 1 wrote it: each run's records as one
    dict per tick."""
    return {
        **artifact,
        "version": 1,
        "runs": [
            {**run, "records": _tick_dicts(run["records"])}
            for run in artifact["runs"]
        ],
    }


def golden_payload(artifact: Dict[str, object]) -> Dict[str, object]:
    """What the golden file stores: digests + readable excerpts."""
    return {
        "grid": build_grid(),
        "sha256": digest(artifact),
        "sha256_v1": digest(v1_artifact(artifact)),
        "runs": [
            {"run_id": run["run_id"], "summary": run["summary"]}
            for run in artifact["runs"]
        ],
        "registry_families": sorted(
            family["name"] for family in artifact["registry"]
        ),
    }


def regenerate() -> None:
    artifact = generate_artifact(strategy="fork")
    payload = golden_payload(artifact)
    path = GOLDEN_DIR / GOLDEN_SWEEP_FILE
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {path} ({len(payload['runs'])} runs, "
        f"sha256 {payload['sha256'][:12]}...)"
    )
