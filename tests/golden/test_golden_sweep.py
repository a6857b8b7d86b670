"""Golden sweep regression: every strategy reproduces the pinned preset.

``tests/golden/thresholds_sweep.json`` pins the merged artifact of the
section 5.1 ``thresholds`` preset (by canonical-JSON digest, with the
per-run summaries in the clear — see ``sweep.py``).  The fork path,
the batched path, and auto must all regenerate those exact bytes; a
digest mismatch with matching summaries means a record- or
telemetry-level change, which is precisely the kind of silent drift
this golden exists to catch.
"""

import json

import pytest


from .sweep import (
    GOLDEN_SWEEP_FILE,
    digest,
    generate_artifact,
    golden_payload,
    v1_artifact,
)
from .traces import GOLDEN_DIR

@pytest.fixture(scope="module")
def stored():
    path = GOLDEN_DIR / GOLDEN_SWEEP_FILE
    if not path.exists():
        pytest.fail(
            f"missing golden sweep artifact {path}; regenerate with "
            f"'PYTHONPATH=src python -m tests.golden.regen'"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("strategy", ("fork", "batch"))
def test_strategy_reproduces_golden_artifact(strategy, stored):
    artifact = generate_artifact(strategy=strategy)
    payload = golden_payload(artifact)
    # Summaries first: when the digest drifts, this is the readable diff.
    assert payload["runs"] == stored["runs"], (
        f"strategy {strategy!r} changed a run summary vs the golden "
        f"thresholds artifact"
    )
    assert payload["registry_families"] == stored["registry_families"]
    assert payload["grid"] == stored["grid"], (
        "the pinned grid changed; regenerate the golden artifact"
    )
    assert digest(artifact) == stored["sha256"], (
        f"strategy {strategy!r} produced different artifact bytes than "
        f"the golden thresholds sweep (summaries match, so the drift is "
        f"in records or telemetry); if intentional, regenerate with "
        f"'PYTHONPATH=src python -m tests.golden.regen'"
    )
    # The same records as version 1's per-tick dicts: the digest pinned
    # before the columnar layout.
    assert digest(v1_artifact(artifact)) == stored["sha256_v1"], (
        f"strategy {strategy!r}: the version 1 expansion of the artifact "
        f"differs from the pinned version 1 digest"
    )
