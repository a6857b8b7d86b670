"""Golden-trace regression: both engines must reproduce the stored runs.

The JSON files under ``tests/golden/`` hold full-precision node
temperatures from the reference ``python`` engine (see ``regen.py``).
Each engine re-runs the experiment and must agree with the stored
trace node-for-node, tick-for-tick, within ``TOLERANCE`` (1e-9 C) —
tight enough that any change to the physics, the traversal order, or
the compiled lowering shows up immediately.
"""

import json

import pytest

from repro.core.solver import ENGINES

from .traces import GOLDEN_DIR, GOLDEN_TRACES, TOLERANCE


def _load(filename):
    path = GOLDEN_DIR / filename
    if not path.exists():
        pytest.fail(
            f"missing golden trace {path}; regenerate with "
            f"'PYTHONPATH=src python -m tests.golden.regen'"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_golden_trace(name, engine):
    generate, filename = GOLDEN_TRACES[name]
    stored = _load(filename)
    fresh = generate(engine=engine)

    assert fresh["times"] == stored["times"]
    assert sorted(fresh["series"]) == sorted(stored["series"])
    worst = 0.0
    for node, expected in stored["series"].items():
        actual = fresh["series"][node]
        assert len(actual) == len(expected)
        for tick, (a, e) in enumerate(zip(actual, expected)):
            diff = abs(a - e)
            worst = max(worst, diff)
            assert diff <= TOLERANCE, (
                f"{name}: engine {engine!r} diverges from golden trace at "
                f"node {node!r} tick {tick} (t={stored['times'][tick]}): "
                f"{a!r} vs {e!r} (|diff|={diff:.3e} > {TOLERANCE})"
            )
    # The reference engine regenerating its own trace must be exact.
    if engine == "python":
        assert worst == 0.0
