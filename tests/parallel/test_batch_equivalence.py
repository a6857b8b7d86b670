"""Property-test harness: the batched sweep path is bit-equivalent.

The batched engine (``repro.parallel.batch``) promises that stacking a
grid of runs as rows on one vectorized solver changes *nothing* about
any individual run — not a single bit of any record, summary, or
telemetry family.  Hypothesis is not installed in this environment, so
this is a seeded-``random.Random`` harness in the same spirit: each
case derives a randomized grid (policy, scenario, thresholds, cluster
size, fault seed, loss rate, checkpoint cadence) from its case seed,
runs it through both the batched lockstep runner and the sequential
per-run path, and asserts the results are byte-identical run by run.

A failing case prints its case seed and run_id; re-running the one
parametrized case reproduces the exact grid (the no-shrinking
trade-off of a hand-rolled harness).  Grids deliberately include
members the pool must refuse (``engine="python"``) so the mixed
pooled/inline lockstep path is exercised, not just the all-pooled
fast path.
"""

import json
import random

import pytest

from repro.parallel import RunSpec, execute_spec, sweep
from repro.parallel.batch import run_batch

#: Independent randomized grids; each is one parametrized test case.
CASE_SEEDS = tuple(range(6))

#: Every policy the simulation knows, including the ones the original
#: sweep presets never touch (local-dvfs drives per-machine throttling,
#: a different fiddle/actuation path than the balancer policies).
POLICY_CHOICES = ("none", "traditional", "freon", "freon-ec", "local-dvfs")

#: The section 5 emergencies fire at t=480; runs that should see a
#: fiddle storm must cross that line, quiet runs can stay short.
STORM_DURATIONS = (500.0, 520.0)
QUIET_DURATIONS = (90.0, 140.0)


def _random_spec(rng: random.Random, run_id: str) -> RunSpec:
    """One randomized run; scenario picks the duration band."""
    scenario = rng.choice(("emergency", "chaos", "none"))
    params = {
        "run_id": run_id,
        "policy": rng.choice(POLICY_CHOICES),
        "engine": "compiled",
        "scenario": scenario,
        "duration": rng.choice(
            QUIET_DURATIONS if scenario == "none" else STORM_DURATIONS
        ),
        "seed": rng.randrange(1000),
    }
    if scenario == "chaos":
        params["loss"] = rng.choice((0.0, 0.05, 0.2))
    if rng.random() < 0.5:
        # Section 5.1 threshold sweep territory; cpu_low follows at the
        # Table 1 spread unless the case pins it explicitly.
        params["cpu_high"] = rng.choice((63.0, 65.0, 67.0, 69.0))
        if rng.random() < 0.3:
            params["cpu_low"] = params["cpu_high"] - rng.choice((2.0, 4.0))
    if rng.random() < 0.3:
        # The emergency/chaos scripts fiddle machine1..machine3, so a
        # non-default cluster must keep at least those machines.
        params["cluster_size"] = 5 if scenario != "none" else rng.choice((2, 5))
    if rng.random() < 0.3:
        params["checkpoint_every"] = rng.choice((30.0, 60.0))
    if rng.random() < 0.25:
        # A member the pool must refuse: it runs inline in the same
        # lockstep loop while its neighbors stay pooled.
        params["engine"] = "python"
    return RunSpec(**params)


def _random_specs(rng: random.Random, tag: str) -> list:
    return [
        _random_spec(rng, f"{tag}-run{i}")
        for i in range(rng.randint(2, 4))
    ]


def _dumps(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("case_seed", CASE_SEEDS)
def test_random_grid_batched_equals_sequential(case_seed):
    rng = random.Random(0xBA7C4 + case_seed)
    specs = _random_specs(rng, f"case{case_seed}")
    batched = run_batch(specs)
    assert [r.run_id for r in batched] == [s.run_id for s in specs]
    for spec, got in zip(specs, batched):
        want = execute_spec(spec)
        same = _dumps(got) == _dumps(want)
        assert same, (
            f"case_seed={case_seed} run_id={spec.run_id!r}: batched "
            f"result diverged from the sequential path (spec: "
            f"{spec.to_dict()})"
        )


def test_single_run_grid_batched_equals_sequential():
    """The degenerate 1-run batch takes the pooled path, not a bypass."""
    spec = RunSpec(
        run_id="solo", policy="freon", engine="compiled",
        scenario="emergency", duration=520.0,
    )
    (got,) = run_batch([spec])
    same = _dumps(got) == _dumps(execute_spec(spec))
    assert same, "solo run: batched result diverged from the sequential path"


def test_sweep_strategies_merge_to_identical_artifacts():
    """Whole-artifact identity on a grid with a refused member.

    ``strategy="batch"`` routes statically-evictable specs through the
    fork path and pools the rest; the merged artifact must still be
    byte-identical to the all-fork artifact.
    """
    rng = random.Random(0x5EEDED)
    specs = _random_specs(rng, "strategies")
    specs.append(RunSpec(
        run_id="strategies-python", policy="freon", engine="python",
        scenario="none", duration=90.0,
    ))
    reference = json.dumps(sweep(specs, strategy="fork"), sort_keys=True)
    artifact = json.dumps(sweep(specs, strategy="batch"), sort_keys=True)
    same = artifact == reference
    assert same, "sweep artifact via batch differs from fork"
