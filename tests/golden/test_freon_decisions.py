"""Golden decision logs: Freon and Freon-EC decide what they always did.

``tests/golden/freon_decisions.json`` holds the adjustments, releases,
redlines, Freon-EC events, watchdog restarts, datagram statistics and
fault logs of nine 2000 s cluster runs (see ``decisions.py``).  Every
run must reproduce its log: decisions exactly, floats within 1e-9.
"""

import pytest

from . import decisions


@pytest.fixture(scope="module")
def stored():
    path = decisions.GOLDEN_DIR / decisions.GOLDEN_DECISIONS_FILE
    if not path.exists():
        pytest.fail(
            f"missing golden decision log {path}; regenerate with "
            f"'PYTHONPATH=src python -m tests.golden.regen'"
        )
    return decisions.load()


def test_every_run_is_stored(stored):
    assert sorted(stored) == sorted(decisions.RUNS)


@pytest.mark.parametrize("name", sorted(decisions.RUNS))
def test_run_reproduces_its_decisions(name, stored):
    result = decisions.build(name).run(decisions.DURATION)
    decisions.compare(decisions.decisions(result), stored[name], name)


def test_golden_runs_exercise_every_branch(stored):
    # A golden that never trips a branch pins nothing about it.
    assert stored["fig11_freon"]["adjustments"]
    assert stored["fig11_freon"]["releases"]
    assert stored["fig12_freon_ec"]["ec_events"]
    assert stored["chaos_freon_seed15"]["datagram_stats"]["dropped"] == 2
    net = stored["net_faults_freon_ec"]["datagram_stats"]
    assert net["duplicated"] > 0 and net["delayed"] > 0
    for name in ("dropout_restart_freon", "dropout_while_hot_freon"):
        assert stored[name]["restarts"]
