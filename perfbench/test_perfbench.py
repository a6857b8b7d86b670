"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q

Each workload is measured once untraced and once traced, one
repetition per phase, with one set-up probe (about two minutes in all).
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import run, tracing, workloads
from perfbench.host import GuardError, HostMeter

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
DECLARED = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7


@pytest.fixture(scope="module")
def measured():
    """``(workload, traced) -> Measurement``, each measured once."""
    cache = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "SETUP_PROBES", 1)

        def get(name, traced):
            if (name, traced) not in cache:
                measure = run.measure_traced if traced else run.measure
                cache[name, traced] = measure(name, SEED, 0.0)
            return cache[name, traced]

        yield get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_are_declared(measured, name):
    plain = measured(name, False)
    traced = measured(name, True)
    assert plain.units == END_TO_END
    assert traced.units == PER_LAYER
    assert set(plain.metrics) == set(END_TO_END)
    assert set(traced.metrics) == set(PER_LAYER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_untraced_outcomes(measured, name):
    traced = measured(name, True)
    assert len(traced.reps) >= 2
    assert all(o == traced.outcomes[0] for o in traced.outcomes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rerunning_a_seed_reproduces_outcomes(measured, name):
    assert measured(name, False).outcomes[0] == measured(name, True).outcomes[0]


@pytest.mark.parametrize("name", DECLARED)
def test_declared_workloads_pass_their_checks(measured, name):
    for traced in (False, True):
        result = measured(name, traced)
        assert result.failures == []
        assert result.correct and result.attempted >= 1


@pytest.mark.xfail(strict=True, reason=(
    "the scale stack never restarts a crashed tempd, so under the chaos "
    "storm machine1 runs unmanaged to ~83 C, past T_red"))
def test_scale1k_ec_chaos_holds_the_red_line(measured):
    assert measured("scale1k-ec-chaos", False).failures == []


def test_every_kernel_kind_has_a_metric():
    from repro.cluster.simulation import ClusterSimulation

    assert ClusterSimulation().kernel.kinds == sorted(tracing.KERNEL_KINDS)


def test_tracer_uninstall_restores_the_program():
    from repro.kernel.core import EventKernel
    from repro.topology import sim

    originals = (EventKernel.run_next, sim.tick_group, sim.ScaleSimulation.step)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert EventKernel.run_next is not originals[0]
    tracer.uninstall()
    assert (EventKernel.run_next, sim.tick_group,
            sim.ScaleSimulation.step) == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: inner() + inner())
    outer()
    calls, total, own = tracer.totals["outer"]
    assert calls == 1
    assert own == pytest.approx(total - tracer.totals["inner"][1])
    parents = {name: parent for _, name, _, _, parent, _ in tracer.spans}
    outer_id = next(i for i, name, *_ in tracer.spans if name == "outer")
    assert parents["inner"] == outer_id and parents["outer"] is None


def test_seeds_are_derived_from_the_seed():
    assert workloads.derive_seeds(1) == workloads.derive_seeds(1)
    assert workloads.derive_seeds(1) != workloads.derive_seeds(2)
    assert len(set(workloads.derive_seeds(1).sweep)) == 4


def test_reference_slice_refuses_a_live_thread():
    meter = HostMeter()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        with pytest.raises(GuardError):
            meter.reference()
    finally:
        stop.set()
        worker.join(timeout=5)
    assert not worker.is_alive()
    meter.reference()


def test_reference_slice_refuses_a_live_child():
    meter = HostMeter()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        with pytest.raises(GuardError):
            meter.reference()
    finally:
        child.kill()
        child.wait(timeout=5)
    meter.reference()


def test_reference_slice_fails_closed_when_children_are_unlisted(monkeypatch):
    from perfbench import host

    meter = HostMeter()
    monkeypatch.setattr(host.glob, "glob", lambda pattern: [])
    with pytest.raises(GuardError):
        meter.reference()


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_one_result_object_last():
    proc = _cli(run.ROOT, "--workload", "serve-scrape", "--seed", "3",
                "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END


def test_cli_fails_without_the_program_sources():
    bare = os.path.join(run.ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _cli(bare, "--workload", "serve-scrape", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
