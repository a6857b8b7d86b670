"""Batch-eviction edges: every way a run can fall out of the pool.

The pool's contract is that eviction is invisible in the results: a
refused or evicted member finishes on a private engine and its result
is byte-identical to the sequential path.  These tests exercise each
eviction route individually — static partition, adoption refusal
(opaque power model, engine, dt), the mid-run structural-edit listener
path — plus the error edges (pending-tick eviction, retiring strangers,
crash hooks in the lockstep runner) and mixed layout-signature grids.
"""

import json
from dataclasses import replace

import pytest

from repro.core.compiled import CompiledEngine
from repro.core.power import PowerModel, TablePowerModel
from repro.errors import SweepError
from repro.parallel import RunSpec, execute_spec
from repro.parallel.batch import (
    EVICT_CRASH_HOOK,
    EVICT_ENGINE,
    EVICT_STRUCTURAL,
    BatchMember,
    BatchPool,
    BatchRunner,
    partition_specs,
    run_batch,
)
from repro.parallel.engine import build_simulation, collect_result


def _spec(run_id: str, **overrides) -> RunSpec:
    params = {
        "run_id": run_id, "policy": "freon", "engine": "compiled",
        "scenario": "none", "duration": 120.0,
    }
    params.update(overrides)
    return RunSpec(**params)


def _dumps(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class _DelegatingPower(PowerModel):
    """A custom model the plan compiler cannot see through ("opaque")."""

    def __init__(self, inner: PowerModel) -> None:
        self._inner = inner

    def power(self, utilization: float) -> float:
        return self._inner.power(utilization)

    @property
    def idle_power(self) -> float:
        return self._inner.idle_power

    @property
    def max_power(self) -> float:
        return self._inner.max_power


def _swap_cpu_model(simulation, machine: str, model_factory) -> None:
    """Replace one machine's CPU power model in its layout description.

    Layouts are per-simulation objects (``validation_cluster`` builds
    fresh ones), so this only changes what a *fresh* plan compilation
    of this simulation sees.
    """
    state = simulation.solver.machines[machine]
    component = state.layout.components["CPU"]
    state.layout.components["CPU"] = replace(
        component, power_model=model_factory(component.power_model)
    )


class TestStaticPartition:
    def test_python_engine_and_crash_hooks_are_routed_to_fork(self):
        compiled = _spec("a")
        scalar = _spec("b", engine="python")
        crashy = _spec("c", crash_at=50.0, checkpoint_every=20.0)
        eligible, evicted = partition_specs([compiled, scalar, crashy])
        assert eligible == [compiled]
        assert evicted == [(scalar, EVICT_ENGINE), (crashy, EVICT_CRASH_HOOK)]


class TestAdoptRefusal:
    def test_opaque_power_model_is_refused_and_runs_inline(self):
        spec = _spec("opaque")
        simulation = build_simulation(spec)
        _swap_cpu_model(simulation, "machine1", _DelegatingPower)
        pool = BatchPool(simulation.dt)
        assert pool.adopt(simulation) is False
        assert len(pool) == 0
        # The refusal leaves the simulation on its construction-time
        # engine, so running it inline matches the sequential path
        # (which never saw the opaque swap either — the swap only
        # affects fresh plan compilations, not the engine built before
        # it).
        runner = BatchRunner([BatchMember(spec, simulation)])
        assert runner.members[0].pooled is False
        runner.run()
        got = collect_result(spec, simulation)
        same = _dumps(got) == _dumps(execute_spec(spec))
        assert same, "refused opaque member diverged from the sequential path"

    def test_python_engine_is_refused(self):
        simulation = build_simulation(_spec("py", engine="python"))
        pool = BatchPool(simulation.dt)
        assert pool.adopt(simulation) is False

    def test_dt_mismatch_is_refused(self):
        simulation = build_simulation(_spec("dt"))
        pool = BatchPool(simulation.dt * 2.0)
        assert pool.adopt(simulation) is False
        assert len(pool) == 0


class TestStructuralEviction:
    def test_mid_run_structural_edit_evicts_and_stays_bit_exact(self):
        """A mutation the shared plan cannot express evicts its member.

        The injected heat edge joins two nodes the layout does not
        have, with k=0 — physically inert, but structurally outside
        the compiled plan, exactly like a fiddle edit that grows the
        graph.  The evicted member must finish on its private engine
        with results byte-identical to the sequential path, and its
        neighbor must stay pooled and unperturbed.
        """
        specs = [_spec("victim", duration=200.0),
                 _spec("bystander", duration=200.0)]
        members = [BatchMember(s, build_simulation(s)) for s in specs]
        runner = BatchRunner(members)
        assert all(m.pooled for m in members)

        runner.run_ticks(50)
        victim = members[0].simulation
        state = victim.solver.machines["machine1"]
        state.k[("alpha", "beta")] = 0.0
        state.set_k("alpha", "beta", 0.0)

        assert [(s, r) for s, r in runner.pool.evictions] == [
            (victim, EVICT_STRUCTURAL)
        ]
        assert len(runner.pool) == 1  # the bystander keeps its rows

        runner.run()
        assert members[0].pooled is False
        assert members[1].pooled is False  # retired at finish, not evicted
        assert runner.pool.evictions == [(victim, EVICT_STRUCTURAL)]
        for member in members:
            got = collect_result(member.spec, member.simulation)
            same = _dumps(got) == _dumps(execute_spec(member.spec))
            assert same, f"{member.spec.run_id} diverged after the eviction"

    def test_single_member_eviction_drains_the_pool(self):
        spec = _spec("solo", duration=80.0)
        member = BatchMember(spec, build_simulation(spec))
        runner = BatchRunner([member])
        runner.run_ticks(10)
        state = member.simulation.solver.machines["machine2"]
        state.k[("x", "y")] = 0.0
        state.set_k("x", "y", 0.0)
        assert len(runner.pool) == 0
        runner.run()
        got = collect_result(spec, member.simulation)
        same = _dumps(got) == _dumps(execute_spec(spec))
        assert same, "solo member diverged after draining the pool"


class TestMixedSignatureGrids:
    def test_two_signatures_pool_into_two_groups_and_match_solo(self):
        """Machines with different layout signatures batch side by side.

        One member's machine1 gets a table power model (same breakpoint
        values as the affine one, but a different plan signature), so
        the pool must keep two groups: one for the table machine, one
        shared by every affine machine across all members.  The
        reference is a twin simulation with the same swap on a private
        engine compiled *after* the swap.
        """
        specs = [_spec("affine-1", duration=150.0),
                 _spec("affine-2", duration=150.0),
                 _spec("mixed", duration=150.0)]
        sims = [build_simulation(s) for s in specs]

        def to_table(model):
            return TablePowerModel(
                [(0.0, model.p_base), (1.0, model.p_max)]
            )

        _swap_cpu_model(sims[2], "machine1", to_table)
        twin = build_simulation(specs[2])
        _swap_cpu_model(twin, "machine1", to_table)
        twin.solver._impl = CompiledEngine(twin.solver)

        members = [BatchMember(s, sim) for s, sim in zip(specs, sims)]
        runner = BatchRunner(members)
        assert all(m.pooled for m in members)
        assert len(runner.pool._groups) == 2
        runner.run()

        for spec, sim in zip(specs[:2], sims[:2]):
            same = _dumps(collect_result(spec, sim)) == _dumps(
                execute_spec(spec)
            )
            assert same, f"{spec.run_id} diverged from its solo run"
        ticks = int(round(specs[2].duration / twin.dt))
        for _ in range(ticks):
            twin.step()
        got = collect_result(specs[2], sims[2]).to_dict()
        want = collect_result(specs[2], twin).to_dict()
        same = json.dumps(got["records"], sort_keys=True) == json.dumps(
            want["records"], sort_keys=True
        )
        assert same, "mixed: records diverged from the private-engine twin"
        assert got["summary"] == want["summary"]


class TestErrorEdges:
    def test_evicting_a_stranger_is_an_error(self):
        pool = BatchPool(1.0)
        simulation = build_simulation(_spec("stranger"))
        with pytest.raises(SweepError, match="not pooled"):
            pool.evict(simulation)

    def test_retiring_a_stranger_is_an_error(self):
        pool = BatchPool(1.0)
        pooled = build_simulation(_spec("resident"))
        assert pool.adopt(pooled)
        stranger = build_simulation(_spec("stranger"))
        with pytest.raises(SweepError, match="not pooled"):
            pool.retire_many([pooled, stranger])
        assert len(pool) == 1  # the failed retirement removed nothing

    def test_eviction_with_a_pending_tick_is_an_error(self):
        simulation = build_simulation(_spec("pending"))
        pool = BatchPool(simulation.dt)
        assert pool.adopt(simulation)
        simulation._run_until_tick()  # solver tick deferred to the flush
        with pytest.raises(SweepError, match="pending"):
            pool.evict(simulation)
        pool.flush()
        simulation._drain_tick_tail()
        pool.evict(simulation)  # fine at the tick boundary
        assert pool.evictions[0][0] is simulation

    def test_runner_rejects_crash_hooks(self):
        spec = _spec("crashy", crash_at=60.0, checkpoint_every=30.0)
        member = BatchMember(spec, build_simulation(spec))
        with pytest.raises(SweepError, match="crash_at"):
            BatchRunner([member])

    def test_run_batch_on_one_spec_equals_execute_spec(self):
        spec = _spec("one", duration=90.0)
        (got,) = run_batch([spec])
        same = _dumps(got) == _dumps(execute_spec(spec))
        assert same, "one: run_batch diverged from execute_spec"
