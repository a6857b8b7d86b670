"""Tests for RunSpec validation, grid expansion, and seed derivation."""

import json

import pytest

from repro.config import table1
from repro.errors import SweepError
from repro.faults import derive_seed
from repro.parallel import (
    RunResult,
    RunSpec,
    expand_grid,
    fig11_grid,
    threshold_grid,
)
from repro.cluster.simulation import POLICIES


class TestRunSpec:
    def test_defaults_are_the_fig11_run(self):
        spec = RunSpec(run_id="r")
        assert spec.policy == "freon"
        assert spec.scenario == "emergency"
        assert spec.duration == 2000.0
        assert spec.machine_names() == list(table1.CLUSTER_MACHINES)

    def test_round_trip_through_json(self):
        spec = RunSpec(
            run_id="policy=freon,seed=3", policy="freon", scenario="chaos",
            duration=500.0, seed=3, loss=0.1, cluster_size=6,
            cpu_high=66.0, checkpoint_every=120.0,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(data) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SweepError, match="unknown RunSpec field"):
            RunSpec.from_dict({"run_id": "r", "policyy": "freon"})

    def test_validation(self):
        with pytest.raises(SweepError, match="run_id"):
            RunSpec(run_id="")
        with pytest.raises(SweepError, match="policy"):
            RunSpec(run_id="r", policy="nope")
        with pytest.raises(SweepError, match="engine"):
            RunSpec(run_id="r", engine="rust")
        with pytest.raises(SweepError, match="scenario"):
            RunSpec(run_id="r", scenario="mayhem")
        with pytest.raises(SweepError, match="duration"):
            RunSpec(run_id="r", duration=0.0)
        with pytest.raises(SweepError, match="cluster_size"):
            RunSpec(run_id="r", cluster_size=-1)

    def test_cpu_low_defaults_to_table1_spread(self):
        spec = RunSpec(run_id="r", cpu_high=66.0)
        assert spec.cpu_low == 63.0

    def test_cpu_threshold_validation(self):
        with pytest.raises(SweepError, match="cpu_low requires"):
            RunSpec(run_id="r", cpu_low=60.0)
        with pytest.raises(SweepError, match="low < high"):
            RunSpec(run_id="r", cpu_high=64.0, cpu_low=64.0)

    def test_cluster_size_names(self):
        spec = RunSpec(run_id="r", cluster_size=6)
        assert spec.machine_names() == [f"machine{i}" for i in range(1, 7)]


class TestRunResult:
    def test_round_trip(self):
        result = RunResult(
            run_id="r", spec={"run_id": "r"}, summary={"drop_fraction": 0.0},
            records={}, registry=[], resumed=True,
        )
        assert RunResult.from_dict(result.to_dict()) == result

    def test_rejects_unknown_fields(self):
        with pytest.raises(SweepError, match="unknown RunResult field"):
            RunResult.from_dict({"run_id": "r", "oops": 1})

    def test_rejects_missing_fields(self):
        with pytest.raises(
            SweepError,
            match=r"missing RunResult field\(s\): "
                  r"\['spec', 'summary', 'records', 'registry'\]",
        ):
            RunResult.from_dict({"run_id": "r"})
        with pytest.raises(SweepError, match=r"missing RunSpec .*'run_id'"):
            RunSpec.from_dict({"policy": "freon"})


class TestExpandGrid:
    def test_axes_expand_in_sorted_name_order(self):
        specs = expand_grid({
            "base": {"duration": 100.0},
            "axes": {"seed": [0, 1], "policy": ["none", "freon"]},
        })
        # 'policy' sorts before 'seed': policy is the outer loop.
        assert [s.run_id for s in specs] == [
            "policy=none,seed=0",
            "policy=none,seed=1",
            "policy=freon,seed=0",
            "policy=freon,seed=1",
        ]
        assert all(s.duration == 100.0 for s in specs)

    def test_no_axes_yields_single_run(self):
        specs = expand_grid({"base": {"policy": "traditional"}})
        assert [s.run_id for s in specs] == ["single"]
        assert specs[0].policy == "traditional"

    def test_axis_overrides_base(self):
        specs = expand_grid({
            "base": {"policy": "none"},
            "axes": {"policy": ["freon"]},
        })
        assert specs[0].policy == "freon"

    def test_float_axis_values_format_compactly(self):
        specs = expand_grid({"axes": {"cpu_high": [65.0, 67.5]}})
        assert [s.run_id for s in specs] == ["cpu_high=65", "cpu_high=67.5"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(SweepError, match="unknown grid key"):
            expand_grid({"bases": {}})
        with pytest.raises(SweepError, match="unknown RunSpec field.*base"):
            expand_grid({"base": {"policyy": "freon"}})
        with pytest.raises(SweepError, match="unknown RunSpec field.*axes"):
            expand_grid({"axes": {"policyy": ["freon"]}})

    def test_run_id_cannot_be_set(self):
        with pytest.raises(SweepError, match="run_id is derived"):
            expand_grid({"base": {"run_id": "r"}})

    def test_empty_or_scalar_axis_rejected(self):
        with pytest.raises(SweepError, match="non-empty list"):
            expand_grid({"axes": {"seed": []}})
        with pytest.raises(SweepError, match="non-empty list"):
            expand_grid({"axes": {"seed": 3}})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(SweepError, match="duplicate run_id"):
            expand_grid({"axes": {"seed": [1, 1]}})

    def test_expansion_is_insertion_order_independent(self):
        a = expand_grid({"axes": {"seed": [0, 1], "policy": ["freon"]}})
        b = expand_grid({"axes": {"policy": ["freon"], "seed": [0, 1]}})
        assert a == b


class TestPresets:
    def test_fig11_covers_every_policy(self):
        specs = expand_grid(fig11_grid())
        assert sorted(s.policy for s in specs) == sorted(POLICIES)
        assert all(s.scenario == "emergency" for s in specs)
        assert all(s.duration == 2000.0 for s in specs)

    def test_fig11_seed_axis_scales_the_grid(self):
        specs = expand_grid(fig11_grid(seeds=3, policies=("freon", "none")))
        assert len(specs) == 6
        assert {s.seed for s in specs} == {0, 1, 2}

    def test_threshold_grid_keeps_the_spread(self):
        specs = expand_grid(threshold_grid(highs=(65.0, 69.0)))
        assert [(s.cpu_high, s.cpu_low) for s in specs] == [
            (65.0, 62.0), (69.0, 66.0),
        ]
        assert all(s.policy == "freon" for s in specs)


class TestDeriveSeed:
    def test_deterministic_across_processes(self):
        # Hash-based, so these exact values hold on every platform and
        # Python version; a change here breaks sweep reproducibility.
        assert derive_seed(0, "x") == 2034735851077056357
        assert derive_seed(7, "policy=freon", 3) == 3920513591882389778

    def test_components_matter(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert derive_seed(0, "a", 0) != derive_seed(0, "a", 1)

    def test_63_bit_range(self):
        for base in range(20):
            seed = derive_seed(base, "run")
            assert 0 <= seed < 2 ** 63


class TestScenarioGrid:
    def test_covers_every_scenario_crossed_with_cloning(self):
        from repro.cluster.scenarios import scenario_names
        from repro.parallel import expand_grid, scenario_grid

        specs = expand_grid(scenario_grid(duration=300.0))
        names = {s.scenario for s in specs}
        assert names == set(scenario_names())
        assert len(specs) == len(names) * 2  # cloning off/on
        assert {s.cloning for s in specs} == {0, 2}

    def test_chaos_variants_optional(self):
        from repro.parallel import expand_grid, scenario_grid

        specs = expand_grid(scenario_grid(include_chaos=False))
        assert all(not s.scenario.endswith("-chaos") for s in specs)

    def test_cloning_field_omitted_from_wire_form_when_zero(self):
        from repro.parallel import RunSpec

        classic = RunSpec(run_id="r", cloning=0)
        assert "cloning" not in classic.to_dict()
        cloned = RunSpec(run_id="r", cloning=2)
        assert cloned.to_dict()["cloning"] == 2
        assert RunSpec.from_dict(cloned.to_dict()).cloning == 2

    def test_negative_cloning_rejected(self):
        from repro.errors import SweepError
        from repro.parallel import RunSpec

        with pytest.raises(SweepError, match="cloning"):
            RunSpec(run_id="r", cloning=-1)

    def test_workload_scenario_accepted_as_spec_scenario(self):
        from repro.parallel import RunSpec

        spec = RunSpec(run_id="r", scenario="flash-crowd-chaos")
        assert spec.scenario == "flash-crowd-chaos"
