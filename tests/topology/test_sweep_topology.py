"""Sweep-engine integration: topology specs, batching, crash resume."""

import json

import pytest

from repro.errors import SweepError
from repro.parallel import RunSpec, engine, execute_spec, expand_grid, sweep
from repro.parallel.batch import BatchMember, BatchRunner, partition_specs
from repro.topology import grid_topology

TOPOLOGY_JSON = grid_topology(6, zones=2, machines_per_rack=3).to_json()

#: Mid-run topology edits: a hotter zone supply, a stronger and a cut
#: recirculation edge, then a cooler second zone.
EDIT_SCRIPT = """\
sleep 40
fiddle cluster zone zone0 30
sleep 30
fiddle cluster recirculation machine1 machine2 0.3
sleep 30
fiddle cluster recirculation machine4 machine5 0
fiddle cluster zone zone1 18
"""
EDITS = [
    "cluster zone zone0 30.0",
    "cluster recirculation machine1|machine2 0.3",
    "cluster recirculation machine4|machine5 0.0",
    "cluster zone zone1 18.0",
]


def specs_for(grid_extra=None, **base_extra):
    grid = {
        "base": dict(
            {
                "scenario": "emergency",
                "duration": 150.0,
                "engine": "compiled",
                "topology": TOPOLOGY_JSON,
            },
            **base_extra,
        ),
        "axes": {"policy": ["none", "freon"]},
    }
    if grid_extra:
        grid.update(grid_extra)
    return expand_grid(grid)


class TestSpec:
    def test_machine_names_come_from_topology(self):
        spec = RunSpec(run_id="r", topology=TOPOLOGY_JSON)
        assert spec.machine_names() == [f"machine{i}" for i in range(1, 7)]
        assert spec.load_topology().zones.keys() == {"zone0", "zone1"}

    def test_topology_and_cluster_size_exclusive(self):
        with pytest.raises(SweepError, match="mutually exclusive"):
            RunSpec(run_id="r", topology=TOPOLOGY_JSON, cluster_size=8)

    def test_invalid_topology_fails_at_expansion(self):
        with pytest.raises(SweepError, match="invalid topology"):
            RunSpec(run_id="r", topology="{broken")

    def test_wire_format_omits_unset_topology(self):
        # Topology-free artifacts keep their historical bytes.
        assert "topology" not in RunSpec(run_id="r").to_dict()
        data = RunSpec(run_id="r", topology=TOPOLOGY_JSON).to_dict()
        assert data["topology"] == TOPOLOGY_JSON
        assert RunSpec.from_dict(data).topology == TOPOLOGY_JSON


class TestBatchEviction:
    def test_topology_specs_are_eligible(self):
        specs = specs_for()
        eligible, evicted = partition_specs(specs)
        assert eligible == specs
        assert evicted == []

    def test_strategies_agree_byte_for_byte(self):
        specs = specs_for()
        batch = sweep(specs, workers=1, strategy="batch")
        fork = sweep(specs, workers=1, strategy="fork")
        same = json.dumps(batch, sort_keys=True) == json.dumps(
            fork, sort_keys=True
        )
        assert same, "batched and fork sweep artifacts differ"


class TestBatchedEdits:
    def test_zone_and_recirculation_edits_stay_byte_identical(
        self, monkeypatch
    ):
        # Every spec of the pair runs the edit script instead of the
        # emergency one, batched and on the fork path alike.
        monkeypatch.setattr(engine, "emergency_script", lambda: EDIT_SCRIPT)
        specs = specs_for()
        members = [BatchMember(spec, engine.build_simulation(spec))
                   for spec in specs]
        runner = BatchRunner(members)
        assert all(member.pooled for member in members)
        runner.run()
        assert runner.pool.evictions == []
        for member in members:
            assert member.simulation.result().fiddle_log == EDITS
            batched = engine.collect_result(member.spec, member.simulation)
            fork = execute_spec(member.spec)
            same = json.dumps(batched.to_dict(), sort_keys=True) == (
                json.dumps(fork.to_dict(), sort_keys=True)
            )
            assert same, f"{member.spec.run_id} diverged from its fork run"


class TestCrashResume:
    def test_resume_under_batch_strategy(self):
        # A crashing topology run inside strategy="batch": the crash
        # hook evicts the spec to the fan-out path, where it crashes,
        # resumes from its checkpoint, and still reproduces the clean
        # run exactly.
        params = dict(
            scenario="emergency", duration=300.0, engine="compiled",
            topology=TOPOLOGY_JSON, checkpoint_every=60.0,
        )
        crashy = RunSpec(run_id="r", crash_at=200.0, **params)
        artifact = sweep([crashy], workers=1, strategy="batch")
        run = artifact["runs"][0]
        assert run["resumed"] is True

        golden = execute_spec(RunSpec(run_id="r", **params)).to_dict()
        assert run["records"] == golden["records"]
        assert run["summary"] == golden["summary"]
