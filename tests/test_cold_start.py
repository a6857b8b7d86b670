"""Cold start: the runtime entry points load no scipy.

scipy serves only the section 3.1 calibration and the section 3.2
reference solvers.  Importing the package, its CLI and its runtime
subpackages, and stepping a cluster and a datacenter simulation, must
not load it.  The check runs in a fresh interpreter with scipy blocked,
so a module-level scipy import anywhere on these paths fails it with
ImportError.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = textwrap.dedent("""
    import sys

    sys.modules["scipy"] = None  # every scipy import now raises ImportError

    import repro
    import repro.cli
    import repro.parallel.engine
    import repro.reference
    import repro.serve
    import repro.topology
    from repro.cluster import ClusterSimulation
    from repro.topology import ScaleSimulation, grid_topology

    ClusterSimulation(policy="freon").step(20)
    ScaleSimulation(
        grid_topology(200, zones=2), duration=600.0, policy="freon"
    ).step(20)
    print("ok")
""")


def test_runtime_entry_points_run_with_scipy_blocked():
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) if not path else os.pathsep.join((str(SRC), path)),
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
