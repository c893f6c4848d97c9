"""The demos run to completion as scripts.

01 builds a graph by hand and simulates it; 04 runs the ensemble Kalman
baseline; 05 calls every analysis that scores its scenarios in one
batched run.  Each runs in a fresh interpreter that imports the package
from ``src/``.  Demos 02, 03 and 06 train networks for tens of seconds
each, so they are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_simulate_metapopulation.py", "04_eakf_baseline.py",
                                  "05_policy_analyses.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
