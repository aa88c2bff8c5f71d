"""Smoke test: the demos run to completion against the package sources.

Demo 03 is left out: it solves the LSM desk instance to 1e-9 with every
solver and takes about 10 s, against well under a second for each of the
others.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_manifold_geometry.py", "02_dissolving_penalty.py", "04_extrinsic_mean.py",
         "05_tensor_jfd.py", "06_timing_profile.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
