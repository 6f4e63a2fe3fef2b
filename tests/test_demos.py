"""Smoke test: each demo script runs to completion.

The scripts are copied into a temporary directory first, so the ones that
write files create their ``output/`` directory there and the checkout is
never written.
Demo 06 is left out: its coverage loop takes about a minute and the
acceptance suite runs the same loop.
"""

import os
import shutil
import subprocess
import sys

import pytest

import confbands

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(confbands.__file__)))


@pytest.mark.parametrize("name", [
    "01_linear_band_and_regions.py",
    "02_logistic_probability_band.py",
    "03_coefficient_intervals.py",
    "04_functional_bands.py",
    "05_spatial_gls_band.py",
    "07_external_band_workflow.py",
])
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(os.path.join(DEMOS, name), script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("07"):
        assert "CLI invert exit code: 0" in proc.stdout
