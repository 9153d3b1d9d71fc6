"""Smoke runs of the scripts in ``scripts/``: each must still run
against the package's current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("overfit_demo.py", ["--epochs", "2", "--n-samples", "4", "--d", "8"]),
    ("equivariance_report.py", ["--trials", "1"]),
    ("digests.py", ["--scale", "tiny"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
