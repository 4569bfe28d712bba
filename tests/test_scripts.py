"""Smoke runs of the sweep scripts, which drive the audit, both chain-search
modes and chain verification end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/consistency_sweep.py", "--count", "12", "--max-d", "9"],
    ["scripts/rotation_sweep.py", "--m", "2", "--max-b", "3", "--max-ell", "3"],
])
def test_sweep_script_runs_clean(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
