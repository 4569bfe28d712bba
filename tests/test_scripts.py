"""Smoke runs of the scripts: the sweeps drive the audit, both chain-search
modes and chain verification end to end, and the layer derivation checks
the rows frozen in the spec files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/consistency_sweep.py", "--count", "12", "--max-d", "9"],
    ["scripts/rotation_sweep.py", "--m", "2", "--max-b", "3", "--max-ell", "3"],
    ["scripts/derive_toy_layers.py"],
])
def test_sweep_script_runs_clean(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if argv[0] == "scripts/consistency_sweep.py":
        # every cipher is d <= 9, so the group cross-check covers all 12,
        # and the partition search answers on each of them
        assert "group cross-check: agree=12," in proc.stdout
        assert ", refused=0\n" in proc.stdout
    if argv[0] == "scripts/rotation_sweep.py":
        # b, ell, verdict, chain count, then the first chain per row
        rows = {tuple(line.split()[:2]): line
                for line in proc.stdout.splitlines()
                if line.split()[:1] and line.split()[0].isdigit()}
        assert sorted(rows) == [("2", "2"), ("2", "3"), ("3", "2"),
                                ("3", "3")]
        assert all(row.split()[2] == "vulnerable" for row in rows.values())
        assert "invariant {1}->{2}->{3}->{1}" in rows["3", "3"]
