"""Smoke runs of the study scripts, so an API change that breaks one fails
here instead of at its next use."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["success_rate.py", "--trials", "1", "--ns", "16"],
    ["rpdm_stress.py", "--trials", "1", "-n", "24"],
    ["bench_sweep.py", "--ns", "8,16", "--algos", "oracle,threshold"],
    ["code_lines.py"],
])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
