import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["brunnian_report.py", "reproduction_experiment.py"])
def test_precondition_failure_is_one_line_and_exit_2(script):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--steps", "2000000"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{script}: steps must be at most 1000000, got 2000000\n"
