import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["reproduction_experiment.py"])
def test_precondition_failure_is_one_line_and_exit_2(script):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--steps", "2000000"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{script}: steps must be at most 1000000, got 2000000\n"


def test_beta_prime_search_appended_intact_golden():
    """The first three appended readings that keep the original crossings' strand pairs."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "beta_prime_search.py"),
                           "--appended-only", "--require-intact", "--limit", "3"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, check=True, timeout=60)
    assert proc.stdout.count(b"\n") == 6
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "194c4cc18e92c0ee383552b55afc3b5f5fc2f3afd2f3eb9b08b86cf2f665ae59"
