import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args, **kwargs):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, timeout=60, **kwargs)


@pytest.mark.parametrize("script", ["reproduction_experiment.py"])
def test_precondition_failure_is_one_line_and_exit_2(script):
    proc = run_script(script, "--steps", "2000000", text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{script}: steps must be at most 1000000, got 2000000\n"


def test_reproduction_experiment_reproduces_every_seed():
    proc = run_script("reproduction_experiment.py", "--seeds", "3", "--steps", "300", text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "3/3 reproduced"


@pytest.mark.parametrize("args, digest", [
    # the first three appended readings that keep the original crossings' strand pairs
    (["--appended-only", "--require-intact", "--limit", "3"],
     "194c4cc18e92c0ee383552b55afc3b5f5fc2f3afd2f3eb9b08b86cf2f665ae59"),
    (["--virtual-letters", "1", "--limit", "3"], "9b9c7a08cf4093d93d2f8ba4001696b97a8fad4d7a9888bf4c30fb7149a71310"),
    (["--appended-only", "--limit", "50"], "cf55c3eabe0bb0b7790bad58df8131ad914b3129b586ccc58921f4817b15c617"),
], ids=["appended-intact", "positional", "appended"])
def test_beta_prime_search_golden(args, digest):
    proc = run_script("beta_prime_search.py", *args, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
