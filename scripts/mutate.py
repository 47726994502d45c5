#!/usr/bin/env python3
"""Run the mutants of tests/mutants.py and report which the tests kill.

For each mutant the tree is copied to a temporary directory, the mutant's
text is replaced there, and its tests run with `-x -q -p no:cacheprovider`
on the copy's `src`.  A mutant is killed when a test fails, survived when
they all pass, and stale when its text does not occur exactly once or its
tests cannot be run (pytest exits with neither 0 nor 1).  Exits 1 if any
mutant survived or is stale.  Run from anywhere:

    python scripts/mutate.py                      # every mutant
    python scripts/mutate.py rescan-window-one-offset-short   # the named ones
"""

import argparse
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info")


def run_mutant(mutant: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = tree / mutant["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return f"stale (the old text occurs {text.count(mutant['old'])} times)"
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]],
                              cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"stale (pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ids", nargs="*", help="run only the mutants with these ids")
    args = parser.parse_args()
    mutants = runpy.run_path(str(ROOT / "tests" / "mutants.py"))["MUTANTS"]
    unknown = set(args.ids) - {m["id"] for m in mutants}
    if unknown:
        parser.error(f"no mutant with id {', '.join(sorted(unknown))}")
    failed = 0
    for mutant in mutants:
        if args.ids and mutant["id"] not in args.ids:
            continue
        t0 = time.perf_counter()
        outcome = run_mutant(mutant)
        failed += outcome != "killed"
        print(f"{mutant['id']}: {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{failed} mutant(s) survived or stale")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
