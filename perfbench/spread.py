"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --seeds 101 102 103 104 105 106 107 108 109 110

runs every workload in BENCHMARK.json once per seed for its run_seconds
(the same command the benchmark is run with), then prints for each metric its median, quartiles
and spread: (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them.  A spread at most a third of
the metric's bound is marked steady; the exit code is 1 unless every metric
of every workload is steady.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(config, workload, seed):
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    for workload in [w["name"] for w in config["workloads"]]:
        results = [run_once(config, workload, seed) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, {attempted} items, {failed} failed, "
              f"all correct: {all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = spread <= bound / 3
            steady &= ok
            print(f"  {name:16s} median {median:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound}  {'steady' if ok else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
