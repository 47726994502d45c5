"""Benchmark runner for freebraid: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Set-up imports the package from ./src and builds the workload's inputs from
the seed; it is repeated (at least 11 times, until 1.5 s is spent) and its
median reported.  Then one client sends items back to back for the given
seconds, for at least 100 items and up to the end of a schedule cycle: the
next item starts only when the previous verdict returned.
Every verdict is checked against its known answer outside the timed region.
Reported times are rescaled to a nominal machine speed, read from fixed
reference work timed before each item, so that a shared machine's changing
speed does not show as a change in the program.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics; `--trace
1` wraps the package's public functions (see spans.py) and reports the
per-layer metrics, writing the spans to .perfbench/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
import types
from collections import Counter
from time import perf_counter

import spans
from workloads import WORKLOADS

MODULES = ("words", "moves", "parity", "normalform", "bracket", "oracle", "render", "scenarios", "cli")
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 11, 1.5, 31
# At least MIN_ITEMS items, so that 10 or more samples lie beyond the 90th percentile.
MIN_ITEMS = 100
# Timings are rescaled to the speed at which the reference work takes
# REFERENCE_NOMINAL_S: the machine the baseline was taken on, when its
# neighbours leave it alone.  SPEED_WINDOW readings on each side of an item
# give its speed.
REFERENCE_ROUNDS, REFERENCE_NOMINAL_S, SPEED_WINDOW = 40, 0.0015, 5
OUT_DIR = ".perfbench"


def load_package(root):
    """Import freebraid afresh from root/src; returns a namespace of its modules."""
    src = os.path.realpath(os.path.join(root, "src"))
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "freebraid" or m.startswith("freebraid.")]:
        del sys.modules[name]
    package = importlib.import_module("freebraid")
    modules = {m: importlib.import_module(f"freebraid.{m}") for m in MODULES}
    if os.path.dirname(os.path.dirname(os.path.realpath(package.__file__))) != src:
        raise ImportError(f"freebraid was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(root=root, package=package, **modules)


def inputs_digest(items):
    return hashlib.sha256(repr([(i.inputs, i.expected) for i in items]).encode()).hexdigest()


class _Entry:
    __slots__ = ("index", "key")

    def __init__(self, index, key):
        self.index, self.key = index, key


def reference_s():
    """Wall time of fixed pure-Python work, allocation included: the machine's speed now.

    Garbage collection is off while it runs, so that its time does not grow
    with the number of objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        total = 0
        for r in range(REFERENCE_ROUNDS):
            entries = [_Entry(i, (i, r)) for i in range(100)]
            total += sum(e.index for e in {e.key: e for e in entries}.values())
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def at_nominal_speed(seconds, reference):
    return seconds * REFERENCE_NOMINAL_S / reference


def measure(workload, fb, items, seconds, tracer=None):
    """Closed loop, one client.

    Returns each item's latency (None for a failed item), the reference
    readings taken before each item and after the last, and a count of the
    workload's verdict labels.
    """
    latencies, references = [], []
    labels = Counter()
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_ITEMS or perf_counter() < deadline or k % workload.CYCLE:
        item = items[k % len(items)]
        if tracer is not None:
            tracer.item = k
        references.append(reference_s())
        t0 = perf_counter()
        try:
            verdict, error = workload.run(fb, item), None
        except Exception:  # an error is a failed item; the loop goes on
            verdict, error = None, traceback.format_exc()
        dt = perf_counter() - t0
        if error is None and workload.check(item, verdict):
            latencies.append(dt)
            if hasattr(workload, "label"):
                labels[workload.label(item, verdict)] += 1
        else:
            latencies.append(None)
            if latencies.count(None) <= 3:
                print(f"item {k} failed: expected {item.expected!r}, got {error or repr(verdict)}",
                      file=sys.stderr)
        if tracer is not None and hasattr(workload, "replay"):
            workload.replay(fb, item)
        k += 1
    references.append(reference_s())
    return latencies, references, labels


def rescale(latencies, references):
    """Correct items' latencies at nominal speed, each against the readings around it."""
    out = []
    for k, latency in enumerate(latencies):
        if latency is not None:
            nearby = references[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1]
            out.append(at_nominal_speed(latency, statistics.median(nearby)))
    return out


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs of reproduce, decide and oracle, "
                             "for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freebraid", "__init__.py")):
        print(f"run.py: no freebraid package under {os.path.join(root, 'src')}; "
              "run from the root of a freebraid checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Each set-up is rescaled by the reference readings just before and just after it.
    readings = [[reference_s() for _ in range(SPEED_WINDOW + 1)]]
    raw_setup_s = []
    while len(raw_setup_s) < MIN_SETUPS or (sum(raw_setup_s) < SETUP_BUDGET_S
                                            and len(raw_setup_s) < MAX_SETUPS):
        t0 = perf_counter()
        fb = load_package(root)
        items = workload.make_items(fb, random.Random(args.seed), args.size)
        raw_setup_s.append(perf_counter() - t0)
        readings.append([reference_s() for _ in range(SPEED_WINDOW + 1)])
    setup_s = [at_nominal_speed(raw, statistics.median(readings[i] + readings[i + 1]))
               for i, raw in enumerate(raw_setup_s)]

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install({"package": fb.package, **{m: getattr(fb, m) for m in MODULES}})
    raw, references, labels = measure(workload, fb, items, args.seconds, tracer)
    attempted = len(raw)
    failed = raw.count(None)
    latencies = rescale(raw, references)

    p50 = statistics.median(latencies) * 1e3 if latencies else 0.0
    p90 = statistics.quantiles(latencies, n=10)[8] * 1e3 if len(latencies) > 1 else p50
    if tracer is None:
        metrics = {
            "verdict_p50_ms": (p50, "ms"),
            "verdict_p90_ms": (p90, "ms"),
            "verdicts_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        buckets = [item.bucket for item in items]
        layer = spans.layer_metrics(tracer.spans, attempted,
                                    lambda k: buckets[k % len(buckets)] if k >= 0 else "")
        layer.update(spans.cli_start_metrics(root))
        layer["trace.verdict_p50_ms"] = p50
        metrics = {name: (value, spans.unit_of(name)) for name, value in layer.items()}
        tracer.write(os.path.join(root, OUT_DIR, f"trace-{args.workload}.json"),
                     {"workload": args.workload, "seed": args.seed, "items": attempted})

    correct_raw = [x for x in raw if x is not None]
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"inputs_sha256={inputs_digest(items)} setups={len(setup_s)} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f} "
          f"p50_p90_samples={len(latencies)} reference_ms={statistics.median(references) * 1e3:.3f} "
          f"raw_p50_ms={statistics.median(correct_raw) * 1e3 if correct_raw else 0.0:.3f} "
          f"raw_setup_s={statistics.median(raw_setup_s):.4f}"
          + "".join(f" {label}={count}" for label, count in sorted(labels.items())))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
