"""Spans for the traced run, recorded from outside the package.

Each function in TRACED is replaced, in every package module that binds
it, by a wrapper that records a span: name, parent span, item, start and
end.  These are the functions through which one layer calls another or the
benchmark calls a layer.  Private helpers stay unwrapped, so work the BFS
does through private `moves` helpers counts as `oracle` self time; telling
those apart needs spans inside the program.  `scenarios` and `render` are
not layers: their own time counts towards the caller, `cli` or `bracket`.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter, perf_counter_ns

from workloads import Decide

LAYERS = ("words", "moves", "parity", "bracket", "normalform", "oracle", "cli")

TRACED = {
    "words": ("parse_word", "serialize", "permutation", "strand_trace", "closure_components",
              "is_cyclic", "virtual"),
    "moves": ("scramble", "apply_move", "relations_in", "format_history"),
    "parity": ("gaussian_parity", "q_gaussian_parity", "component_parity", "chord_diagram",
               "parse_scheme"),
    "normalform": ("find_bigons", "irreducible_form", "irreducible_form_tracked", "canonical_code",
                   "strongly_equal", "f_equal"),
    "bracket": ("bracket", "brackets_equal", "verify_reproduction"),
    "oracle": ("oracle_equal", "bfs_ball"),
    "cli": ("main",),
}

BUCKETS = Decide.BUCKETS


def _steps(args, kwargs, result):
    requested = kwargs["steps"] if "steps" in kwargs else args[1]
    return len(result[1]), requested


# Counts read at the same boundary as the span, from arguments and result.
COUNTERS = {
    "moves.scramble": _steps,
    "oracle.bfs_ball": lambda args, kwargs, ball: (len(ball), ball.cap_exceeded),
    "normalform.irreducible_form_tracked":
        lambda args, kwargs, result: (len(args[0]) - len(result[0])) // 2,
    "bracket.bracket": lambda args, kwargs, result: (len(result.kept_positions), len(args[0])),
}

FIELDS = ("name", "parent", "item", "start_ns", "end_ns", "count")


class Tracer:
    """In-memory span recorder; `item` tags spans with the request they belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.item, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap every TRACED function in every module of `modules` that binds it."""
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def write(self, path, header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def unit_of(name):
    metric = name.split(".")[1]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us") or metric == "us_per_node":
        return "us"
    if metric.endswith("_frac"):
        return "frac"
    return "1/item"


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, items, bucket_of):
    """Per-layer metrics from the spans of `items` timed items.

    Times per call are means over calls, so that they add up; work counts
    and layer self times are per item, so that runs of different lengths
    compare.
    """
    child_ns = defaultdict(int)
    for name, parent, item, start, end, count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    dur = defaultdict(list)       # name -> durations in ns
    self_ns = defaultdict(list)   # name -> self times in ns
    by_bucket = defaultdict(list)  # (name, bucket) -> durations in ns
    counts = defaultdict(list)
    layer_self = defaultdict(int)
    for k, (name, parent, item, start, end, count) in enumerate(spans):
        d = end - start
        s = d - child_ns[k]
        dur[name].append(d)
        self_ns[name].append(s)
        layer_self[name.split(".", 1)[0]] += s
        if bucket_of(item):
            by_bucket[name, bucket_of(item)].append(d)
        if count is not None:
            counts[name].append(count)
    per_item = 1.0 / max(items, 1)
    ms, us = 1e-6, 1e-3

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer] * ms * per_item

    out["words.parse_us"] = _mean(dur["words.parse_word"]) * us
    out["words.parse_calls"] = len(dur["words.parse_word"]) * per_item

    scrambles = counts["moves.scramble"]
    steps = sum(taken for taken, _ in scrambles)
    out["moves.scramble_ms"] = _mean(dur["moves.scramble"]) * ms
    out["moves.step_us"] = sum(dur["moves.scramble"]) * us / steps if steps else 0.0
    out["moves.steps"] = steps * per_item
    out["moves.early_stops"] = sum(1 for taken, asked in scrambles if taken < asked) * per_item

    for scheme, fname in (("gaussian", "gaussian_parity"), ("qgaussian", "q_gaussian_parity"),
                          ("component", "component_parity")):
        name = f"parity.{fname}"
        out[f"parity.{scheme}_ms"] = _mean(dur[name]) * ms
        for b in BUCKETS:
            out[f"parity.{scheme}_ms.{b}"] = _mean(by_bucket[name, b]) * ms

    kept = counts["bracket.bracket"]
    letters = sum(total for _, total in kept)
    out["bracket.kept_frac"] = sum(k for k, _ in kept) / letters if letters else 0.0
    out["bracket.verify_self_ms"] = _mean(self_ns["bracket.verify_reproduction"]) * ms

    name = "normalform.irreducible_form_tracked"
    out["normalform.irreducible_ms"] = _mean(dur[name]) * ms
    for b in BUCKETS:
        out[f"normalform.irreducible_ms.{b}"] = _mean(by_bucket[name, b]) * ms
    out["normalform.bigons_removed"] = sum(counts[name]) * per_item
    out["normalform.canonical_us"] = _mean(dur["normalform.canonical_code"]) * us
    out["normalform.decide_self_ms"] = _mean(
        self_ns["normalform.f_equal"] + self_ns["normalform.strongly_equal"]) * ms

    balls = counts["oracle.bfs_ball"]
    nodes = sum(size for size, _ in balls)
    out["oracle.bfs_ms"] = _mean(dur["oracle.bfs_ball"]) * ms
    out["oracle.nodes"] = nodes * per_item
    out["oracle.us_per_node"] = sum(dur["oracle.bfs_ball"]) * us / nodes if nodes else 0.0
    out["oracle.cap_hits"] = sum(1 for _, capped in balls if capped) * per_item
    return out


_IMPORT_CLI = ("import time; t = time.perf_counter(); import freebraid.cli; "
               "print(time.perf_counter() - t)")


def cli_start_metrics(root, repeats=7):
    """Medians over `repeats` fresh interpreters: bare start-up, and the CLI's import inside one."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare, imports = [], []
    for _ in range(repeats):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=root, timeout=60)
        bare.append(perf_counter() - t)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI], check=True, cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout))
    return {"cli.import_ms": statistics.median(imports) * 1e3,
            "cli.bare_python_ms": statistics.median(bare) * 1e3}
