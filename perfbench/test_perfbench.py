"""Tests of the benchmark itself: python -m pytest perfbench

Tiny-size runs of every workload, traced and untraced, through the same
command the benchmark is run with.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, *CONFIG["command"][1:], "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request):
    return request.param, bench(request.param, 0)


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in sorted(WORKLOADS)}


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check_metrics(result, declared):
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_config_follows_its_schema():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in CONFIG["end_to_end"]


def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(untraced):
    _, proc = untraced
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_ITEMS
    check_metrics(result, CONFIG["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_seed_gives_byte_identical_inputs(untraced):
    workload, proc = untraced
    printed = dict(f.split("=", 1) for f in proc.stdout.splitlines()[-2].split()[1:])
    fb = run.load_package(str(ROOT))
    make = WORKLOADS[workload].make_items
    assert printed["inputs_sha256"] == run.inputs_digest(make(fb, random.Random(SEED), "tiny"))
    assert printed["inputs_sha256"] != run.inputs_digest(make(fb, random.Random(SEED + 1), "tiny"))


def test_traced_run_reports_every_layer_metric_and_a_self_time_per_layer(traced):
    busy = set()
    for workload, proc in traced.items():
        result = result_of(proc)
        assert result["correct"], workload
        check_metrics(result, CONFIG["per_layer"])
        busy |= {layer for layer in spans.LAYERS if result["metrics"][f"{layer}.self_ms"]["value"] > 0}
        dump = json.loads((ROOT / run.OUT_DIR / f"trace-{workload}.json").read_text(encoding="utf-8"))
        assert dump["fields"] == list(spans.FIELDS) and dump["spans"]
    assert busy == set(spans.LAYERS)


def test_exits_nonzero_without_the_program():
    bare = ROOT / run.OUT_DIR / "bare"  # inside the checkout, which the benchmark may write to
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("decide", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
