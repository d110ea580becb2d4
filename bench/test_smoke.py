"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout: python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload: str, trace: int, seed: int = 5) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_and_outputs_check(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0


def test_same_seed_gives_same_inputs_and_counts():
    first = run("detect_stream", 1, seed=9)["metrics"]
    again = run("detect_stream", 1, seed=9)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: again[n]["value"] for n in counts}


def test_traced_run_reports_the_layers_each_workload_uses():
    plan = run("plan_grid", 1)["metrics"]
    assert plan["errors.all_missed_detection.calls"]["value"] > 0
    assert plan["placement.area_lookups"]["value"] > 0
    assert plan["detector.detect.calls"]["value"] == 0
    drift = run("detect_drift", 1)["metrics"]
    assert drift["hypotheses.local_hypotheses.calls"]["value"] > 0
    assert drift["cli.main.self_s"]["value"] > 0
    assert drift["placement.solve_feasibility.calls"]["value"] == 0


def test_refuses_to_run_without_sources():
    stripped = os.path.join(BENCH_DIR, ".work", "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(stripped, "bench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plan_grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=stripped,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
