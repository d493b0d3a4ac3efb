"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCORED = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", SCORED)
def test_workload_passes_its_checks_at_tiny_size(workload, tmp_path):
    ctx = workloads.Context(scratch=tmp_path, jobs=2, tiny=True)
    result = workloads.run_pass(workload, seed=3, pass_index=0, ctx=ctx)
    assert result.failed == 0, result.failures
    assert result.attempted == len(result.op_s) > 0


def test_corrupted_golden_counts_as_a_failed_op(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(workloads.GOLDENS, goldens)
    corrupted = goldens / "verify-thm1.5-n-max-64.txt"
    corrupted.write_text(corrupted.read_text().replace("PASS", "FAIL", 1))
    ctx = workloads.Context(scratch=tmp_path, goldens=goldens, tiny=True)
    result = workloads.run_pass("verify_claims", seed=3, pass_index=0, ctx=ctx)
    assert (result.attempted, result.failed) == (2, 1)
    assert "verify-thm1.5-n-max-64.txt line 3" in result.failures[0]


@pytest.mark.parametrize("workload", SCORED)
def test_ops_follow_the_seed_and_never_repeat_arguments(workload, tmp_path):
    ctx = workloads.Context(scratch=tmp_path)
    build = workloads.BUILDERS[workload]
    keys = [op.key for op in build(random.Random("seed"), ctx)]
    assert len(set(keys)) == len(keys)
    assert keys == [op.key for op in build(random.Random("seed"), ctx)]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["claims.verify_theorem", 1.0, 9.0, 0, 0, {"rows": 4}],
        ["search.search_extremal", 2.0, 6.0, 1, 0, {"masks": 100, "classes": 1}],
        ["search.canonical_label", 3.0, 4.0, 2, 0, None],
    ]
    metrics = tracer.layer_metrics(wall_s=20.0)
    assert metrics["cli.self_s"] == 2.0
    assert metrics["claims.self_s"] == 4.0
    assert metrics["search.sweep.self_s"] == 3.0
    assert metrics["search.masks_per_s"] == 100 / 3.0
    assert metrics["search.dedup_ratio"] == 1.0
    assert metrics["trace.coverage"] == 0.5


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(NAME.fullmatch(name) for name in Tracer().layer_metrics(1.0))


def test_traced_run_reports_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycles_scale", "--seed", "5", "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert line["metrics"]["trace.coverage"]["value"] > 0.5


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso_canon", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
