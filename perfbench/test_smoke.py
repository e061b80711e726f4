"""Smoke self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit on every workload, that injected bad ops are counted
as failed without aborting the run, and that the benchmark refuses to run
(non-zero exit, no result line) in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload, trace, *extra, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def _check_metrics(result, table):
    assert [m["name"] for m in table] == list(result["metrics"])
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_injected_failures(workload):
    result = _result(_run(workload, 0, "--inject-bad"))
    _check_metrics(result, SPEC["end_to_end"])
    assert result["failed"] == 2 and result["correct"] is False
    assert result["attempted"] > result["failed"]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_cover_the_op_wall_time(workload):
    result = _result(_run(workload, 1))
    _check_metrics(result, SPEC["per_layer"])
    assert result["failed"] == 0 and result["correct"] is True
    coverage = result["metrics"]["trace.coverage_frac"]["value"]
    assert abs(coverage - 1.0) <= 0.05


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run(WORKLOADS[0], 0, cwd=bare)
        assert done.returncode != 0
        assert not any(line.startswith("{") for line in done.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)
