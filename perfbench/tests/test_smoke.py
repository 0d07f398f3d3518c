"""Smoke test of the benchmark itself: result schema, metric names, error
rate and the bypass design. It never asserts a speed.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must never call, read from the traced run.
BYPASSED = {
    "train-qlam-lbf": ["learner.values.marginal_ms", "learner.values.utility_ms"],
    "eval-gpl-wolfpack-limit5": ["tensor.backward_ms", "nn.adam_ms", "harness.checkpoint_ms"],
}


def run(root, workload, trace, seconds=2):
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert info["digest"] is not None

    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert math.isfinite(metric["value"])

    if trace == 0:
        assert info["error_rate"] == 0.0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        for name in BYPASSED.get(workload, []):
            assert result["metrics"][name]["value"] == 0.0, name


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
