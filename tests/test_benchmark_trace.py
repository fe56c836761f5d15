"""Smoke test of the benchmark's traced output: a traced radial-solve run
also makes one traced pass of every other workload, and its last stdout
line must be the strict-JSON result with every per-layer metric."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


def test_traced_run_prints_every_per_layer_metric():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial-solve",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject)
    [record] = [json.loads(line[len("record: "):]) for line in lines
                if line.startswith("record: ")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    for name in (m["name"] for m in spec["per_layer"]):
        assert name in metrics, name
        assert math.isfinite(metrics[name]["value"]), name
    assert record["absent"] == []
    assert result["correct"] is True
