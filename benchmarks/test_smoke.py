"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py

Checks that each run succeeds, reports no failed operation and prints every
metric BENCHMARK.json names, with its unit.  It asserts nothing about
timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "benchmarks"))
from run import WORKLOAD_NAMES  # noqa: E402  (trace runs too, though BENCHMARK.json omits it)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    command += ["--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
