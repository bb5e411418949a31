"""Tiny-scale smoke tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import RECORD, WHY, generate, record

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.03"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WHY)
    assert [w["why"] for w in SPEC["workloads"]] == list(WHY.values())


@pytest.mark.parametrize("workload", sorted(WHY))
def test_generator_is_seeded(workload, tmp_path):
    first = generate(workload, 7, tmp_path / "a", scale=0.03)
    again = generate(workload, 7, tmp_path / "b", scale=0.03)
    other = generate(workload, 8, tmp_path / "c", scale=0.03)
    assert first.digests == again.digests
    assert first.digests[first.log] != other.digests[other.log]


def test_seed_one_reproduces_the_recorded_inputs():
    assert record(1) == json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WHY))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    detail = json.loads(lines[-2])["detail"]
    assert len(detail["output_sha256"]) == 64


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "bulk-dup", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
