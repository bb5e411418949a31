"""The benchmark workloads' outputs, pinned byte for byte.

Each seed-1 workload from ``bench/workloads.py`` runs through
``run_pipeline`` in its input directory; the output CSV and the manifest
(without ``timings_s`` and ``input_path``, which vary by run and by
directory) must hash to the pinned digests.  A change that alters output
on purpose updates them here and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pmdg.cli import run_pipeline
from pmdg.logio import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload: (output CSV sha256, manifest sha256, nodes evaluated)
PINNED = {
    "msa-variants": (
        "5c8b1679d0d483574ca417ebfb84aa7acdb3325c80e7b6b0a186796f8c117d8e",
        "7902f6f31f790da81c88b6c71dc00b6943486c248022c56f5bc8312b221663cd",
        3,
    ),
    "bulk-dup": (
        "c0260dc4622ae865d7d9643b041e0396bdedb4de724125bd4642ba288558c2aa",
        "0642e6a74ed61d9414d8b4b3112591963517866662a4306ef5f997dd0197b683",
        15,
    ),
    "wide-xes": (
        "1c37ace1ed44b6381bb6012d43876b320d50f56be88ba7a0b058a719a36bb8d8",
        "5c8425bb0ce7ceae8607d30d3e88c7b366334d769c6a7e2a49b9f52129f1274f",
        75,
    ),
}


@pytest.fixture(scope="module")
def generate():
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import generate
    finally:
        sys.path.remove(str(BENCH))
    return generate


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload", PINNED)
def test_seed_one_outputs_are_pinned(workload, generate, tmp_path, monkeypatch):
    inputs = generate(workload, 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    run_pipeline(load_config(inputs.config), inputs.log, "out.csv", "report.json")
    manifest = json.loads(Path("report.json").read_text(encoding="utf-8"))
    del manifest["timings_s"], manifest["input_path"]
    canonical = json.dumps(manifest, sort_keys=True, ensure_ascii=False).encode("utf-8")
    found = (_sha256(Path("out.csv").read_bytes()), _sha256(canonical),
             manifest["nodes_evaluated"])
    assert found == PINNED[workload]
