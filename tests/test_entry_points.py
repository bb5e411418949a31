"""``anonymize`` and ``metrics handover-precision`` report one number.

Each seed-1 workload from ``bench/workloads.py`` runs through
``run_pipeline`` in its input directory, as ``tests/test_golden.py`` runs
it; then, for each quasi-identifier, the command measures the written
file against the input with the config's vectorization and the chosen
hierarchy, and must print the manifest's precision to one decimal.
"""

import sys
from pathlib import Path

import pytest

from pmdg.cli import main, run_pipeline
from pmdg.logio import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def generate():
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import generate
    finally:
        sys.path.remove(str(BENCH))
    return generate


@pytest.mark.parametrize("workload", ["msa-variants", "bulk-dup", "wide-xes"])
def test_both_entry_points_give_one_handover_precision(workload, generate, tmp_path,
                                                       monkeypatch, capsys):
    inputs = generate(workload, 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    config = load_config(inputs.config)
    manifest = run_pipeline(config, inputs.log, "out.csv")
    capsys.readouterr()
    for attr in config.quasi_identifiers:
        path = manifest.chosen_hierarchies["attributes"][attr]["path"]
        assert main([
            "metrics", "handover-precision", "--in", inputs.log, "--anonymized", "out.csv",
            "--attr", attr, "--hierarchy", path, "--strategy", config.vectorization,
        ]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"{manifest.handover_precision[attr]:.1f}", attr
