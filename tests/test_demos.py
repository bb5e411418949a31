"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmdg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    package_root = str(Path(pmdg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
