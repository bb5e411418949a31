import importlib.metadata
from pathlib import Path

import pytest

import pmdg


def test_public_surface_is_sorted_unique_and_complete():
    names = pmdg.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(pmdg, name), name
    namespace: dict = {}
    exec("from pmdg import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)


def test_version_is_the_one_in_pyproject():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert pmdg.__version__ == version
    try:  # an installed package's metadata must say the same
        installed = importlib.metadata.version("pmdg")
    except importlib.metadata.PackageNotFoundError:
        return
    assert installed == version
