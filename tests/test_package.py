import importlib.metadata
import math
from pathlib import Path

import pytest

import pmdg
from pmdg import (
    LevelVector,
    read_hierarchy,
    read_log_csv,
    read_log_xes,
    select,
    write_log_csv,
)
from pmdg import logio, selection

from helpers import clinic_hierarchies, clinic_log

# The public names; a change that adds or removes one edits this tuple.
PUBLIC_NAMES = (
    "ConfigError", "DataError", "DuplicateLeaf", "EmptyLog", "Event", "EventLog",
    "HandoverGraph", "HandoverPair", "Hierarchy", "HierarchyFormatError",
    "HierarchyTable", "InconsistentDepth", "InsufficientTraces", "IoFailure",
    "KAnonymityReport", "LatticeSearchResult", "LevelVector", "LinkageBroken",
    "LogCsvSpec", "MISSING", "MalformedXml", "MissingColumn", "MissingConceptName",
    "MissingRoot", "NonFunctionalLevel", "ParseError", "PipelineConfig", "PmdgError",
    "RaggedRow", "Trace", "UnknownAttribute", "UnknownValue", "UtilityProfile",
    "WILDCARD", "apply_to_log", "control_flow", "drop_singleton_variants", "export_dot",
    "handover_graph", "handover_precision", "handover_preservation", "load_config",
    "read_hierarchy", "read_log_csv", "read_log_xes", "remaining_variants",
    "render_dot", "satisfies", "search", "search_control_flow", "select",
    "trace_signature", "validate_k", "variants", "vectorize_msa", "vectorize_naive",
    "write_log_csv",
)


def test_public_surface_is_sorted_unique_and_complete():
    names = pmdg.__all__
    assert names == sorted(set(names))
    assert tuple(names) == PUBLIC_NAMES
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


WEIGHTS_RULE = "weights must be a non-empty list of finite, non-negative numbers"
WILDCARD_RULE = "wildcard must be a non-empty string, not '⊥'"


def _level_rule(setup, level):
    return f"generalization levels must be integers >= 0, got {level!r}"


def _range_rule(setup, level):
    return f"level {level!r} out of range 0..{setup['role'].depth} for role"


# Entry point -> (call with the setup and a bad value, the message it raises).
ENTRY_POINTS = {
    "select-weights": (
        lambda s, v: select(s["log"], [s["role"]], weights=v), lambda s, v: WEIGHTS_RULE,
    ),
    "select-notion": (
        lambda s, v: select(s["log"], [s["role"]], notion=v),
        lambda s, v: "notion must be one of ('class_count', 'size_balance')",
    ),
    "read_log_csv": (lambda s, v: read_log_csv(s["path"], wildcard=v), lambda s, v: WILDCARD_RULE),
    "read_log_xes": (lambda s, v: read_log_xes(s["path"], wildcard=v), lambda s, v: WILDCARD_RULE),
    "read_hierarchy": (
        lambda s, v: read_hierarchy(s["path"], wildcard=v), lambda s, v: WILDCARD_RULE,
    ),
    "write_log_csv": (
        lambda s, v: write_log_csv(s["log"], s["path"], wildcard=v), lambda s, v: WILDCARD_RULE,
    ),
    "LevelVector-activity": (lambda s, v: LevelVector(v), _level_rule),
    "LevelVector-attribute": (lambda s, v: LevelVector(0, {"role": v}), _level_rule),
    "lookup": (lambda s, v: s["role"].lookup(v), _range_rule),
    "generalize": (lambda s, v: s["role"].generalize("GP", v), _range_rule),
}

BAD_SETTINGS = [
    *(("select-weights", weights) for weights in ((math.nan,), (-1.0,), (), (True,))),
    ("select-notion", "bogus"),
    *((entry, literal) for entry in ("read_log_csv", "read_log_xes", "read_hierarchy",
                                     "write_log_csv") for literal in ("", "⊥", None)),
    *((entry, level) for entry in ("LevelVector-activity", "LevelVector-attribute")
      for level in (1.5, True, -1)),
    *((entry, level) for entry in ("lookup", "generalize") for level in (0.5, True)),
]


@pytest.mark.parametrize(
    "entry, value", BAD_SETTINGS, ids=[f"{entry}-{value!r}" for entry, value in BAD_SETTINGS]
)
def test_every_entry_point_refuses_a_bad_setting_before_any_work(entry, value, tmp_path,
                                                                 monkeypatch):
    """Library entry points apply the one rule of each setting, and raise
    ``ValueError`` before they extract a sequence or open a file."""

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the setting was checked")

    monkeypatch.setattr(selection, "_value_sequences", no_work)
    monkeypatch.setattr(logio, "open", no_work, raising=False)
    _, role, _ = clinic_hierarchies()
    setup = {"log": clinic_log(), "role": role, "path": tmp_path / "file"}
    call, message = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as raised:
        call(setup, value)
    assert str(raised.value) == message(setup, value)
    assert not setup["path"].exists()
