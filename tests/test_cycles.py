"""No pipeline stage leaves a reference cycle behind.

Garbage in a cycle outlives the call that made it until the cyclic
collector runs, so a stage that makes some holds its whole working set
past its return.  Each stage runs once to warm caches, then again with
the collector off; a collection afterwards must find nothing.
"""

import gc

import pytest

from pmdg import (
    WILDCARD,
    Hierarchy,
    LevelVector,
    MalformedXml,
    apply_to_log,
    handover_precision,
    read_log_csv,
    read_log_xes,
    search,
    select,
    validate_k,
    vectorize_msa,
    vectorize_naive,
    write_log_csv,
)

from helpers import clinic_hierarchies, clinic_log

XES = (
    "<log><trace><string key=\"concept:name\" value=\"c1\"/>"
    + "".join(
        f'<event><string key="concept:name" value="{activity}"/>'
        f'<string key="role" value="{role}"/></event>'
        for activity, role in [("Register", "Admin"), ("Vitals", "GP"), ("CT Scan", "CA")]
    )
    + "</trace></log>"
)


def _stages(tmp_path):
    """Stage name -> a call of that stage on the clinic log."""
    activity, role, _ = clinic_hierarchies()
    flat_role = Hierarchy.from_rows(
        [(leaf, WILDCARD) for leaf in role.leaves], attribute="role"
    )
    log = clinic_log()
    vectorized = vectorize_msa(log)
    roles = {"role": role}
    anonymized = apply_to_log(vectorized, LevelVector(1, {"role": 1}), activity, roles)
    csv_path = tmp_path / "log.csv"
    write_log_csv(log, csv_path)
    xes_path = tmp_path / "log.xes"
    xes_path.write_text(XES, encoding="utf-8")
    truncated_path = tmp_path / "truncated.xes"
    truncated_path.write_text(XES[: len(XES) // 2], encoding="utf-8")

    def read_truncated_xes():
        try:
            read_log_xes(truncated_path)
        except MalformedXml:
            return
        raise AssertionError("a truncated XES file was read")

    return {
        "read_log_csv": lambda: read_log_csv(csv_path),
        "read_log_xes": lambda: read_log_xes(xes_path),
        "read_log_xes-truncated": read_truncated_xes,
        "vectorize_msa": lambda: vectorize_msa(log),
        "vectorize_naive": lambda: vectorize_naive(log),
        "select": lambda: select(vectorized, [role, flat_role], (1.0, 0.5)),
        "search": lambda: search(vectorized, activity, roles, ["role"], 2),
        "apply_to_log": lambda: apply_to_log(
            vectorized, LevelVector(1, {"role": 1}), activity, roles
        ),
        "handover_precision": lambda: handover_precision(
            vectorized, anonymized, "role", role
        ),
        "write_log_csv": lambda: write_log_csv(anonymized, tmp_path / "out.csv"),
        "validate_k": lambda: validate_k(anonymized, ["role"], 2),
    }


STAGES = [
    "read_log_csv", "read_log_xes", "read_log_xes-truncated", "vectorize_msa",
    "vectorize_naive", "select", "search", "apply_to_log", "handover_precision",
    "write_log_csv", "validate_k",
]


@pytest.mark.parametrize("stage", STAGES)
def test_stage_leaves_no_reference_cycle(tmp_path, stage):
    run = _stages(tmp_path)[stage]
    run()  # warm-up: caches and lazily built tables may hold on for good
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
