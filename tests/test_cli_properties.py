"""Property test of the command line on generated hierarchy CSV and YAML
config bytes: ``select-hierarchy`` and ``anonymize`` on a fixed small log
exit with the code each input calls for, and a failed run prints one
``pmdg:`` line, no traceback, and writes no output."""

import csv
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmdg.cli import main
from pmdg.logio import PipelineConfig
from pmdg.model import MISSING, WILDCARD

LOG_CSV = (
    "case,activity,role\n"
    "1,Register,Admin\n1,Consult,GP\n"
    "2,Register,Admin\n2,Consult,CA\n"
    "3,Register,Admin\n3,Scan,CA\n"
    "4,Register,Admin\n4,Scan,GP\n"
)
ACTIVITY_H = "Register,Register,⋆\nConsult,Consult,⋆\nScan,Scan,⋆\n"
ROLE_ROWS = (["Admin", "Admin", WILDCARD], ["GP", "Staff", WILDCARD],
             ["CA", "Staff", WILDCARD])
ROLE_CSV = "".join(",".join(row) + "\n" for row in ROLE_ROWS)

# Labels for the middle column: delimiters, quotes, ``⋆``, ``⊥``, a
# combining mark and blanks (an all-blank label strips to an empty cell).
LABELS = st.text(
    alphabet=[",", ";", '"', "'", " ", "a", "\u00e9", "\u0301", WILDCARD, MISSING],
    min_size=1, max_size=4,
)


@st.composite
def hierarchy_files(draw):
    """Bytes of a role hierarchy CSV and the exit codes it allows: 0 for a
    valid table over the log's roles, 3 for a parse or data error."""
    rows = [list(row) for row in ROLE_ROWS]
    for row in rows:
        if draw(st.booleans()):
            row[1] = draw(LABELS)  # every middle label leads to the root
    for change in draw(st.lists(st.sampled_from(["empty", "ragged", "wildcard-leaf"]),
                                max_size=2)):
        row = draw(st.sampled_from(rows))
        if change == "empty":
            row[draw(st.integers(0, len(row) - 1))] = ""
        elif change == "ragged" and draw(st.booleans()):
            row.append("extra")
        elif change == "ragged":
            row.pop()
        else:
            row[0] = WILDCARD
    # Valid if the rows stay as wide as each other, end in the root and
    # keep every role as a leaf: a middle cell may be anything, even empty.
    valid = (len({len(row) for row in rows}) == 1
             and all(row[-1] == WILDCARD for row in rows)
             and [row[0] for row in rows] == [row[0] for row in ROLE_ROWS])
    codes = {0} if valid else {3}
    text = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    lineterminator = draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(text, quoting=quoting, lineterminator=lineterminator).writerows(rows)
    data = ("\ufeff" if draw(st.booleans()) else "").encode() + text.getvalue().encode()
    if draw(st.booleans()):  # cut at a random byte, perhaps inside a character
        data = data[:draw(st.integers(0, len(data)))]
        codes = {0, 3}
    return data, frozenset(codes)


# Settings that keep a configuration valid.
BENIGN = [
    ("vectorization", "naive"), ("utility_notion", "size_balance"),
    ("drop_singletons", True), ("level_weights", [1, 0.5]), ("wildcard", "*"),
]
FIELDS = {f.name for f in PipelineConfig.__dataclass_fields__.values()}
WRONG = {
    "k": [None, "2", 2.5, True, [2], 0],
    "quasi_identifiers": ["role", [1], {"role": 1}, None],
    "activity_hierarchies": [None, 5, [], [1]],
    "attribute_hierarchies": [["role"], "x", {"role": 5}, {"role": []}, None],
    "vectorization": [3, "fancy", ["msa"], None],
    "utility_notion": ["vibes", 1, None],
    "level_weights": ["x", [], [-1], [True], None, [float("nan")]],
    "drop_singletons": ["yes", 1, None],
    "wildcard": [7, "", None, ["*"], MISSING],
    "csv": [[1], "x", {"delimiter": 5}, {"delimiter": ";;"}, {"separator": ","},
            {"attribute_columns": "role"}, {"case_column": "activity"}],
}
# Each makes the configuration invalid (exit 2).
INVALID = st.one_of(
    st.sampled_from([(key, value) for key, values in WRONG.items() for value in values]),
    st.just(("quasi_identifiers", ["role", "role"])),
    st.tuples(st.text(min_size=1, max_size=6).filter(lambda key: key not in FIELDS),
              st.integers()),
)


def _run(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


def _check_failure(err, out):
    assert err.startswith("pmdg: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert out is None or not out.exists()


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    hierarchy=hierarchy_files(),
    benign=st.lists(st.sampled_from(BENIGN), max_size=2),
    invalid=st.lists(INVALID, max_size=2),
    two_candidates=st.booleans(),
)
# The missing-value literal as the wildcard, and a repeated quasi-identifier.
@example(hierarchy=(ROLE_CSV.encode(), frozenset({0})), benign=[],
         invalid=[("wildcard", MISSING)], two_candidates=False)
@example(hierarchy=(ROLE_CSV.encode(), frozenset({0})), benign=[],
         invalid=[("quasi_identifiers", ["role", "role"])], two_candidates=False)
def test_generated_hierarchy_and_config_files_exit_as_documented(
    capsys, hierarchy, benign, invalid, two_candidates
):
    data, codes = hierarchy
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        (work / "log.csv").write_text(LOG_CSV, encoding="utf-8")
        (work / "act.csv").write_text(ACTIVITY_H, encoding="utf-8")
        (work / "role.csv").write_text(ROLE_CSV, encoding="utf-8")
        (work / "gen.csv").write_bytes(data)
        roles = [str(work / "gen.csv")] + [str(work / "role.csv")] * two_candidates
        config = {
            "k": 2,
            "quasi_identifiers": ["role"],
            "activity_hierarchies": [str(work / "act.csv")],
            "attribute_hierarchies": {"role": roles},
        }
        config.update(benign)
        config.update(invalid)
        (work / "config.yaml").write_bytes(
            yaml.safe_dump(config, allow_unicode=True).encode("utf-8")
        )
        log, out = str(work / "log.csv"), work / "anon.csv"

        code, err = _run(["select-hierarchy", "--in", log, "--perspective", "role",
                          "--candidates", f"{work / 'gen.csv'},{work / 'role.csv'}"],
                         capsys)
        assert code in codes, err
        if code:
            _check_failure(err, None)

        code, err = _run(["anonymize", "--config", str(work / "config.yaml"),
                          "--in", log, "--out", str(out)], capsys)
        assert code in ({2} if invalid else codes), err
        if code:
            _check_failure(err, out)
        else:
            assert err == "" and out.exists()
            assert _run(["validate", "--in", str(out), "--k", "2", "--attr", "role",
                         "--wildcard-literal", config.get("wildcard", WILDCARD)],
                        capsys)[0] == 0
