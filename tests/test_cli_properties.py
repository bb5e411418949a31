"""Property tests of the command line on generated bytes: hierarchy CSV
and YAML config files through ``select-hierarchy`` and ``anonymize`` on a
fixed small log, and log CSV files through ``validate``, ``anonymize``
and ``metrics handover-precision``.  Each command exits with the code
its input calls for, and a failed run prints one ``pmdg:`` line, no
traceback, and writes no output."""

import csv
import io
import tempfile
import unicodedata
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
    "csv": [[1], "x", {"delimiter": 5}, {"delimiter": ";;"}, {"delimiter": '"'},
            {"delimiter": "\n"}, {"delimiter": "\r"}, {"delimiter": "\0"},
            {"separator": ","}, {"attribute_columns": "role"}, {"case_column": "activity"}],
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


WARNING = "pmdg: warning: "


def _warnings_only(err):
    """Does stderr hold nothing but ``pmdg: warning: `` lines?"""
    *lines, rest = err.split("\n")
    return rest == "" and all(line.startswith(WARNING) for line in lines)


def _check_failure(err, out):
    """An error exit prints its one ``pmdg: `` line last, after warnings only."""
    *warnings, last, rest = err.split("\n")
    assert rest == "" and last.startswith("pmdg: ") and not last.startswith(WARNING), err
    assert all(line.startswith(WARNING) for line in warnings), err
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
# The missing-value literal as the wildcard, a repeated quasi-identifier and
# a NUL delimiter, which the ``csv`` module rejects on Python 3.10.
@example(hierarchy=(ROLE_CSV.encode(), frozenset({0})), benign=[],
         invalid=[("wildcard", MISSING)], two_candidates=False)
@example(hierarchy=(ROLE_CSV.encode(), frozenset({0})), benign=[],
         invalid=[("quasi_identifiers", ["role", "role"])], two_candidates=False)
@example(hierarchy=(ROLE_CSV.encode(), frozenset({0})), benign=[],
         invalid=[("csv", {"delimiter": "\0"})], two_candidates=False)
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
            assert _warnings_only(err) and out.exists(), err
            assert _run(["validate", "--in", str(out), "--k", "2", "--attr", "role",
                         "--wildcard-literal", config.get("wildcard", WILDCARD)],
                        capsys)[0] == 0


# Log cells: both Unicode forms of a leaf, the ``⋆`` literal and empty
# cells (``⊥``); case ids also hold delimiters, quotes and a combining mark.
LOG_ACTIVITIES = ["Register", "Caf\u00e9", "Cafe\u0301", "Scan", WILDCARD, ""]
LOG_ROLES = ["Admin", "GP", "CA", WILDCARD, ""]
CASE_PIECES = [",", ";", '"', "'", " ", "1", "\u00e9", "e\u0301"]
LOG_ACTIVITY_H = "Register,Register,⋆\nCaf\u00e9,Visit,⋆\nScan,Visit,⋆\n"
BIG_K = 1000  # more than any generated log has traces


@st.composite
def log_files(draw):
    """Bytes of a log CSV, its delimiter, its number of cases, what it
    holds ("valid", "unknown" for a value no hierarchy has, or "ragged"
    for a row of the wrong width) and whether it was cut at a byte."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|", " "]))
    case_ids = draw(st.lists(st.lists(st.sampled_from(CASE_PIECES), max_size=3).map("".join),
                             min_size=1, max_size=3))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(case_ids), st.sampled_from(LOG_ACTIVITIES),
                  st.sampled_from(LOG_ROLES)).map(list),
        min_size=1, max_size=8,
    ))
    state = draw(st.sampled_from(["valid", "valid", "unknown", "ragged"]))
    row = draw(st.sampled_from(rows))
    if state == "unknown":
        row[draw(st.integers(1, 2))] = "Zed"
    elif state == "ragged" and draw(st.booleans()):
        row.append("extra")
    elif state == "ragged":
        row.pop()
    text = io.StringIO()
    lineterminator = draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(text, delimiter=delimiter, lineterminator=lineterminator).writerows(
        [["case", "activity", "role"], *rows]
    )
    data = ("\ufeff" if draw(st.booleans()) else "").encode() + text.getvalue().encode()
    cut = draw(st.sampled_from([False, False, True]))
    if cut:  # perhaps inside a character, a quoted cell or the header
        data = data[:draw(st.integers(0, len(data)))]
    cases = len({unicodedata.normalize("NFC", row[0]) for row in rows})
    return data, delimiter, cases, state, cut


# The exit codes of each command on an uncut file, by what the file holds.
# ``hp`` is ``metrics handover-precision`` against the ``anonymize`` output,
# or against the log itself when no output was written.
LOG_CODES = {
    "valid": {"validate": {0}, "validate-big-k": {1}, "anonymize-big-k": {4},
              "anonymize": {0}, "anonymize-missing-dir": {5}, "hp": {0}},
    "unknown": {"validate": {0}, "validate-big-k": {1}, "anonymize-big-k": {4},
                "anonymize": {3}, "anonymize-missing-dir": {5}, "hp": {0, 3}},
    "ragged": dict.fromkeys(["validate", "validate-big-k", "anonymize-big-k", "anonymize",
                             "anonymize-missing-dir", "hp"], {3}),
}


@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=log_files())
# Every code but 2 and 3 from one valid log, and 3 from a ragged one.
@example(log=("case,activity,role\n1,Register,Admin\n2,Register,GP\n".encode(),
              ",", 2, "valid", False))
@example(log=("case,activity,role\n1,Register\n".encode(), ",", 1, "ragged", False))
def test_generated_log_files_exit_as_documented(capsys, log):
    data, delimiter, cases, state, cut = log
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        (work / "log.csv").write_bytes(data)
        (work / "act.csv").write_text(LOG_ACTIVITY_H, encoding="utf-8")
        (work / "role.csv").write_text(ROLE_CSV, encoding="utf-8")
        config = {
            "k": 2,
            "quasi_identifiers": ["role"],
            "activity_hierarchies": [str(work / "act.csv")],
            "attribute_hierarchies": {"role": [str(work / "role.csv")]},
            "csv": {"delimiter": delimiter},
        }
        (work / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        log_path, out, missing = str(work / "log.csv"), work / "anon.csv", work / "no" / "a.csv"
        layout = ["--delimiter", delimiter]
        k = str(min(2, cases))
        anonymize = ["anonymize", "--config", str(work / "config.yaml"), "--in", log_path]
        commands = {
            "validate": (["validate", "--in", log_path, "--k", "1", "--attr", "role", *layout],
                         None),
            "validate-big-k": (["validate", "--in", log_path, "--k", str(BIG_K),
                                "--attr", "role", *layout], None),
            "anonymize-big-k": ([*anonymize, "--out", str(out), "--k", str(BIG_K)], out),
            "anonymize-missing-dir": ([*anonymize, "--out", str(missing), "--k", k], missing),
            "anonymize": ([*anonymize, "--out", str(out), "--k", k], out),
        }
        codes = {}
        for name, (argv, written) in commands.items():
            capsys.readouterr()
            codes[name] = code = main(argv)
            printed, err = capsys.readouterr()
            allowed = LOG_CODES[state][name]
            if cut:  # perhaps before the fault, a parse error, or fewer traces than k
                allowed = (allowed | LOG_CODES["valid"][name] | {3}
                           | ({4} if name.startswith("anonymize") else set()))
            assert code in allowed, (name, err)
            if code == 1:
                assert printed.startswith("FAIL: ") and err == ""
            elif code:
                _check_failure(err, written)
        anonymized = str(out) if codes["anonymize"] == 0 else log_path
        code, err = _run(["metrics", "handover-precision", "--in", log_path,
                          "--anonymized", anonymized, "--attr", "role",
                          "--hierarchy", str(work / "role.csv"), *layout], capsys)
        if codes["anonymize"] == 0:
            assert code == 0, err
            assert _run(["validate", "--in", str(out), "--k", k, "--attr", "role", *layout],
                        capsys)[0] == 0
        else:
            assert code in LOG_CODES[state]["hp"] | LOG_CODES["valid"]["hp"] | {3}, err
        if code:
            _check_failure(err, None)
