import json

import pytest

from pmdg import read_log_csv, validate_k, vectorize_msa
from pmdg.cli import main, run_pipeline
from pmdg.logio import load_config

CLINIC_CSV = (
    "case,activity,role\n"
    "07,Register,Admin\n"
    "07,Vitals,GP\n"
    "07,Consultation,GP\n"
    "07,CT Scan,CA\n"
    "08,Register,Admin\n"
    "08,Consultation,CA\n"
    "08,MRI Scan,CA\n"
)

ACTIVITY_H = (
    "Register,Register,⋆\n"
    "Vitals,⋆,⋆\n"
    "Consultation,Consultation,⋆\n"
    "CT Scan,Radiology Scan,⋆\n"
    "MRI Scan,Radiology Scan,⋆\n"
)

ROLE_H = "Admin,Admin,⋆\nGP,Medical Staff,⋆\nCA,Medical Staff,⋆\n"


def _config_text(workdir, k="2", extra=""):
    return (
        f"k: {k}\n"
        "quasi_identifiers: [role]\n"
        f"activity_hierarchies: [{workdir / 'act.csv'}]\n"
        "attribute_hierarchies:\n"
        f"  role: [{workdir / 'role.csv'}]\n"
        f"{extra}"
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "log.csv").write_text(CLINIC_CSV, encoding="utf-8")
    (tmp_path / "act.csv").write_text(ACTIVITY_H, encoding="utf-8")
    (tmp_path / "role.csv").write_text(ROLE_H, encoding="utf-8")
    (tmp_path / "config.yaml").write_text(_config_text(tmp_path), encoding="utf-8")
    return tmp_path


def test_anonymize_end_to_end(workdir, capsys):
    out = workdir / "anon.csv"
    report = workdir / "manifest.json"
    code = main([
        "anonymize",
        "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.csv"),
        "--out", str(out),
        "--report", str(report),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "levels:" in printed
    anonymized = read_log_csv(out)
    assert validate_k(anonymized, ["role"], 2).ok
    manifest = json.loads(report.read_text(encoding="utf-8"))
    assert manifest["k"] == 2
    assert manifest["levels"] == {"activity": 1, "attributes": {"role": 1}}
    assert manifest["variants_input"] == 2
    assert manifest["variants_output"] == 1
    assert manifest["min_class_size"] == 2
    assert manifest["class_size_histogram"] == [[2, 1]]
    assert manifest["handover_precision"]["role"] == pytest.approx(200 / 3, abs=1e-6)
    assert manifest["traces_read"] == 2
    assert set(manifest["timings_s"]) >= {"read_preprocess", "vectorize", "search"}


def test_anonymize_k_override(workdir):
    out = workdir / "anon.csv"
    code = main([
        "anonymize",
        "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.csv"),
        "--out", str(out),
        "--k", "1",
    ])
    assert code == 0
    # k=1 needs no generalization at all: the output is just the padded input.
    expected = vectorize_msa(read_log_csv(workdir / "log.csv"))
    assert read_log_csv(out) == expected


def test_run_pipeline_manifest_fields(workdir):
    config = load_config(workdir / "config.yaml")
    manifest = run_pipeline(config, str(workdir / "log.csv"))
    assert manifest.tool_version.startswith("pmdg ")
    assert manifest.aligned_length == 4
    assert manifest.nodes_evaluated >= 2
    assert manifest.chosen_hierarchies["activity"].endswith("act.csv")
    assert len(manifest.input_sha256) == 64
    assert len(manifest.config_sha256) == 64


def test_exit_codes(workdir, tmp_path):
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("k: 0\nactivity_hierarchies: [x]\n", encoding="utf-8")
    args = ["--in", str(workdir / "log.csv"), "--out", str(tmp_path / "o.csv")]
    assert main(["anonymize", "--config", str(bad_yaml)] + args) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("case,activity,role\n1,A\n", encoding="utf-8")
    assert main([
        "anonymize", "--config", str(workdir / "config.yaml"),
        "--in", str(ragged), "--out", str(tmp_path / "o.csv"),
    ]) == 3

    assert main([
        "anonymize", "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.csv"),
        "--out", str(tmp_path / "o.csv"), "--k", "99",
    ]) == 4

    assert main([
        "anonymize", "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.csv"),
        "--out", str(tmp_path / "no" / "such" / "dir" / "o.csv"),
    ]) == 5

    assert main([
        "anonymize", "--config", str(tmp_path / "missing.yaml"),
        "--in", str(workdir / "log.csv"), "--out", str(tmp_path / "o.csv"),
    ]) == 5


def test_validate_exit_codes(workdir, capsys):
    assert main([
        "validate", "--in", str(workdir / "log.csv"), "--k", "1", "--attr", "role",
    ]) == 0
    assert main([
        "validate", "--in", str(workdir / "log.csv"), "--k", "2", "--attr", "role",
    ]) == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed


def test_preprocess_and_vectorize_commands(workdir, capsys):
    copy_rows = CLINIC_CSV.replace("07,", "17,").replace("08,", "18,").splitlines()[1:]
    extra = "27,Register,Admin\n27,Vitals,GP\n"  # a variant seen only once
    doubled = workdir / "doubled.csv"
    doubled.write_text(
        CLINIC_CSV + "".join(line + "\n" for line in copy_rows) + extra,
        encoding="utf-8",
    )
    out = workdir / "pre.csv"
    assert main(["preprocess", "--in", str(doubled), "--out", str(out)]) == 0
    kept = read_log_csv(out)
    assert len(kept.traces) == 4
    assert all(trace.case_id != "27" for trace in kept.traces)

    vec = workdir / "vec.csv"
    assert main([
        "vectorize", "--in", str(workdir / "log.csv"), "--out", str(vec),
        "--strategy", "msa",
    ]) == 0
    vectorized = read_log_csv(vec)
    assert {len(t) for t in vectorized.traces} == {4}


def test_select_hierarchy_command(workdir, capsys):
    flat = workdir / "flat.csv"
    flat.write_text("Admin,⋆\nGP,⋆\nCA,⋆\n", encoding="utf-8")
    code = main([
        "select-hierarchy", "--in", str(workdir / "log.csv"),
        "--perspective", "role",
        "--candidates", f"{flat},{workdir / 'role.csv'}",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "selected:" in printed
    assert str(workdir / "role.csv") in printed.splitlines()[-1]


def test_metrics_commands(workdir, capsys, tmp_path):
    assert main(["metrics", "variants", "--in", str(workdir / "log.csv")]) == 0
    assert capsys.readouterr().out.strip() == "2"

    dot = tmp_path / "g.dot"
    assert main([
        "metrics", "handover-graph", "--in", str(workdir / "log.csv"),
        "--attr", "role", "--dot", str(dot),
    ]) == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph handover {")

    out = workdir / "anon.csv"
    main([
        "anonymize", "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.csv"), "--out", str(out),
    ])
    capsys.readouterr()
    assert main([
        "metrics", "handover-precision", "--in", str(workdir / "log.csv"),
        "--anonymized", str(out), "--attr", "role",
        "--hierarchy", str(workdir / "role.csv"),
    ]) == 0
    assert capsys.readouterr().out.strip() == "66.7"


def test_wildcard_literal_flag(workdir, tmp_path):
    vec = tmp_path / "vec.csv"
    assert main([
        "vectorize", "--in", str(workdir / "log.csv"), "--out", str(vec),
        "--wildcard-literal", "*",
    ]) == 0
    text = vec.read_text(encoding="utf-8")
    assert "*" in text and "⋆" not in text


MALFORMED_INPUTS = [
    ("validate-k-zero", ["validate", "--in", "{log}", "--k", "0"], 2),
    ("validate-unknown-attr",
     ["validate", "--in", "{log}", "--k", "1", "--attr", "ghost"], 3),
    ("select-bad-weights",
     ["select-hierarchy", "--in", "{log}", "--perspective", "role",
      "--candidates", "{role}", "--weights", "a"], 2),
    ("select-no-candidates",
     ["select-hierarchy", "--in", "{log}", "--perspective", "role",
      "--candidates", ","], 2),
    ("log-not-utf8", ["metrics", "variants", "--in", "{latin1_log}"], 3),
    ("hierarchy-not-utf8",
     ["select-hierarchy", "--in", "{log}", "--perspective", "role",
      "--candidates", "{latin1_hierarchy}"], 3),
    ("config-not-utf8",
     ["anonymize", "--config", "{latin1_config}", "--in", "{log}", "--out", "{out}"], 2),
    ("delimiter-flag", ["metrics", "variants", "--in", "{log}", "--delimiter", ";;"], 2),
    ("delimiter-config",
     ["anonymize", "--config", "{delimiter_config}", "--in", "{log}", "--out", "{out}"],
     2),
    ("k-true-config",
     ["anonymize", "--config", "{bool_k_config}", "--in", "{log}", "--out", "{out}"], 2),
    ("duplicate-header", ["metrics", "variants", "--in", "{dup_header_log}"], 3),
    ("duplicate-columns-flag",
     ["metrics", "variants", "--in", "{log}", "--columns", "role,role"], 2),
    ("duplicate-columns-config",
     ["anonymize", "--config", "{dup_columns_config}", "--in", "{log}", "--out", "{out}"],
     2),
    ("oversized-field-log", ["validate", "--in", "{big_log}", "--k", "2"], 3),
    ("oversized-field-hierarchy",
     ["anonymize", "--config", "{big_hierarchy_config}", "--in", "{log}", "--out", "{out}"],
     3),
    ("unknown-quasi-identifier",
     ["anonymize", "--config", "{ghost_config}", "--in", "{log}", "--out", "{out}"], 3),
    ("empty-xes", ["validate", "--in", "{empty_xes}", "--k", "2"], 3),
    ("truncated-xes", ["validate", "--in", "{truncated_xes}", "--k", "2"], 3),
]

# Every root child is empty or not a trace: no events at all.
EMPTY_XES = (
    '<log xmlns="http://www.xes-standard.org/">'
    '<string key="concept:name" value="log"/><trace/>'
    '<trace><string key="concept:name" value="c1"/></trace></log>'
)
TRUNCATED_XES = (
    '<log><trace><event><string key="concept:name" value="A"/></event></trace>'
    '<trace><event><string key="concept:name" value="B"/>'
)

# One cell over the csv module's default field size limit (131,072).
OVERSIZED_CELL = "x" * 200_000


@pytest.mark.parametrize(
    "argv, expected", [row[1:] for row in MALFORMED_INPUTS],
    ids=[row[0] for row in MALFORMED_INPUTS],
)
def test_malformed_input_exit_codes(workdir, capsys, argv, expected):
    (workdir / "latin1_log.csv").write_bytes(b"case,activity,role\n1,Caf\xe9,GP\n")
    (workdir / "latin1_hierarchy.csv").write_bytes(b"Admin,Adm\xefn,*\n")
    (workdir / "latin1_config.yaml").write_bytes(b"k: 2\n# caf\xe9\n")
    (workdir / "delimiter_config.yaml").write_text(
        _config_text(workdir, extra='csv:\n  delimiter: ";;"\n'), encoding="utf-8"
    )
    (workdir / "bool_k_config.yaml").write_text(
        _config_text(workdir, k="true"), encoding="utf-8"
    )
    (workdir / "dup_header_log.csv").write_text(
        "case,activity,role,role\n1,A,GP,GP\n", encoding="utf-8"
    )
    (workdir / "dup_columns_config.yaml").write_text(
        _config_text(workdir, extra="csv:\n  attribute_columns: [role, role]\n"),
        encoding="utf-8",
    )
    (workdir / "big_log.csv").write_text(
        f"case,activity,role\n1,A,{OVERSIZED_CELL}\n", encoding="utf-8"
    )
    (workdir / "big_role.csv").write_text(
        ROLE_H + f"{OVERSIZED_CELL},Admin,⋆\n", encoding="utf-8"
    )
    (workdir / "big_hierarchy_config.yaml").write_text(
        _config_text(workdir).replace("role.csv", "big_role.csv"), encoding="utf-8"
    )
    (workdir / "ghost_config.yaml").write_text(
        _config_text(workdir)
        .replace("[role]", "[ghost]")
        .replace("  role:", "  ghost:"),
        encoding="utf-8",
    )
    (workdir / "empty.xes").write_text(EMPTY_XES, encoding="utf-8")
    (workdir / "truncated.xes").write_text(TRUNCATED_XES, encoding="utf-8")
    paths = {
        name: str(workdir / file)
        for name, file in {
            "log": "log.csv",
            "role": "role.csv",
            "out": "out.csv",
            "latin1_log": "latin1_log.csv",
            "latin1_hierarchy": "latin1_hierarchy.csv",
            "latin1_config": "latin1_config.yaml",
            "delimiter_config": "delimiter_config.yaml",
            "bool_k_config": "bool_k_config.yaml",
            "dup_header_log": "dup_header_log.csv",
            "dup_columns_config": "dup_columns_config.yaml",
            "big_log": "big_log.csv",
            "big_hierarchy_config": "big_hierarchy_config.yaml",
            "ghost_config": "ghost_config.yaml",
            "empty_xes": "empty.xes",
            "truncated_xes": "truncated.xes",
        }.items()
    }
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("pmdg: ") and err.count("\n") == 1
    assert "Traceback" not in err
