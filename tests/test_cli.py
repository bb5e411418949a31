import errno
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from pmdg import ConfigError, Event, read_log_csv, search, validate_k, vectorize_msa
from pmdg.cli import RunManifest, main, run_pipeline
from pmdg.logio import load_config
from pmdg.vectorize import STRATEGIES

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
    assert manifest.chosen_hierarchies == {
        "activity": {"path": str(workdir / "act.csv")},
        "attributes": {"role": {"path": str(workdir / "role.csv")}},
    }
    assert len(manifest.input_sha256) == 64
    assert len(manifest.config_sha256) == 64


@pytest.mark.parametrize(
    "name, activity_column", [("role", "activity"), ("activity", "act"), ("scores", "activity")]
)
def test_every_perspective_keeps_its_record_whatever_its_name(
    tmp_path, name, activity_column
):
    """With two candidates for each perspective, a quasi-identifier named
    ``activity`` or ``scores`` overwrites no record: the control flow and
    the attribute each keep their chosen path and every candidate's score,
    as under the name ``role``."""
    (tmp_path / "log.csv").write_text(
        CLINIC_CSV.replace("activity,role", f"{activity_column},{name}"), encoding="utf-8"
    )
    files = {
        "act.csv": ACTIVITY_H,
        "act_flat.csv": "".join(f"{row.split(',')[0]},⋆\n" for row in ACTIVITY_H.splitlines()),
        "role.csv": ROLE_H,
        "role_flat.csv": "Admin,⋆\nGP,⋆\nCA,⋆\n",
    }
    for file, text in files.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    (tmp_path / "config.yaml").write_text(
        "k: 2\n"
        f"quasi_identifiers: [{name}]\n"
        f"activity_hierarchies: [{tmp_path / 'act.csv'}, {tmp_path / 'act_flat.csv'}]\n"
        "attribute_hierarchies:\n"
        f"  {name}: [{tmp_path / 'role.csv'}, {tmp_path / 'role_flat.csv'}]\n"
        f"csv: {{activity_column: {activity_column}}}\n",
        encoding="utf-8",
    )
    manifest = run_pipeline(load_config(tmp_path / "config.yaml"), str(tmp_path / "log.csv"))

    def record(chosen, *scores):
        return {"path": str(tmp_path / chosen), "scores": [
            {"path": str(tmp_path / path), "total": total} for path, total in scores
        ]}

    assert manifest.chosen_hierarchies == {
        "activity": record("act.csv", ("act.csv", 2.0), ("act_flat.csv", 1.0)),
        "attributes": {name: record("role.csv", ("role.csv", 3.0), ("role_flat.csv", 1.0))},
    }


@pytest.mark.parametrize("k", [0, True])
def test_k_override_is_checked_as_the_config_checks_k(workdir, capsys, k):
    """``run_pipeline(k=...)`` raises what ``replace(config, k=...)`` raises,
    and ``anonymize --k 0`` and ``validate --k 0`` print the same line."""
    config = load_config(workdir / "config.yaml")
    with pytest.raises(ConfigError) as overridden:
        run_pipeline(config, str(workdir / "log.csv"), k=k)
    with pytest.raises(ConfigError) as replaced:
        replace(config, k=k)
    assert str(overridden.value) == str(replaced.value)
    log = str(workdir / "log.csv")
    lines = []
    for argv in (["anonymize", "--config", str(workdir / "config.yaml"),
                  "--out", str(workdir / "anon.csv")], ["validate"]):
        assert main([*argv, "--in", log, "--k", "0"]) == 2
        lines.append(capsys.readouterr().err)
    assert lines == ["pmdg: configuration error: k must be an integer >= 1, got 0\n"] * 2
    assert not (workdir / "anon.csv").exists()


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


def test_unwritable_report_stops_the_run_before_the_log_is_written(workdir, capsys):
    argv = ["anonymize", "--config", str(workdir / "config.yaml"),
            "--in", str(workdir / "log.csv")]
    out, report = workdir / "anon.csv", workdir / "no" / "run.json"
    assert main(argv + ["--out", str(out), "--report", str(report)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"pmdg: i/o error: cannot write {report}: ")
    assert err.count("\n") == 1 and not out.exists()

    # A log that cannot be written (here, a directory) leaves no empty
    # report behind.
    report = workdir / "run.json"
    assert main(argv + ["--out", str(workdir), "--report", str(report)]) == 5
    assert not report.exists()

    # Given one path for both, the file holds the report, written last.
    assert main(argv + ["--out", str(report), "--report", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["k"] == 2


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_report_refused_at_its_final_write_names_its_file(workdir, capsys):
    # ``/dev/full`` opens for writing but fails the write that ends the run.
    assert main(["anonymize", "--config", str(workdir / "config.yaml"),
                 "--in", str(workdir / "log.csv"), "--out", str(workdir / "anon.csv"),
                 "--report", "/dev/full"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("pmdg: i/o error: cannot write /dev/full: [Errno")
    assert err.count("\n") == 1


def _record_unlinks(monkeypatch):
    """Every unlink asked for from here on, recorded and not done."""
    unlinked = []
    for owner, name in ((os, "unlink"), (os, "remove"), (Path, "unlink")):
        monkeypatch.setattr(owner, name, lambda path, *_, **__: unlinked.append(str(path)))
    return unlinked


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="needs /dev/null")
def test_failed_run_removes_no_report_that_is_not_a_regular_file(workdir, monkeypatch, capsys):
    unlinked = _record_unlinks(monkeypatch)
    # A directory as the output fails at the write, after the report opened.
    assert main(["anonymize", "--config", str(workdir / "config.yaml"),
                 "--in", str(workdir / "log.csv"), "--out", str(workdir),
                 "--report", "/dev/null"]) == 5
    assert capsys.readouterr().err.startswith(f"pmdg: i/o error: cannot write {workdir}: ")
    assert unlinked == []


def test_report_refused_at_its_final_write_is_removed(workdir, monkeypatch, capsys):
    argv = ["anonymize", "--config", str(workdir / "config.yaml"),
            "--in", str(workdir / "log.csv"), "--out"]
    expected, out, report = workdir / "expected.csv", workdir / "anon.csv", workdir / "run.json"
    assert main(argv + [str(expected)]) == 0
    capsys.readouterr()

    def full(manifest):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(RunManifest, "to_json", full)
    assert main(argv + [str(out), "--report", str(report)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"pmdg: i/o error: cannot write {report}: ")
    assert err.count("\n") == 1
    assert not report.exists()
    assert out.read_bytes() == expected.read_bytes()


def test_input_path_that_is_not_utf8_round_trips_through_the_report(workdir):
    log = bytes(workdir) + b"/l\xffg.csv"
    try:
        Path(os.fsdecode(log)).write_bytes((workdir / "log.csv").read_bytes())
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    report = workdir / "run.json"
    done = subprocess.run(
        [sys.executable, "-m", "pmdg", "anonymize", "--config", str(workdir / "config.yaml"),
         "--in", log, "--out", str(workdir / "anon.csv"), "--report", str(report)],
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    assert os.fsencode(json.loads(report.read_text(encoding="utf-8"))["input_path"]) == log


EXHAUSTED = (
    "pmdg: warning: activity hierarchy exhausted: k=2 holds only with every activity "
    "generalized to the wildcard; control-flow classes below k hold 3 traces at level 1\n"
)


def _exhausting_run(tmp_path):
    """The start of an ``anonymize`` command line on three one-event cases
    with three activities, where only ``⋆`` makes k=2: the search warns."""
    (tmp_path / "log.csv").write_text("case,activity\n1,A\n2,B\n3,C\n", encoding="utf-8")
    (tmp_path / "act.csv").write_text("A,A,⋆\nB,B,⋆\nC,C,⋆\n", encoding="utf-8")
    (tmp_path / "config.yaml").write_text(
        f"k: 2\nactivity_hierarchies: [{tmp_path / 'act.csv'}]\n", encoding="utf-8"
    )
    return ["anonymize", "--config", str(tmp_path / "config.yaml"),
            "--in", str(tmp_path / "log.csv")]


def test_warning_is_one_pmdg_line_ahead_of_the_error(tmp_path, capsys):
    argv = [*_exhausting_run(tmp_path), "--out"]
    # A directory as the output fails only at the write, after the search.
    assert main([*argv, str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(EXHAUSTED)
    assert err[len(EXHAUSTED):].startswith(f"pmdg: i/o error: cannot write {tmp_path}: ")
    assert err.count("\n") == 2
    assert main([*argv, str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().err == EXHAUSTED


@pytest.mark.parametrize("option", ["--out", "--report"])
def test_missing_output_directory_stops_the_run_right_after_the_read(
    tmp_path, monkeypatch, capsys, option
):
    def refused(log):
        raise AssertionError("vectorized before the output directory was checked")

    monkeypatch.setattr("pmdg.cli.STRATEGIES", dict.fromkeys(STRATEGIES, refused))
    argv = _exhausting_run(tmp_path)
    given = sorted(tmp_path.iterdir())
    missing = tmp_path / "missing" / "a"
    paths = {"--out": tmp_path / "a.csv", "--report": tmp_path / "r.json", option: missing}
    assert main([*argv, *(str(part) for pair in paths.items() for part in pair)]) == 5
    err = capsys.readouterr().err
    # One line: the search, which would warn first, never ran.
    assert err.startswith(f"pmdg: i/o error: cannot write {missing}: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == given


@pytest.mark.parametrize("spelled, header", [("Cafe\u0301", "Caf\u00e9"),
                                             ("Caf\u00e9", "Cafe\u0301")])
def test_validate_columns_match_the_header_in_either_unicode_form(
    tmp_path, capsys, spelled, header
):
    path = tmp_path / "log.csv"
    path.write_text(f"case,activity,{header},x\n1,A,GP,y\n2,A,GP,z\n", encoding="utf-8")
    assert main(["validate", "--in", str(path), "--k", "2", "--attr", spelled,
                 "--columns", spelled]) == 0
    assert capsys.readouterr().err == ""


def test_validate_exit_codes(workdir, capsys):
    assert main([
        "validate", "--in", str(workdir / "log.csv"), "--k", "1", "--attr", "role",
    ]) == 0
    assert main([
        "validate", "--in", str(workdir / "log.csv"), "--k", "2", "--attr", "role",
    ]) == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--k", "1", "--attr", "ghost"], 3,
         "pmdg: data error: log has no attribute 'ghost'\n"),
        (["--k", "0"], 2,
         "pmdg: configuration error: k must be an integer >= 1, got 0\n"),
    ],
    ids=["data-error", "configuration-error"],
)
def test_exit_code_and_message_cross_the_process_boundary(workdir, argv, code, err):
    # ``python -m pmdg`` runs whichever package the child imports: the
    # source tree or an installed one, as ``PYTHONPATH`` says.
    done = subprocess.run(
        [sys.executable, "-m", "pmdg", "validate", "--in", str(workdir / "log.csv"), *argv],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert (done.returncode, done.stderr) == (code, err)


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


def test_handover_precision_follows_the_layout_not_the_width(tmp_path, capsys):
    # MSA aligns the short cases as A, ⋆, C and naive padding as A, C, ⋆:
    # both are 3 wide, yet only the MSA layout pairs by position.
    rows = [f"l{i},{a},{r}" for i in range(4) for a, r in (("A", "x"), ("B", "y"), ("C", "z"))]
    rows += [f"s{i},{a},{r}" for i in range(4) for a, r in (("A", "x"), ("C", "z"))]
    (tmp_path / "log.csv").write_text("case,activity,role\n" + "\n".join(rows) + "\n",
                                      encoding="utf-8")
    (tmp_path / "act.csv").write_text("A,A,⋆\nB,B,⋆\nC,C,⋆\n", encoding="utf-8")
    (tmp_path / "role.csv").write_text("x,g,⋆\ny,g,⋆\nz,g,⋆\n", encoding="utf-8")
    (tmp_path / "config.yaml").write_text(
        _config_text(tmp_path, k="4", extra="vectorization: msa\n"), encoding="utf-8"
    )
    manifest = run_pipeline(load_config(tmp_path / "config.yaml"), str(tmp_path / "log.csv"),
                            str(tmp_path / "anon.csv"))
    assert f"{manifest.handover_precision['role']:.1f}" == "100.0"
    for strategy in STRATEGIES:
        capsys.readouterr()
        assert main([
            "metrics", "handover-precision", "--in", str(tmp_path / "log.csv"),
            "--anonymized", str(tmp_path / "anon.csv"), "--attr", "role",
            "--hierarchy", str(tmp_path / "role.csv"), "--strategy", strategy,
        ]) == 0
        assert capsys.readouterr().out.strip() == "100.0", strategy


def test_unicode_case_id_forms_are_one_case(tmp_path, capsys):
    path = tmp_path / "forms.csv"
    path.write_text(
        "case,activity,role\nCaf\u00e9,A,GP\nCafe\u0301,B,GP\n", encoding="utf-8"
    )
    assert main(["metrics", "variants", "--in", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "1"
    assert "Traceback" not in captured.err


NFD_ROLE = "role\u0301"  # "rolé" in decomposed form


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["anonymize", "--config", "{config}", "--in", "{log}", "--out", "{out}"], 0),
        (["validate", "--in", "{log}", "--k", "1", "--attr", NFD_ROLE], 0),
        (["metrics", "handover-graph", "--in", "{log}", "--attr", NFD_ROLE], 0),
        (["metrics", "handover-precision", "--in", "{log}", "--anonymized", "{log}",
          "--attr", NFD_ROLE, "--hierarchy", "{role}"], 0),
        (["select-hierarchy", "--in", "{log}", "--perspective", NFD_ROLE,
          "--candidates", "{role}"], 0),
        # The two forms of one name, as two keys, would hide one hierarchy.
        (["anonymize", "--config", "{both}", "--in", "{log}", "--out", "{out}"], 2),
    ],
    ids=["anonymize", "validate", "handover-graph", "handover-precision",
         "select-hierarchy", "config-both-forms"],
)
def test_decomposed_attribute_name_matches_the_header(workdir, capsys, argv, expected):
    # The readers store the header NFC-normalized; names from the config
    # and the command line must be normalized the same way to match it.
    (workdir / "log.csv").write_text(
        CLINIC_CSV.replace("role", NFD_ROLE, 1), encoding="utf-8"
    )
    config = _config_text(workdir).replace("[role]", f"[{NFD_ROLE}]")
    config = config.replace("  role:", f"  {NFD_ROLE}:")
    (workdir / "config.yaml").write_text(config, encoding="utf-8")
    both = config + f"  rol\u00e9: [{workdir / 'role.csv'}]\n"
    (workdir / "both.yaml").write_text(both, encoding="utf-8")
    paths = {"config": "config.yaml", "both": "both.yaml", "log": "log.csv",
             "out": "out.csv", "role": "role.csv"}
    argv = [arg.format(**{key: workdir / name for key, name in paths.items()})
            for arg in argv]
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err


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
    ("select-negative-weight",
     ["select-hierarchy", "--in", "{log}", "--perspective", "role",
      "--candidates", "{role}", "--weights=-1"], 2),
    ("select-nan-weight",
     ["select-hierarchy", "--in", "{log}", "--perspective", "role",
      "--candidates", "{role}", "--weights", "nan"], 2),
    ("select-inf-weight",
     ["select-hierarchy", "--in", "{log}", "--perspective", "role",
      "--candidates", "{role}", "--weights", "inf"], 2),
    ("inf-weight-config",
     ["anonymize", "--config", "{inf_weight_config}", "--in", "{log}", "--out", "{out}"],
     2),
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
    # Characters the ``csv`` module rejects as a delimiter on some Pythons.
    ("delimiter-quote-flag",
     ["validate", "--in", "{log}", "--k", "1", "--delimiter", '"'], 2),
    ("delimiter-newline-flag",
     ["validate", "--in", "{log}", "--k", "1", "--delimiter", "\n"], 2),
    ("delimiter-return-flag",
     ["validate", "--in", "{log}", "--k", "1", "--delimiter", "\r"], 2),
    # PyYAML's message spans lines; it is printed on one.
    ("yaml-syntax-config",
     ["anonymize", "--config", "{yaml_syntax_config}", "--in", "{log}", "--out", "{out}"],
     2),
    ("delimiter-config",
     ["anonymize", "--config", "{delimiter_config}", "--in", "{log}", "--out", "{out}"],
     2),
    ("k-true-config",
     ["anonymize", "--config", "{bool_k_config}", "--in", "{log}", "--out", "{out}"], 2),
    ("duplicate-header", ["metrics", "variants", "--in", "{dup_header_log}"], 3),
    ("duplicate-header-unicode-forms",
     ["metrics", "variants", "--in", "{nfc_dup_header_log}"], 3),
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
    ("non-string-attribute-key-config",
     ["anonymize", "--config", "{int_key_config}", "--in", "{log}", "--out", "{out}"], 2),
    ("mixed-unknown-keys-config",
     ["anonymize", "--config", "{mixed_keys_config}", "--in", "{log}", "--out", "{out}"],
     2),
    ("empty-wildcard-literal",
     ["validate", "--in", "{log}", "--k", "1", "--wildcard-literal", ""], 2),
    # A missing cell would be written as ``⊥`` and read back as ``⋆``.
    ("missing-literal-as-wildcard",
     ["vectorize", "--in", "{log}", "--out", "{out}", "--wildcard-literal", "\u22a5"], 2),
    ("empty-xes", ["validate", "--in", "{empty_xes}", "--k", "2"], 3),
    ("truncated-xes", ["validate", "--in", "{truncated_xes}", "--k", "2"], 3),
    ("key-column-as-attribute-flag",
     ["vectorize", "--in", "{log}", "--out", "{out}", "--columns", "activity,role"], 2),
    ("case-column-is-activity-column",
     ["metrics", "variants", "--in", "{log}", "--case-column", "activity"], 2),
    ("xes-attribute-named-case",
     ["vectorize", "--in", "{case_attribute_xes}", "--out", "{out}"], 3),
]

# Every root child is empty or not a trace: no events at all.
EMPTY_XES = (
    '<log xmlns="http://www.xes-standard.org/">'
    '<string key="concept:name" value="log"/><trace/>'
    '<trace><string key="concept:name" value="c1"/></trace></log>'
)
# An event attribute named like the CSV case column.
CASE_ATTRIBUTE_XES = (
    '<log><trace><string key="concept:name" value="c1"/><event>'
    '<string key="concept:name" value="A"/><string key="case" value="x"/>'
    "</event></trace></log>"
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
    (workdir / "yaml_syntax_config.yaml").write_text("k: [\n", encoding="utf-8")
    (workdir / "bool_k_config.yaml").write_text(
        _config_text(workdir, k="true"), encoding="utf-8"
    )
    (workdir / "inf_weight_config.yaml").write_text(
        _config_text(workdir, extra="level_weights: [.inf]\n"), encoding="utf-8"
    )
    (workdir / "dup_header_log.csv").write_text(
        "case,activity,role,role\n1,A,GP,GP\n", encoding="utf-8"
    )
    (workdir / "nfc_dup_header_log.csv").write_text(
        "case,activity,\u00e9,e\u0301\n1,A,GP,GP\n", encoding="utf-8"
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
    (workdir / "int_key_config.yaml").write_text(
        _config_text(workdir, extra=f"  1: [{workdir / 'role.csv'}]\n"), encoding="utf-8"
    )
    (workdir / "mixed_keys_config.yaml").write_text(
        _config_text(workdir, extra="1: x\nsurprise: y\n"), encoding="utf-8"
    )
    (workdir / "empty.xes").write_text(EMPTY_XES, encoding="utf-8")
    (workdir / "truncated.xes").write_text(TRUNCATED_XES, encoding="utf-8")
    (workdir / "case_attribute.xes").write_text(CASE_ATTRIBUTE_XES, encoding="utf-8")
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
            "yaml_syntax_config": "yaml_syntax_config.yaml",
            "bool_k_config": "bool_k_config.yaml",
            "inf_weight_config": "inf_weight_config.yaml",
            "dup_header_log": "dup_header_log.csv",
            "nfc_dup_header_log": "nfc_dup_header_log.csv",
            "dup_columns_config": "dup_columns_config.yaml",
            "big_log": "big_log.csv",
            "big_hierarchy_config": "big_hierarchy_config.yaml",
            "ghost_config": "ghost_config.yaml",
            "int_key_config": "int_key_config.yaml",
            "mixed_keys_config": "mixed_keys_config.yaml",
            "empty_xes": "empty.xes",
            "truncated_xes": "truncated.xes",
            "case_attribute_xes": "case_attribute.xes",
        }.items()
    }
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("pmdg: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (workdir / "out.csv").exists()  # a failed run writes no output


LATIN1_LOG = b"case,activity,role\n1,Caf\xe9,GP\n"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xe9 in position"
CONFIG_KEYS = "k: 2\nactivity_hierarchies: [x]\n"
ANONYMIZE = ["anonymize", "--config", "{d}/config.yaml", "--in", "{d}/log.csv",
             "--out", "{d}/out.csv"]
# Each file failure: the files it adds to ``workdir``, the command line,
# the exit code and the exact stderr, with ``{d}`` for ``workdir``.  An
# ``OSError``'s own text varies by platform, so a message ending in
# ``[Errno`` is checked up to there.
FILE_FAILURES = [
    ("log-blank-line", {"blank.csv": "case,activity,role\n\n1,A,GP\n"},
     ["validate", "--in", "{d}/blank.csv", "--k", "1"], 0, ""),
    ("log-missing", {}, ["validate", "--in", "{d}/missing.csv", "--k", "1"], 5,
     "pmdg: i/o error: cannot read {d}/missing.csv: [Errno"),
    ("log-not-utf8", {"latin1.csv": LATIN1_LOG},
     ["metrics", "variants", "--in", "{d}/latin1.csv"], 3,
     f"pmdg: parse error: {{d}}/latin1.csv: not valid UTF-8: {NOT_UTF8} 24: "
     "invalid continuation byte\n"),
    ("log-malformed-csv", {"big.csv": f"case,activity\n1,{OVERSIZED_CELL}\n"},
     ["metrics", "variants", "--in", "{d}/big.csv"], 3,
     "pmdg: parse error: {d}/big.csv: malformed CSV: field larger than field limit "
     "(131072)\n"),
    ("log-empty-file", {"empty.csv": ""}, ["metrics", "variants", "--in", "{d}/empty.csv"],
     3, "pmdg: parse error: {d}/empty.csv: file is empty\n"),
    ("log-header-only", {"header.csv": "case,activity\n"},
     ["metrics", "variants", "--in", "{d}/header.csv"], 3,
     "pmdg: parse error: {d}/header.csv: no event rows\n"),
    ("log-repeated-header", {"dup.csv": "case,activity,a,a\n1,A,x,y\n"},
     ["metrics", "variants", "--in", "{d}/dup.csv"], 3,
     "pmdg: parse error: {d}/dup.csv: header repeats a column name: "
     "['case', 'activity', 'a', 'a']\n"),
    ("log-missing-column", {"nokey.csv": "case,role\n1,GP\n"},
     ["metrics", "variants", "--in", "{d}/nokey.csv"], 3,
     "pmdg: parse error: {d}/nokey.csv: header has no column 'activity'\n"),
    ("log-ragged-row", {"ragged.csv": "case,activity,role\n1,A\n"},
     ["metrics", "variants", "--in", "{d}/ragged.csv"], 3,
     "pmdg: parse error: {d}/ragged.csv: line 2 has 2 cells, expected 3\n"),
    ("xes-missing", {}, ["validate", "--in", "{d}/missing.xes", "--k", "1"], 5,
     "pmdg: i/o error: cannot read {d}/missing.xes: [Errno"),
    ("xes-undefined-entity",
     {"entity.xes": '<!DOCTYPE log SYSTEM "x.dtd"><log><trace><event>'
                    '<string key="concept:name" value="A"/>&foo;</event></trace></log>'},
     ["validate", "--in", "{d}/entity.xes", "--k", "1"], 3,
     "pmdg: parse error: {d}/entity.xes: undefined entity &foo;\n"),
    ("xes-truncated", {"cut.xes": TRUNCATED_XES},
     ["validate", "--in", "{d}/cut.xes", "--k", "1"], 3,
     "pmdg: parse error: {d}/cut.xes: no element found: line 1, column 125\n"),
    ("xes-nameless-event",
     {"nameless.xes": '<log><trace><string key="concept:name" value="c1"/>'
                      "<event/></trace></log>"},
     ["validate", "--in", "{d}/nameless.xes", "--k", "1"], 3,
     "pmdg: parse error: {d}/nameless.xes: event without concept:name in trace 'c1'\n"),
    ("xes-no-events", {"empty.xes": EMPTY_XES},
     ["validate", "--in", "{d}/empty.xes", "--k", "1"], 3,
     "pmdg: parse error: {d}/empty.xes: no events\n"),
    ("hierarchy-missing", {},
     ["select-hierarchy", "--in", "{d}/log.csv", "--perspective", "role",
      "--candidates", "{d}/missing.csv"], 5,
     "pmdg: i/o error: cannot read {d}/missing.csv: [Errno"),
    ("hierarchy-not-utf8", {"latin1.csv": b"Admin,Adm\xefn,*\n"},
     ["select-hierarchy", "--in", "{d}/log.csv", "--perspective", "role",
      "--candidates", "{d}/latin1.csv"], 3,
     f"pmdg: parse error: {{d}}/latin1.csv: not valid UTF-8: "
     f"{NOT_UTF8.replace('e9', 'ef')} 9: invalid continuation byte\n"),
    ("hierarchy-malformed-csv", {"big.csv": f"{OVERSIZED_CELL},⋆\n"},
     ["select-hierarchy", "--in", "{d}/log.csv", "--perspective", "role",
      "--candidates", "{d}/big.csv"], 3,
     "pmdg: parse error: {d}/big.csv: malformed CSV: field larger than field limit "
     "(131072)\n"),
    ("hierarchy-no-root", {"rootless.csv": "GP,Staff\n"},
     ["select-hierarchy", "--in", "{d}/log.csv", "--perspective", "role",
      "--candidates", "{d}/rootless.csv"], 3,
     "pmdg: parse error: {d}/rootless.csv: row 1 ends in 'Staff', expected the "
     "wildcard '⋆'\n"),
    ("hierarchy-empty-cell", {"role.csv": "Admin,,⋆\nGP,,⋆\nCA,,⋆\n"}, ANONYMIZE, 3,
     "pmdg: parse error: {d}/role.csv: row 1 has an empty cell\n"),
    ("hierarchy-empty", {"empty.csv": "\n"},
     ["select-hierarchy", "--in", "{d}/log.csv", "--perspective", "role",
      "--candidates", "{d}/empty.csv"], 3,
     "pmdg: parse error: {d}/empty.csv: hierarchy table has no rows\n"),
    ("config-missing", {}, [*ANONYMIZE[:2], "{d}/missing.yaml", *ANONYMIZE[3:]], 5,
     "pmdg: i/o error: cannot read {d}/missing.yaml: [Errno"),
    ("config-not-utf8", {"config.yaml": b"k: 2\n# caf\xe9\n"}, ANONYMIZE, 2,
     f"pmdg: configuration error: {{d}}/config.yaml: not valid UTF-8: {NOT_UTF8} 10: "
     "invalid continuation byte\n"),
    ("config-not-a-mapping", {"config.yaml": "- 2\n"}, ANONYMIZE, 2,
     "pmdg: configuration error: {d}/config.yaml: top level must be a mapping\n"),
    ("config-bad-k", {"config.yaml": CONFIG_KEYS.replace("2", "0")}, ANONYMIZE, 2,
     "pmdg: configuration error: {d}/config.yaml: k must be an integer >= 1, got 0\n"),
    ("config-bad-csv", {"config.yaml": CONFIG_KEYS + "csv: {case_column: activity}\n"},
     ANONYMIZE, 2,
     "pmdg: configuration error: {d}/config.yaml: case and activity column are both "
     "'activity'\n"),
    ("out-is-a-directory", {}, ["vectorize", "--in", "{d}/log.csv", "--out", "{d}"], 5,
     "pmdg: i/o error: cannot write {d}: [Errno"),
    ("out-in-missing-directory", {},
     ["preprocess", "--in", "{d}/log.csv", "--out", "{d}/no/out.csv"], 5,
     "pmdg: i/o error: cannot write {d}/no/out.csv: [Errno"),
    ("dot-is-a-directory", {},
     ["metrics", "handover-graph", "--in", "{d}/log.csv", "--attr", "role", "--dot", "{d}"],
     5, "pmdg: i/o error: cannot write {d}: [Errno"),
    ("report-is-a-directory", {}, [*ANONYMIZE, "--report", "{d}"], 5,
     "pmdg: i/o error: cannot write {d}: [Errno"),
]


@pytest.mark.parametrize(
    "files, argv, code, err", [row[1:] for row in FILE_FAILURES],
    ids=[row[0] for row in FILE_FAILURES],
)
def test_file_failure_exit_code_and_exact_message(workdir, capsys, files, argv, code, err):
    for name, content in files.items():
        if isinstance(content, bytes):
            (workdir / name).write_bytes(content)
        else:
            (workdir / name).write_text(content, encoding="utf-8")
    assert main([arg.format(d=workdir) for arg in argv]) == code
    printed = capsys.readouterr().err
    err = err.format(d=workdir)
    if err.endswith("[Errno"):
        assert printed.startswith(err) and printed.count("\n") == 1, printed
    else:
        assert printed == err
    assert not (workdir / "out.csv").exists()  # a failed run writes no log


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--in", "{log}", "--k", "1", "--attr", "role,zz", "--attr", "ghost"],
         "log has no attribute 'zz'"),
        (["anonymize", "--config", "{config}", "--in", "{log}", "--out", "{out}"],
         "log has no attribute 'zz'"),
        (["metrics", "handover-graph", "--in", "{log}", "--attr", "zz"],
         "log has no attribute 'zz'"),
        (["metrics", "handover-precision", "--in", "{log}", "--anonymized", "{log}",
          "--attr", "zz", "--hierarchy", "{role}"],
         "original log has no attribute 'zz'"),
        (["select-hierarchy", "--in", "{log}", "--perspective", "zz",
          "--candidates", "{role}"],
         "log has no attribute 'zz'"),
    ],
    ids=["validate", "anonymize", "handover-graph", "handover-precision",
         "select-hierarchy"],
)
def test_unknown_attribute_exits_3_naming_the_first(workdir, capsys, argv, message):
    # Names are checked in the order given: ``zz`` before ``ghost``.
    hierarchy = f"[{workdir / 'role.csv'}]"
    (workdir / "config.yaml").write_text(
        _config_text(workdir, extra=f"  zz: {hierarchy}\n  ghost: {hierarchy}\n")
        .replace("[role]", "[role, zz, ghost]"),
        encoding="utf-8",
    )
    paths = {"config": "config.yaml", "log": "log.csv", "out": "out.csv",
             "role": "role.csv"}
    code = main([arg.format(**{key: workdir / name for key, name in paths.items()})
                 for arg in argv])
    assert code == 3
    assert capsys.readouterr().err == f"pmdg: data error: {message}\n"
    assert not (workdir / "out.csv").exists()


def test_handover_precision_checks_the_attribute_before_other_work(workdir, monkeypatch, capsys):
    # Neither the hierarchy (which does not exist) nor the vectorization
    # is reached: the attribute is checked right after both logs are read.
    def refused(log):
        raise AssertionError("vectorized before the attribute was checked")

    monkeypatch.setattr("pmdg.cli.STRATEGIES", {"msa": refused})
    log = str(workdir / "log.csv")
    assert main(["metrics", "handover-precision", "--in", log, "--anonymized", log,
                 "--attr", "ghost", "--hierarchy", str(workdir / "absent.csv")]) == 3
    assert capsys.readouterr().err == (
        "pmdg: data error: original log has no attribute 'ghost'\n"
    )


def test_run_pipeline_frees_the_read_log_before_the_search(workdir, monkeypatch):
    handed, msa = [], STRATEGIES["msa"]

    def recorded(log):
        handed.append(weakref.ref(log))
        return msa(log)

    def checked(*args, **kwargs):
        assert [ref() for ref in handed] == [None]
        return search(*args, **kwargs)

    monkeypatch.setitem(STRATEGIES, "msa", recorded)
    monkeypatch.setattr("pmdg.cli.search", checked)
    manifest = run_pipeline(load_config(workdir / "config.yaml"), str(workdir / "log.csv"))
    assert manifest.variants_input == 2 and len(handed) == 1


# A nurse whose only event the activity level masks: ``Triage`` maps to
# ``⋆`` at level 1, which k = 3 needs.
MASKED_NURSE_CSV = (
    "case,activity,role\n"
    "07,Register,Admin\n07,Vitals,GP\n"
    "08,Triage,Nurse\n"
    "09,Register,Admin\n09,Vitals,GP\n"
)


@pytest.mark.parametrize(
    "log, second_candidate, k, message",
    [
        # One candidate per perspective: phase 1 meets the activity first.
        (CLINIC_CSV + "09,Register,Admin\n09,Triage,GP\n", None, "1",
         "'Triage' is not a leaf of the activity hierarchy"),
        # Two activity candidates: hierarchy selection meets it first.
        (CLINIC_CSV + "09,Register,Admin\n09,Triage,GP\n", "activity", "1",
         "'Triage' is not a leaf of the activity hierarchy"),
        # One candidate: search looks up every role before phase 2.
        (CLINIC_CSV + "09,Register,Admin\n09,Consultation,Nurse\n", None, "1",
         "'Nurse' is not a leaf of the role hierarchy"),
        # Two role candidates: hierarchy selection meets it first.
        (CLINIC_CSV + "09,Register,Admin\n09,Consultation,Nurse\n", "role", "1",
         "'Nurse' is not a leaf of the role hierarchy"),
        # The unknown role stands where the activity is masked: the same
        # error whatever k is.
        (MASKED_NURSE_CSV, None, "1", "'Nurse' is not a leaf of the role hierarchy"),
        (MASKED_NURSE_CSV, None, "3", "'Nurse' is not a leaf of the role hierarchy"),
    ],
    ids=["activity-phase1", "activity-selection", "role-phase2", "role-selection",
         "role-masked-k1", "role-masked-k3"],
)
def test_unknown_value_exits_3_with_one_message(
    workdir, capsys, log, second_candidate, k, message
):
    (workdir / "log.csv").write_text(log, encoding="utf-8")
    if log == MASKED_NURSE_CSV:
        (workdir / "act.csv").write_text(ACTIVITY_H + "Triage,⋆,⋆\n", encoding="utf-8")
    (workdir / "act2.csv").write_text(
        "".join(f"{line.split(',')[0]},⋆\n" for line in ACTIVITY_H.splitlines()),
        encoding="utf-8",
    )
    (workdir / "role2.csv").write_text(
        "Admin,Staff,⋆\nGP,Staff,⋆\nCA,Staff,⋆\n", encoding="utf-8"
    )
    config = _config_text(workdir)
    if second_candidate == "activity":
        config = config.replace("act.csv]", f"act.csv, {workdir / 'act2.csv'}]")
    elif second_candidate == "role":
        config = config.replace("role.csv]", f"role.csv, {workdir / 'role2.csv'}]")
    (workdir / "config.yaml").write_text(config, encoding="utf-8")
    code = main([
        "anonymize", "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.csv"), "--out", str(workdir / "o.csv"), "--k", k,
    ])
    assert code == 3
    assert capsys.readouterr().err == f"pmdg: data error: {message}\n"


CLINIC_XES = (
    '<log xmlns="http://www.xes-standard.org/">'
    + "".join(
        f'<trace><string key="concept:name" value="{case}"/>'
        + "".join(
            f'<event><string key="concept:name" value="{activity}"/>'
            f'<string key="role" value="{role}"/></event>'
            for activity, role in events
        )
        + "</trace>"
        for case, events in (
            ("07", [("Register", "Admin"), ("Vitals", "GP"),
                    ("Consultation", "GP"), ("CT Scan", "CA")]),
            ("08", [("Register", "Admin"), ("Consultation", "CA"), ("MRI Scan", "CA")]),
        )
    )
    + "</log>"
)


def test_run_pipeline_builds_no_event(workdir, monkeypatch):
    built = []
    post_init = Event.__post_init__

    def counted(event):
        built.append(event)
        post_init(event)

    monkeypatch.setattr(Event, "__post_init__", counted)
    (workdir / "log.xes").write_text(CLINIC_XES, encoding="utf-8")
    config = load_config(workdir / "config.yaml")
    outputs = []
    for name in ("log.csv", "log.xes"):
        out = workdir / f"out-{name}.csv"
        manifest = run_pipeline(config, str(workdir / name), str(out))
        outputs.append(out.read_bytes())
        assert manifest.min_class_size == 2
    assert built == []
    assert outputs[0] == outputs[1]
    Event("A")  # the count sees a construction
    assert len(built) == 1


def _refuses_unwritable_log(workdir, monkeypatch, capsys, xes, columns, fault):
    """``anonymize`` stops right after the read (nothing is vectorized or
    written) and ``vectorize`` before it opens its output, both with exit
    3; without an output file the run goes on."""
    (workdir / "log.xes").write_text(xes, encoding="utf-8")
    if columns is not None:
        (workdir / "config.yaml").write_text(
            _config_text(workdir, extra=f"csv: {{attribute_columns: {columns}}}\n"),
            encoding="utf-8",
        )
    vectorized, msa = [], STRATEGIES["msa"]

    def recorded(log):
        vectorized.append(log)
        return msa(log)

    monkeypatch.setitem(STRATEGIES, "msa", recorded)
    out = workdir / "anon.csv"
    code = main([
        "anonymize", "--config", str(workdir / "config.yaml"),
        "--in", str(workdir / "log.xes"), "--out", str(out),
    ])
    assert code == 3
    assert capsys.readouterr().err == f"pmdg: data error: cannot write {out}: {fault}\n"
    assert vectorized == [] and not out.exists()
    out = workdir / "vec.csv"
    argv = ["vectorize", "--in", str(workdir / "log.xes"), "--out", str(out)]
    if columns is not None:
        argv += ["--columns", ",".join(columns)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"pmdg: data error: cannot write {out}: {fault}\n"
    assert len(vectorized) == 1 and not out.exists()
    run_pipeline(load_config(workdir / "config.yaml"), str(workdir / "log.xes"))
    assert len(vectorized) == 2


def test_run_pipeline_refuses_unwritable_log_before_any_stage(workdir, monkeypatch, capsys):
    # An XES attribute named ``case`` cannot become a CSV column.
    xes = CLINIC_XES.replace(
        '<string key="role"', '<string key="case" value="x"/><string key="role"'
    )
    _refuses_unwritable_log(
        workdir, monkeypatch, capsys, xes, None, "attribute 'case' names a key column"
    )


def test_run_pipeline_refuses_log_without_a_written_attribute(workdir, monkeypatch, capsys):
    # A CSV column that the XES log lacks cannot be filled.
    _refuses_unwritable_log(
        workdir, monkeypatch, capsys, CLINIC_XES, ["role", "dept"],
        "log has no attribute 'dept'",
    )
