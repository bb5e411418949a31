import random

import pytest

from pmdg import (
    MISSING,
    WILDCARD,
    ConfigError,
    EmptyLog,
    Event,
    EventLog,
    InconsistentDepth,
    LogCsvSpec,
    MalformedXml,
    MissingColumn,
    MissingConceptName,
    RaggedRow,
    Trace,
    load_config,
    read_hierarchy,
    read_log_csv,
    read_log_xes,
    vectorize_msa,
    vectorize_naive,
    write_log_csv,
)

from helpers import random_instance


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_log_csv_happy_path(tmp_path):
    path = write(
        tmp_path / "log.csv",
        "case,activity,role\n"
        "1,Register,Admin\n"
        "1,Consultation,GP\n"
        "2,Register,Admin\n",
    )
    log = read_log_csv(path)
    assert log.schema == ("role",)
    assert [t.case_id for t in log.traces] == ["1", "2"]
    assert [e.activity for e in log.traces[0]] == ["Register", "Consultation"]
    assert [e.origin_index for e in log.traces[0]] == [0, 1]


def test_read_log_csv_interleaved_cases_group_by_first_appearance(tmp_path):
    path = write(
        tmp_path / "log.csv",
        "case,activity,role\n1,A,x\n2,B,y\n1,C,z\n",
    )
    log = read_log_csv(path)
    assert [t.case_id for t in log.traces] == ["1", "2"]
    assert [e.activity for e in log.traces[0]] == ["A", "C"]


def test_read_log_csv_errors(tmp_path):
    with pytest.raises(MissingColumn):
        read_log_csv(write(tmp_path / "a.csv", "id,activity,role\n1,A,x\n"))
    with pytest.raises(MissingColumn):
        read_log_csv(
            write(tmp_path / "b.csv", "case,activity\n1,A\n"),
            LogCsvSpec(attribute_columns=("role",)),
        )
    with pytest.raises(RaggedRow) as excinfo:
        read_log_csv(write(tmp_path / "c.csv", "case,activity,role\n1,A,x\n1,B\n"))
    assert "line 3" in str(excinfo.value)
    with pytest.raises(EmptyLog):
        read_log_csv(write(tmp_path / "d.csv", "case,activity,role\n"))
    with pytest.raises(EmptyLog):
        read_log_csv(write(tmp_path / "e.csv", ""))


def test_read_log_csv_wildcard_and_missing_literals(tmp_path):
    path = write(
        tmp_path / "log.csv",
        "case,activity,role\n1,A,\n1,*,*\n1,B,*\n",
    )
    log = read_log_csv(path, wildcard="*")
    events = log.traces[0].events
    assert events[0].attributes["role"] == MISSING
    assert events[1].is_wildcard
    assert events[1].origin_index is None
    # Real event with a wildcard attribute value only.
    assert events[2].activity == "B"
    assert events[2].attributes["role"] == WILDCARD
    assert [e.origin_index for e in events] == [0, None, 1]


def test_csv_round_trip_raw_and_vectorized(tmp_path):
    rng = random.Random(11)
    for i in range(10):
        log, _, _ = random_instance(rng)
        first = tmp_path / f"raw{i}.csv"
        write_log_csv(log, first)
        parsed = read_log_csv(first)
        again = tmp_path / f"again{i}.csv"
        write_log_csv(parsed, again)
        assert read_log_csv(again) == parsed
        assert first.read_bytes() == again.read_bytes()
        for strategy in (vectorize_naive, vectorize_msa):
            vectorized = strategy(parsed)
            out = tmp_path / f"vec{i}.csv"
            write_log_csv(vectorized, out)
            assert read_log_csv(out) == vectorized


def test_write_log_csv_uses_custom_wildcard_literal(tmp_path):
    log = EventLog(
        schema=("r",),
        traces=(
            Trace("1", (Event("A", {"r": "x"}, origin_index=0),
                        Event(WILDCARD, {"r": WILDCARD}))),
        ),
    )
    path = tmp_path / "log.csv"
    write_log_csv(log, path, wildcard="*")
    assert "*,*" in path.read_text(encoding="utf-8")
    assert read_log_csv(path, wildcard="*") == log


def test_write_log_csv_quotes_delimiters(tmp_path):
    log = EventLog(
        schema=("r",),
        traces=(Trace("1", (Event('A,"B"', {"r": "x,y"}, origin_index=0),)),),
    )
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    assert read_log_csv(path) == log


XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="case1"/>
    <event>
      <string key="concept:name" value="Register"/>
      <string key="org:role" value="Admin"/>
      <date key="time:timestamp" value="2013-01-01T00:00:00.000+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="Scan"/>
      <string key="org:role" value="CA"/>
      <string key="location" value="Hospital"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="case2"/>
    <event>
      <string key="concept:name" value="Register"/>
      <string key="org:role" value="Admin"/>
    </event>
  </trace>
</log>
"""


def test_read_log_xes(tmp_path):
    path = write(tmp_path / "log.xes", XES)
    log = read_log_xes(path)
    assert log.schema == ("org:role", "location")
    assert [t.case_id for t in log.traces] == ["case1", "case2"]
    first, second = log.traces[0].events
    assert first.activity == "Register"
    assert first.attributes == {"org:role": "Admin", "location": MISSING}
    assert second.attributes["location"] == "Hospital"
    assert [e.origin_index for e in log.traces[0]] == [0, 1]


def test_read_log_xes_without_namespace(tmp_path):
    plain = XES.replace(' xmlns="http://www.xes-standard.org/"', "")
    log = read_log_xes(write(tmp_path / "plain.xes", plain))
    assert [t.case_id for t in log.traces] == ["case1", "case2"]


def test_read_log_xes_duplicate_case_names(tmp_path):
    doubled = XES.replace('value="case2"', 'value="case1"')
    log = read_log_xes(write(tmp_path / "dup.xes", doubled))
    assert [t.case_id for t in log.traces] == ["case1", "case1~2"]
    # The suffix skips an id that a later trace already uses.
    clash = doubled.replace(
        "</log>",
        '<trace><string key="concept:name" value="case1~2"/>'
        '<event><string key="concept:name" value="Scan"/></event></trace></log>',
    )
    log = read_log_xes(write(tmp_path / "clash.xes", clash))
    assert [t.case_id for t in log.traces] == ["case1", "case1~3", "case1~2"]


def test_read_log_xes_errors(tmp_path):
    with pytest.raises(MalformedXml):
        read_log_xes(write(tmp_path / "bad.xes", "<log><trace>"))
    # Cut mid-trace, after two complete traces.
    text = XES.replace("</log>", XES[XES.index("<trace>"):XES.index("</log>")] + "</log>")
    cut = text.index("Hospital", text.index("case1", text.index("case2")))
    with pytest.raises(MalformedXml):
        read_log_xes(write(tmp_path / "cut.xes", text[:cut]))
    headless = XES.replace('<string key="concept:name" value="Scan"/>', "")
    with pytest.raises(MissingConceptName):
        read_log_xes(write(tmp_path / "nameless.xes", headless))


def test_read_log_xes_without_events_is_empty(tmp_path):
    for text in (
        "<log/>",
        '<log><trace/><trace><string key="concept:name" value="c"/></trace></log>',
    ):
        with pytest.raises(EmptyLog):
            read_log_xes(write(tmp_path / "empty.xes", text))


def test_read_log_xes_header_elements_and_nested_traces(tmp_path):
    text = """<log xmlns="http://www.xes-standard.org/">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event"><string key="concept:name" value="__INVALID__"/></global>
  <string key="concept:name" value="the log"/>
  <trace>
    <event><string key="concept:name" value="A"/><string key="unit" value="u1"/></event>
    <trace><event><string key="concept:name" value="N"/><string key="deep" value="d"/></event></trace>
    <event><string key="concept:name" value="B"/><string key="role" value="r1"/></event>
  </trace>
  <trace>
    <event><string key="concept:name" value="C"/><string key="role" value="r2"/></event>
  </trace>
</log>
"""
    log = read_log_xes(write(tmp_path / "header.xes", text))
    assert log.schema == ("unit", "role")
    assert [t.case_id for t in log.traces] == ["trace_3", "trace_4"]
    assert [[e.activity for e in t] for t in log.traces] == [["A", "B"], ["C"]]
    assert log.traces[0].events[1].attributes == {"unit": MISSING, "role": "r1"}


def test_read_hierarchy(tmp_path):
    path = write(
        tmp_path / "h.csv",
        "GP,Medical Staff,⋆\nCA,Medical Staff,⋆\nAdmin,Admin,⋆\n",
    )
    table = read_hierarchy(path)
    assert table.depth == 2
    assert table.leaves == ("GP", "CA", "Admin")


def test_read_hierarchy_custom_wildcard(tmp_path):
    path = write(tmp_path / "h.csv", "a,g,*\nb,g,*\n")
    table = read_hierarchy(path, wildcard="*")
    assert table.rows[0] == ("a", "g", WILDCARD)


def test_read_hierarchy_reports_path_on_error(tmp_path):
    path = write(tmp_path / "h.csv", "a,g,⋆\nb,⋆\n")
    with pytest.raises(InconsistentDepth) as excinfo:
        read_hierarchy(path)
    assert "h.csv" in str(excinfo.value)


def test_load_config(tmp_path):
    path = write(
        tmp_path / "c.yaml",
        """
k: 5
quasi_identifiers: [role]
activity_hierarchies: [act.csv]
attribute_hierarchies:
  role: [role_a.csv, role_b.csv]
vectorization: naive
utility_notion: size_balance
level_weights: [1, 0.5]
drop_singletons: true
csv:
  case_column: case:id
  delimiter: ";"
""",
    )
    config = load_config(path)
    assert config.k == 5
    assert config.quasi_identifiers == ("role",)
    assert config.attribute_hierarchies["role"] == ("role_a.csv", "role_b.csv")
    assert config.vectorization == "naive"
    assert config.level_weights == (1.0, 0.5)
    assert config.drop_singletons is True
    assert config.csv.case_column == "case:id"
    assert config.csv.delimiter == ";"


@pytest.mark.parametrize(
    "snippet",
    [
        "k: 0\nactivity_hierarchies: [a.csv]\n",
        "k: two\nactivity_hierarchies: [a.csv]\n",
        "k: 2\n",
        "k: 2\nactivity_hierarchies: []\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nquasi_identifiers: [role]\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nvectorization: fancy\n",
        "k: 2\nvectorization: [msa]\nactivity_hierarchies: [a.csv]\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nutility_notion: vibes\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nlevel_weights: [-1]\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nlevel_weights: []\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nlevel_weights: [true]\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nsurprise: 1\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {separator: x}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {case_column: 5}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {case_column: [case]}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {activity_column: 7}\n",
        "- just\n- a\n- list\n",
    ],
)
def test_load_config_rejects_invalid(tmp_path, snippet):
    path = write(tmp_path / "bad.yaml", snippet)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_invalid_yaml(tmp_path):
    path = write(tmp_path / "broken.yaml", "k: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)
