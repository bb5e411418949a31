import gc
import random
import tracemalloc
from dataclasses import replace

import pytest
import yaml

from pmdg import (
    MISSING,
    WILDCARD,
    ConfigError,
    DataError,
    EmptyLog,
    Event,
    EventLog,
    InconsistentDepth,
    LogCsvSpec,
    MalformedXml,
    MissingColumn,
    MissingConceptName,
    NonFunctionalLevel,
    PipelineConfig,
    RaggedRow,
    LevelVector,
    Trace,
    apply_to_log,
    load_config,
    read_hierarchy,
    read_log_csv,
    read_log_xes,
    vectorize_msa,
    vectorize_naive,
    write_log_csv,
)

from helpers import one_mapping_per_body, random_instance, repeated_bodies
from test_cli_properties import WRONG


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


def test_read_log_csv_skips_byte_order_mark(tmp_path):
    text = "case,activity,role\n1,Register,Admin\n1,Consultation,GP\n"
    plain = write(tmp_path / "plain.csv", text)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_log_csv(marked) == read_log_csv(plain)
    out = tmp_path / "out.csv"
    write_log_csv(read_log_csv(marked), out)
    assert out.read_bytes().startswith(b"case,")  # the writer adds no mark


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


def test_read_log_csv_groups_case_ids_on_their_nfc_form(tmp_path):
    # Composed and decomposed spellings of one case id are one case.
    path = write(tmp_path / "log.csv", "case,activity\nCaf\u00e9,A\nCafe\u0301,B\n")
    log = read_log_csv(path)
    assert [t.case_id for t in log.traces] == ["Caf\u00e9"]
    assert [(e.activity, e.origin_index) for e in log.traces[0]] == [("A", 0), ("B", 1)]


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


@pytest.mark.parametrize("name, case_column", [
    ("case", "case"), ("activity", "case"), ("Cafe\u0301", "Caf\u00e9"),
])
def test_write_log_csv_refuses_attribute_named_like_key_column(tmp_path, name, case_column):
    log = EventLog(schema=(name,), traces=(Trace("1", (Event("A", {name: "x"}),)),))
    path = tmp_path / "log.csv"
    with pytest.raises(DataError, match="key column"):
        write_log_csv(log, path, LogCsvSpec(case_column=case_column))
    assert not path.exists()


def test_write_log_csv_refuses_attribute_the_log_lacks(tmp_path):
    log = EventLog(schema=("role",), traces=(Trace("1", (Event("A", {"role": "x"}),)),))
    path = tmp_path / "log.csv"
    with pytest.raises(DataError, match="log has no attribute 'dept'"):
        write_log_csv(log, path, LogCsvSpec(attribute_columns=("role", "dept")))
    assert not path.exists()


def test_write_log_csv_finds_attribute_columns_by_their_nfc_form(tmp_path):
    # The reader keys the log on the NFC name; the header keeps the spelling.
    path = write(tmp_path / "log.csv", "case,activity,Cafe\u0301\n1,A,x\n")
    spec = LogCsvSpec(attribute_columns=("Cafe\u0301",))
    log = read_log_csv(path, spec)
    assert log.schema == ("Caf\u00e9",)
    out = tmp_path / "out.csv"
    write_log_csv(log, out, spec)
    assert out.read_bytes() == path.read_bytes()


COMPOSED, DECOMPOSED = "Caf\u00e9", "Cafe\u0301"


@pytest.mark.parametrize("spelled, header", [(DECOMPOSED, COMPOSED), (COMPOSED, DECOMPOSED)])
def test_read_log_csv_finds_columns_in_either_unicode_form(tmp_path, spelled, header):
    path = write(tmp_path / "log.csv", f"{header}1,{header}2,{header}3,x\n1,A,y,z\n")
    spec = LogCsvSpec(f"{spelled}1", f"{spelled}2", (f"{spelled}3",))
    log = read_log_csv(path, spec)
    assert log.schema == (f"{COMPOSED}3",)
    assert [(t.case_id, t.activities, t.columns[f"{COMPOSED}3"]) for t in log] == [
        ("1", ("A",), ("y",))
    ]
    # By default every column but the keys, in either form, is an attribute.
    assert read_log_csv(path, LogCsvSpec(f"{spelled}1", f"{spelled}2")).schema == (
        f"{COMPOSED}3", "x"
    )
    # A missing column is named as the spec spells it.
    with pytest.raises(MissingColumn, match=f"no column '{spelled}4'"):
        read_log_csv(path, LogCsvSpec(f"{spelled}1", f"{spelled}2", (f"{spelled}4",)))
    # Written with one spelling, read back with the other.
    out = tmp_path / "out.csv"
    write_log_csv(log, out, LogCsvSpec(f"{header}1", f"{header}2", (f"{header}3",)))
    assert read_log_csv(out, spec) == log
    assert read_log_csv(out, LogCsvSpec(f"{spelled}1", f"{spelled}2")) == log


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


def test_read_log_xes_dedupes_case_ids_on_their_nfc_form(tmp_path):
    text = XES.replace('value="case1"', 'value="Caf\u00e9"')
    text = text.replace('value="case2"', 'value="Cafe\u0301"')
    log = read_log_xes(write(tmp_path / "forms.xes", text))
    assert [t.case_id for t in log.traces] == ["Caf\u00e9", "Caf\u00e9~2"]


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


def test_read_log_xes_peak_memory_is_within_three_times_the_log(tmp_path):
    # 3,000 events in traces of 20: an event's attributes may wait until
    # its trace ends, but not until the file does.
    rng = random.Random(3)
    event = (
        '<event><string key="concept:name" value="a{}"/><string key="clerk" value="c{}"/>'
        '<string key="site" value="s{}"/><date key="time:timestamp" value="2024-01-01"/></event>'
    )
    path = write(tmp_path / "long.xes", "<log>{}</log>".format("".join(
        f'<trace><string key="concept:name" value="t{i}"/>'
        + "".join(event.format(rng.randrange(30), rng.randrange(200), rng.randrange(20))
                  for _ in range(20))
        + "</trace>"
        for i in range(150)
    )))
    read_log_xes(path)  # imports and interpreter caches come first
    gc.collect()
    tracemalloc.start()
    try:
        log = read_log_xes(path)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, log.traces)) == 3000
    assert peak <= 3 * held


def test_read_hierarchy(tmp_path):
    path = write(
        tmp_path / "h.csv",
        "GP,Medical Staff,⋆\nCA,Medical Staff,⋆\nAdmin,Admin,⋆\n",
    )
    table = read_hierarchy(path)
    assert table.depth == 2
    assert table.leaves == ("GP", "CA", "Admin")


def test_read_hierarchy_skips_byte_order_mark(tmp_path):
    path = tmp_path / "h.csv"
    path.write_bytes(b"\xef\xbb\xbf" + "Admin,Admin,⋆\nGP,Staff,⋆\n".encode("utf-8"))
    assert read_hierarchy(path).leaves == ("Admin", "GP")


def test_read_hierarchy_custom_wildcard(tmp_path):
    path = write(tmp_path / "h.csv", "a,g,*\nb,g,*\n")
    table = read_hierarchy(path, wildcard="*")
    assert table.rows[0] == ("a", "g", WILDCARD)


def test_read_hierarchy_reports_path_on_error(tmp_path):
    path = write(tmp_path / "h.csv", "a,g,⋆\nb,⋆\n")
    with pytest.raises(InconsistentDepth) as excinfo:
        read_hierarchy(path)
    assert "h.csv" in str(excinfo.value)
    # ``x`` meets the data's ``⋆`` or ``⊥`` at level 1, then splits from it.
    for middle in ("⋆", "⊥"):
        path = write(tmp_path / "h.csv", f"x,{middle},y,⋆\n")
        with pytest.raises(NonFunctionalLevel) as excinfo:
            read_hierarchy(path)
        assert str(excinfo.value) == (
            f"{path}: value {middle!r} at level 1 maps to both {middle!r} and 'y'"
        )


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
        "k: 2\nactivity_hierarchies: [a.csv]\nlevel_weights: [.inf]\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nlevel_weights: [1, .nan]\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nsurprise: 1\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {separator: x}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {case_column: 5}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {case_column: [case]}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {activity_column: 7}\n",
        "- just\n- a\n- list\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nattribute_hierarchies: {1: [r.csv]}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nattribute_hierarchies: {null: [r.csv]}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\nattribute_hierarchies: {true: [r.csv]}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\n1: x\nsurprise: y\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {1: x, separator: y}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {case_column: activity}\n",
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {attribute_columns: [role, case]}\n",
        'k: 2\nactivity_hierarchies: [a.csv]\n'
        'csv: {case_column: "Caf\\u00e9", activity_column: "Cafe\\u0301"}\n',
        'k: 2\nactivity_hierarchies: [a.csv]\ncsv: {delimiter: ";;"}\n',
        "k: 2\nactivity_hierarchies: [a.csv]\ncsv: {attribute_columns: [role, role]}\n",
        # The missing-value literal as the wildcard reads back as ``⋆``.
        'k: 2\nactivity_hierarchies: [a.csv]\nwildcard: "\u22a5"\n',
        "k: 2\nactivity_hierarchies: [a.csv]\nquasi_identifiers: [role, role]\n"
        "attribute_hierarchies: {role: [r.csv]}\n",
        'k: 2\nactivity_hierarchies: [a.csv]\nquasi_identifiers: ["r\u00f4le", "ro\u0302le"]\n'
        'attribute_hierarchies: {"r\u00f4le": [r.csv]}\n',
    ],
)
def test_load_config_rejects_invalid(tmp_path, snippet):
    path = write(tmp_path / "bad.yaml", snippet)
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value).startswith(f"{path}: ")


def test_load_config_rejects_weight_beyond_float_range(tmp_path):
    huge = "9" * 400  # a YAML integer that no float can hold
    path = write(
        tmp_path / "bad.yaml",
        f"k: 2\nactivity_hierarchies: [a.csv]\nlevel_weights: [{huge}]\n",
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_invalid_yaml(tmp_path):
    path = write(tmp_path / "broken.yaml", "k: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)


# Every wrong value of the generated-config property test, a repeated and
# an unknown quasi-identifier, and one more wrong value each for
# ``drop_singletons``, ``level_weights`` and ``vectorization``.
WRONG_SETTINGS = [(key, value) for key, values in WRONG.items() for value in values] + [
    ("quasi_identifiers", ["role", "role"]), ("quasi_identifiers", ["ghost"]),
    ("drop_singletons", "no"), ("level_weights", [-1.0]), ("vectorization", "bogus"),
]
VALID_SETTINGS = {
    "k": 2,
    "activity_hierarchies": ["act.csv"],
    "quasi_identifiers": ["role"],
    "attribute_hierarchies": {"role": ["role.csv"]},
}


def _shapes(value):
    """``value`` as given, and with every list in it a tuple."""
    if isinstance(value, list):
        return [value, tuple(value)]
    if isinstance(value, dict):
        return [value, {key: tuple(v) if isinstance(v, list) else v for key, v in value.items()}]
    return [value]


@pytest.mark.parametrize("key, value", WRONG_SETTINGS, ids=repr)
def test_pipeline_config_checks_every_setting_however_it_is_built(tmp_path, key, value):
    """A wrong value raises :class:`ConfigError` from the constructor, from
    ``replace`` and from ``load_config``; the YAML route names the file in
    front of the constructor's message."""
    base = PipelineConfig(**VALID_SETTINGS)
    messages = []
    for shape in _shapes(value):
        with pytest.raises(ConfigError) as built:
            PipelineConfig(**{**VALID_SETTINGS, key: shape})
        with pytest.raises(ConfigError) as replaced:
            replace(base, **{key: shape})
        assert str(replaced.value) == str(built.value)
        messages.append(str(built.value))
    if key == "csv" and isinstance(value, dict) and "separator" not in value:
        with pytest.raises(ConfigError):
            LogCsvSpec(**value)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**VALID_SETTINGS, key: value}), encoding="utf-8")
    with pytest.raises(ConfigError) as loaded:
        load_config(path)
    if key == "csv":  # YAML takes a mapping, the constructor a ``LogCsvSpec``
        assert str(loaded.value).startswith(f"{path}: ")
    else:
        assert str(loaded.value) == f"{path}: {messages[0]}"


@pytest.mark.parametrize(
    "settings",
    [{"case_column": 5}, {"activity_column": None}, {"attribute_columns": (1,)},
     {"attribute_columns": "role"}, {"attribute_columns": ("Caf\u00e9", "Cafe\u0301")}],
    ids=repr,
)
def test_log_csv_spec_built_in_code_rejects_wrong_settings(settings):
    with pytest.raises(ConfigError):
        LogCsvSpec(**settings)


def test_pipeline_config_normalizes_in_place():
    """One path is a one-path tuple, lists are tuples, names are NFC and
    weights floats; ``replace`` keeps the normalized form."""
    config = PipelineConfig(
        k=2,
        activity_hierarchies="activity.csv",
        quasi_identifiers=["Cafe\u0301"],
        attribute_hierarchies={"Cafe\u0301": "cafe.csv"},
        level_weights=[1, 0.5],
        csv=LogCsvSpec(attribute_columns=["Cafe\u0301"]),
    )
    assert config.activity_hierarchies == ("activity.csv",)
    assert config.quasi_identifiers == ("Caf\u00e9",)
    assert config.attribute_hierarchies == {"Caf\u00e9": ("cafe.csv",)}
    assert config.level_weights == (1.0, 0.5)
    assert all(type(w) is float for w in config.level_weights)
    assert config.csv.attribute_columns == ("Cafe\u0301",)  # matched to the header as given
    assert replace(config, k=3) == PipelineConfig(**{**vars(config), "k": 3})


def test_write_log_csv_with_no_attribute_columns_writes_only_the_keys(tmp_path):
    """An empty tuple of attribute columns writes none, as it reads none."""
    spec = LogCsvSpec(attribute_columns=())
    log = EventLog(schema=("role",), traces=(
        Trace("1", [Event("A", {"role": "GP"}), Event("B", {"role": "CA"})]),
    ))
    path = tmp_path / "log.csv"
    write_log_csv(log, path, spec)
    assert path.read_text(encoding="utf-8") == "case,activity\n1,A\n1,B\n"
    back = read_log_csv(path, spec)
    assert back.schema == ()
    assert [t.activities for t in back.traces] == [("A", "B")]


def _xes_of(log):
    """XES text of a log, one ``<string>`` per attribute of every event."""
    parts = ['<log xmlns="http://www.xes-standard.org/">']
    for trace in log.traces:
        parts.append(f'<trace><string key="concept:name" value="{trace.case_id}"/>')
        for event in trace.events:
            parts.append(f'<event><string key="concept:name" value="{event.activity}"/>')
            parts += [f'<string key="{k}" value="{v}"/>' for k, v in event.attributes.items()]
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>")
    return "".join(parts)


def _one_object_per_distinct_column(log):
    columns = [
        column for t in log.traces for column in (t.activities, t.origins, *t.columns.values())
    ]
    return len({id(column) for column in columns}) == len(set(columns))


def test_readers_and_apply_to_log_share_one_tuple_per_distinct_column(tmp_path):
    rng = random.Random(5)
    for i in range(10):
        raw, activity, attributes = random_instance(rng)
        # Every case twice, so the files repeat columns.
        raw = EventLog(raw.schema, raw.traces + tuple(
            Trace(f"{t.case_id}b", t.events) for t in raw.traces
        ))
        csv_path = tmp_path / f"log{i}.csv"
        write_log_csv(vectorize_msa(raw), csv_path)
        from_csv = read_log_csv(csv_path)
        from_xes = read_log_xes(write(tmp_path / f"log{i}.xes", _xes_of(raw)))
        levels = LevelVector(
            rng.randint(0, activity.depth),
            {attr: rng.randint(0, h.depth) for attr, h in attributes.items()},
        )
        for log in (from_csv, from_xes, vectorize_msa(from_xes)):
            assert _one_object_per_distinct_column(log)
            assert _one_object_per_distinct_column(apply_to_log(log, levels, activity, attributes))


def test_readers_hold_one_columns_mapping_per_repeated_body(tmp_path):
    rng = random.Random(29)
    for i in range(10):
        raw = random_instance(rng)[0]
        # Every case at least twice, so the files repeat bodies.
        raw = repeated_bodies(rng, EventLog(raw.schema, raw.traces + tuple(
            Trace(f"{t.case_id}b", t.events) for t in raw.traces
        )))
        csv_path = tmp_path / f"log{i}.csv"
        write_log_csv(raw, csv_path)
        from_xes = read_log_xes(write(tmp_path / f"log{i}.xes", _xes_of(raw)))
        for log in (read_log_csv(csv_path), from_xes):
            assert [t.case_id for t in log.traces] == [t.case_id for t in raw.traces]
            assert one_mapping_per_body(log)
            assert len({id(t.columns) for t in log.traces}) <= len(raw.traces) // 2
