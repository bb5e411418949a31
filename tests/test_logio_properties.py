"""Property tests of log I/O: CSV and XES files written from one
generated log both read back as the log built directly with ``Event``,
``write_log_csv`` followed by ``read_log_csv`` gives the log back and
writes the bytes of a one-trace-at-a-time writer, both readers and
vectorization agree on which events are padding and how the real ones
are numbered, and on generated XES bytes ``read_log_xes`` agrees with
the ``ElementTree`` oracle while ``pmdg validate`` exits with a
documented code."""

import csv
import io
import random
from xml.sax.saxutils import quoteattr

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmdg import (
    MISSING,
    WILDCARD,
    Event,
    EventLog,
    LogCsvSpec,
    MalformedXml,
    MissingConceptName,
    Trace,
    read_log_csv,
    read_log_xes,
    write_log_csv,
)
from pmdg.cli import main
from pmdg.vectorize import STRATEGIES

from helpers import (
    one_mapping_per_body,
    oracle_read_log_xes,
    oracle_write_csv,
    random_instance,
    write_xes,
)

# Decomposed and composed forms, a combining mark with no precomposed
# form, quotes, both delimiters, XML specials, a line break, both
# wildcard literals and the missing-value literal.
PIECES = ["a", "B", "é", "é", "x́", '"', ",", ";", "<&>", "\n",
          " ", WILDCARD, "*", MISSING]
CELLS = st.one_of(
    st.just(""),
    st.sampled_from(PIECES),
    st.lists(st.sampled_from(PIECES), min_size=2, max_size=3).map("".join),
)
KEYS = ["role", "org:unit", "x́y", "site;2"]


@st.composite
def raw_logs(draw):
    """(wildcard literal, schema, [(case id, [(activity, values)])]) with raw cells."""
    wildcard = draw(st.sampled_from([WILDCARD, "*"]))
    schema = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=3))
    event = st.tuples(CELLS, st.tuples(*[CELLS] * len(schema))).filter(
        # An all-wildcard row is CSV padding; keep the events real.
        lambda ev: not all(c in (wildcard, WILDCARD) for c in (ev[0], *ev[1]))
    )
    prefix = draw(st.sampled_from(["c", 'c,"', "é "]))
    traces = draw(st.lists(st.lists(event, min_size=1, max_size=4), min_size=1, max_size=4))
    return wildcard, tuple(schema), [(f"{prefix}{i}", t) for i, t in enumerate(traces)]


def _expected(wildcard, schema, cases):
    def canonical(cell):
        return WILDCARD if cell == wildcard else (cell or MISSING)

    return EventLog(
        schema=schema,
        traces=tuple(
            Trace(case_id, tuple(
                Event(canonical(activity), dict(zip(schema, map(canonical, values))),
                      origin_index=position)
                for position, (activity, values) in enumerate(events)
            ))
            for case_id, events in cases
        ),
    )


def _csv_text(schema, cases, delimiter):
    out = io.StringIO(newline="")
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["case", "activity", *schema])
    for case_id, events in cases:
        for activity, values in events:
            writer.writerow([case_id, activity, *values])
    return out.getvalue()


def _xes_text(schema, cases, omit_missing):
    """XES with one ``<string>`` per cell; with ``omit_missing``, an empty
    cell whose key appeared before is left out instead (it reads as ``⊥``)."""
    seen = set()
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n',
             '<log xmlns="http://www.xes-standard.org/">']
    for case_id, events in cases:
        parts.append(f'<trace><string key="concept:name" value={quoteattr(case_id)}/>')
        for activity, values in events:
            parts.append(f'<event><string key="concept:name" value={quoteattr(activity)}/>')
            for key, value in zip(schema, values):
                if not (omit_missing and value == "" and key in seen):
                    parts.append(f"<string key={quoteattr(key)} value={quoteattr(value)}/>")
                    seen.add(key)
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>\n")
    return "".join(parts)


def _shares_one_string_per_value(log):
    values = [e.activity for t in log.traces for e in t.events]
    values += [v for t in log.traces for e in t.events for v in e.attributes.values()]
    return len({id(v) for v in values}) == len(set(values))


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw_logs(), st.sampled_from([",", ";"]), st.booleans())
def test_readers_agree_with_direct_construction(tmp_path, raw, delimiter, omit_missing):
    wildcard, schema, cases = raw
    expected = _expected(wildcard, schema, cases)

    csv_path = tmp_path / "log.csv"
    csv_path.write_text(_csv_text(schema, cases, delimiter), encoding="utf-8", newline="")
    from_csv = read_log_csv(csv_path, LogCsvSpec(delimiter=delimiter), wildcard=wildcard)

    xes_path = tmp_path / "log.xes"
    xes_path.write_text(_xes_text(schema, cases, omit_missing), encoding="utf-8")
    from_xes = read_log_xes(xes_path, wildcard=wildcard)

    assert from_csv == expected
    assert from_xes == expected
    assert _shares_one_string_per_value(from_csv)
    assert _shares_one_string_per_value(from_xes)


@st.composite
def written_logs(draw):
    """(wildcard literal, log) as a generalized, vectorized log looks: some
    events fully masked, padding between events, and equal events shared
    by one object across traces."""
    wildcard, schema, cases = draw(raw_logs())
    padding = Event(WILDCARD, dict.fromkeys(schema, WILDCARD))
    shared: dict[tuple, Event] = {}
    traces = []
    for trace in _expected(wildcard, schema, cases).traces:
        events = []
        for event in trace.events:
            events += [padding] * draw(st.integers(0, 2))
            if draw(st.integers(0, 3)) == 0:
                event = Event(WILDCARD, {name: WILDCARD for name in schema},
                              origin_index=event.origin_index)
            key = (event.activity, event.origin_index, *map(event.attributes.get, schema))
            events.append(shared.setdefault(key, event))
        events += [padding] * draw(st.integers(0, 1))
        traces.append(Trace(trace.case_id, tuple(events)))
    return wildcard, EventLog(schema, tuple(traces))


def _read_back(log):
    """The log as its CSV reads back: a fully masked event becomes padding
    (the documented exception), so origins count the other events."""
    padding = Event(WILDCARD, dict.fromkeys(log.schema, WILDCARD))
    traces = []
    for trace in log.traces:
        events, origin = [], 0
        for event in trace.events:
            if event.activity == WILDCARD and all(
                v == WILDCARD for v in event.attributes.values()
            ):
                events.append(padding)
            else:
                events.append(Event(event.activity, event.attributes, origin_index=origin))
                origin += 1
        traces.append(Trace(trace.case_id, tuple(events)))
    return EventLog(log.schema, tuple(traces))


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(written_logs(), st.sampled_from([",", ";"]))
def test_csv_round_trip(tmp_path, written, delimiter):
    wildcard, log = written
    spec = LogCsvSpec(delimiter=delimiter)
    path = tmp_path / "log.csv"
    write_log_csv(log, path, spec, wildcard=wildcard)
    assert read_log_csv(path, spec, wildcard=wildcard) == _read_back(log)


def _numbered_from_zero(log):
    return all([t.origins[p] for p in t.real] == list(range(len(t.real))) for t in log.traces)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_readers_and_vectorization_number_the_same_real_events(tmp_path, seed, most):
    # Padding (all ``⋆``, no origin) at random positions of a log without origins.
    rng = random.Random(seed)
    log, _, _ = random_instance(rng)
    padding = Event(WILDCARD, dict.fromkeys(log.schema, WILDCARD))
    traces = []
    for trace in log.traces:
        events = list(trace.events)
        for _ in range(rng.randint(0, most)):
            events.insert(rng.randint(0, len(events)), padding)
        traces.append(Trace(trace.case_id, events))
    log = EventLog(log.schema, tuple(traces))

    write_log_csv(log, tmp_path / "log.csv")
    write_xes(log, tmp_path / "log.xes")
    from_csv = read_log_csv(tmp_path / "log.csv")
    assert read_log_xes(tmp_path / "log.xes") == from_csv
    assert _numbered_from_zero(from_csv)
    for vectorize in STRATEGIES.values():
        direct = vectorize(log)
        assert [t.origins for t in direct.traces] == [
            t.origins for t in vectorize(from_csv).traces
        ]
        assert _numbered_from_zero(direct)


# Cells and case ids that need quoting under some delimiter, or none.
WRITTEN_PIECES = ["a", "é", ",", ";", "\t", " ", '"', "\r", "\n", WILDCARD, "*"]
WRITTEN_CELLS = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(WRITTEN_PIECES), min_size=1, max_size=3).map("".join),
)


@st.composite
def logs_with_repeated_bodies(draw):
    """A log of a few bodies, each under 1 to 3 case ids, in mixed order;
    each trace is built on its own, and the log shares one ``columns``
    mapping among a body's traces."""
    schema = tuple(draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=2)))
    bodies = draw(st.lists(st.lists(
        st.tuples(WRITTEN_CELLS, st.tuples(*[WRITTEN_CELLS] * len(schema))), max_size=3
    ), min_size=1, max_size=4))
    repeated = [body for body in bodies for _ in range(draw(st.integers(1, 3)))]
    repeated = draw(st.permutations(repeated))
    # An id's digits come last and its prefix has none, so ids are unique;
    # the first may be the empty id.
    traces = []
    for number, events in enumerate(repeated):
        prefix = draw(st.sampled_from(["", "c", " c", 'c"', "c,", "c;", "c\t", "c ", "\n"]))
        activities = [activity for activity, _ in events]
        columns = {name: [values[i] for _, values in events] for i, name in enumerate(schema)}
        traces.append(Trace.from_columns(f"{prefix}{number or ''}", activities, columns))
    return EventLog(schema, tuple(traces))


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(logs_with_repeated_bodies(), st.sampled_from([",", ";", "\t", " "]),
       st.sampled_from([WILDCARD, "*"]))
def test_write_log_csv_matches_per_trace_writer(tmp_path, log, delimiter, wildcard):
    spec = LogCsvSpec(delimiter=delimiter)
    oracle_write_csv(log, tmp_path / "oracle.csv", spec, wildcard=wildcard)
    # A repeated body is its first trace renamed, which the writer renders
    # at second sight.
    assert one_mapping_per_body(log)
    write_log_csv(log, tmp_path / "log.csv", spec, wildcard=wildcard)
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# Attribute text as it stands in the file: entity and character
# references (``&#233;`` is a composed é, ``e&#x301;`` a decomposed one),
# both wildcard literals and the missing-value literal.
XML_PIECES = ["a", "B", "&amp;", "&lt;&gt;", "&quot;", "&#233;", "e&#x301;",
              "\u00e9", "&#10;", " ", WILDCARD, "*", MISSING]
XML_TEXT = st.lists(st.sampled_from(XML_PIECES), max_size=3).map("".join)
XML_KEYS = ["role", "role", "org:unit", "&#233;", "e&#x301;", "concept:name"]


def _rarely(draw):
    return draw(st.sampled_from([False] * 5 + [True]))


def _attrs(draw, key=st.sampled_from(XML_KEYS)):
    """``key``/``value`` attributes, either of them sometimes missing."""
    parts = []
    if not _rarely(draw):
        parts.append(f'key="{draw(key)}"')
    if not _rarely(draw):
        parts.append(f'value="{draw(XML_TEXT)}"')
    return " ".join(draw(st.permutations(parts)))


@st.composite
def xes_bytes(draw):
    """An XES file: headers, log-level strings, traces with nested traces,
    non-string and nameless attributes, and events without a name, under
    a default or an ``xes:`` namespace, sometimes cut at a random byte."""
    ns = draw(st.sampled_from(["", "", "xes:", "xes:", "undeclared:"]))
    xmlns = ' xmlns="http://www.xes-standard.org/"' if ns != "xes:" else (
        ' xmlns:xes="http://www.xes-standard.org/"'
    )

    def string(key=st.sampled_from(XML_KEYS)):
        return f"<{ns}string {_attrs(draw, key)}/>"

    def other():
        return draw(st.sampled_from([
            f'<{ns}date key="time:timestamp" value="2024-01-01T00:00:00"/>',
            f'<{ns}int key="role" value="3"/>',
            f'<{ns}list key="l">{string()}</{ns}list>',
        ]))

    def event():
        children = draw(st.lists(st.sampled_from(["name", "string", "other"]), max_size=4))
        if not _rarely(draw):
            children.insert(0, "name")
        body = "".join(
            f'<{ns}string key="concept:name" value="{draw(XML_TEXT)}"/>' if c == "name"
            else string() if c == "string" else other()
            for c in children
        )
        return f"<{ns}event>{body}</{ns}event>"

    def trace(nested):
        kinds = ["event", "event", "event", "name", "other"] + (["trace"] if nested else [])
        children = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
        body = "".join(
            event() if c == "event" else trace(False) if c == "trace"
            else other() if c == "other"
            else string(st.sampled_from(["concept:name", "concept:name", "role"]))
            for c in children
        )
        return f"<{ns}trace>{body}</{ns}trace>"

    headers = [
        f'<{ns}extension name="Concept" prefix="concept" uri="concept.xesext"/>',
        f'<{ns}global scope="event">'
        f'<{ns}string key="concept:name" value="__INVALID__"/></{ns}global>',
        f'<{ns}classifier name="Activity" keys="concept:name"/>',
    ]
    children = draw(st.lists(
        st.sampled_from(["trace", "trace", "header", "string"]), min_size=1, max_size=5
    ))
    body = "".join(
        trace(True) if c == "trace" else string() if c == "string"
        else draw(st.sampled_from(headers))
        for c in children
    )
    text = f'<?xml version="1.0" encoding="UTF-8"?>\n<{ns}log{xmlns}>{body}</{ns}log>\n'
    data = text.encode("utf-8")
    if _rarely(draw):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the exception class is the outcome
        return type(exc)


NAMELESS_THEN_CUT = (
    b'<log><trace><event><string key="role" value="x"/></event>'
    b'<event><string key="concept:name" value="a"/></event></trace><trace><eve'
)
CUT_INSIDE_NAMELESS = b'<log><trace><event><string key="role" value="x"/></event><eve'
TWO_FORMS_OF_A_KEY = (
    b'<log><trace><event><string key="concept:name" value="a"/>'
    b'<string key="&#233;" value="1"/></event><event>'
    b'<string key="concept:name" value="a"/><string key="e&#x301;" value="2"/>'
    b"</event></trace></log>"
)
_A, _B = b'<string key="concept:name" value="a"/>', b'<string key="concept:name" value="b"/>'
KEY_IN_THIRD_TRACE = (
    b"<log><trace><event>" + _A + b'<string key="role" value="x"/></event></trace>'
    b"<trace><event>" + _B + b"</event></trace>"
    b"<trace><event>" + _A + b'<string key="dept" value="d"/></event></trace></log>'
)
TRACE_WITHOUT_A_KEY = (
    b"<log><trace><event>" + _A + b'<string key="role" value="x"/></event></trace>'
    b"<trace><event>" + _B + b"</event><event>" + _A + b"</event></trace></log>"
)
LIST_IN_AN_EVENT = (
    b"<log><trace><event>" + _A + b'<list key="l"><string key="role" value="x"/></list>'
    b"</event></trace></log>"
)
NAME_AFTER_EVENTS = (
    b"<log><trace><event>" + _A + b"</event>"
    b'<string key="concept:name" value="late"/></trace></log>'
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(xes_bytes(), st.sampled_from([1, 2]))
@example(NAMELESS_THEN_CUT, 1)
@example(CUT_INSIDE_NAMELESS, 1)
@example(TWO_FORMS_OF_A_KEY, 1)
@example(KEY_IN_THIRD_TRACE, 1)
@example(TRACE_WITHOUT_A_KEY, 1)
@example(LIST_IN_AN_EVENT, 1)
@example(NAME_AFTER_EVENTS, 1)
def test_xes_reader_agrees_with_elementtree_oracle(tmp_path, capsys, data, k):
    path = tmp_path / "log.xes"
    path.write_bytes(data)
    expected = _outcome(oracle_read_log_xes, path)
    assert _outcome(read_log_xes, path) == expected
    if data == NAMELESS_THEN_CUT:
        assert expected is MissingConceptName
    elif data == CUT_INSIDE_NAMELESS:
        assert expected is MalformedXml

    # The same bytes through the command line: a documented exit code,
    # and on failure one ``pmdg:`` line and no traceback.
    code = main(["validate", "--in", str(path), "--k", str(k), "--attr", "role"])
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    if code == 3:
        assert err.startswith("pmdg: ") and err.count("\n") == 1
    else:
        assert err == ""
