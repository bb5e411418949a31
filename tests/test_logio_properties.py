"""Property tests of log I/O: CSV and XES files written from one
generated log both read back as the log built directly with ``Event``,
and ``write_log_csv`` followed by ``read_log_csv`` gives the log back."""

import csv
import io
from xml.sax.saxutils import quoteattr

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmdg import (
    MISSING,
    WILDCARD,
    Event,
    EventLog,
    LogCsvSpec,
    Trace,
    read_log_csv,
    read_log_xes,
    wildcard_event,
    write_log_csv,
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
    padding = wildcard_event(schema)
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
    padding = wildcard_event(log.schema)
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
