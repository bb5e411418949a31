import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdg import (
    MISSING,
    WILDCARD,
    DataError,
    Event,
    EventLog,
    Hierarchy,
    LevelVector,
    Trace,
    UnknownAttribute,
    apply_to_log,
    control_flow,
    drop_singleton_variants,
    handover_graph,
    handover_precision,
    satisfies,
    search,
    select,
    trace_signature,
    validate_k,
    variants,
)
from pmdg.model import _bodies, _map_bodies

from helpers import (
    clinic_hierarchies,
    clinic_log,
    one_mapping_per_body,
    oracle_class_sizes,
    random_instance,
    repeated_bodies,
    repeated_traces,
)


def test_control_flow_clinic_case():
    log = clinic_log()
    assert control_flow(log.traces[0]) == (
        "Register", "Vitals", "Consultation", "CT Scan",
    )
    assert control_flow(log.traces[1]) == ("Register", "Consultation", "MRI Scan")


def test_control_flow_empty_trace():
    assert control_flow(Trace("x", ())) == ()


def test_variants_counts_by_first_occurrence():
    a = Trace("1", (Event("A", {"r": "x"}),))
    b = Trace("2", (Event("B", {"r": "x"}),))
    c = Trace("3", (Event("A", {"r": "y"}),))  # same flow as "1", other attrs
    log = EventLog(schema=("r",), traces=(a, b, c))
    counted = variants(log)
    assert counted == Counter({("A",): 2, ("B",): 1})
    assert list(counted) == [("A",), ("B",)]


def test_validate_k_control_flow_only_ignores_attributes():
    log = clinic_log()
    assert validate_k(log, [], 1).class_sizes == (1, 1)
    same_flow = EventLog(
        schema=("r",),
        traces=(
            Trace("1", (Event("A", {"r": "x"}), Event("B", {"r": "x"}))),
            Trace("2", (Event("A", {"r": "y"}), Event("B", {"r": "z"}))),
        ),
    )
    assert validate_k(same_flow, [], 1).class_sizes == (2,)
    # Selecting the attribute splits the class again.
    assert validate_k(same_flow, ["r"], 1).class_sizes == (1, 1)


def test_validate_k_signature_uses_schema_order():
    log = EventLog(
        schema=("b", "a"),
        traces=(Trace("1", (Event("X", {"a": "1", "b": "2"}),)),),
    )
    ((signature, size),) = validate_k(log, ["a", "b"], 2).violations
    flow, columns = signature
    assert flow == ("X",) and size == 1
    assert columns == (("b", ("2",)), ("a", ("1",)))


def test_validate_k_rejects_unknown_attribute():
    with pytest.raises(ValueError):
        validate_k(clinic_log(), ["nope"], 1)


# Each entry point, given ``role`` (known) then ``zz`` and ``ghost`` (unknown).
UNKNOWN_ATTRIBUTE_CALLS = {
    "validate_k": lambda log, act, hs: validate_k(log, hs, 1),
    "search": lambda log, act, hs: search(log, act, hs, hs, 1),
    "satisfies": lambda log, act, hs: satisfies(
        log, LevelVector(0, dict.fromkeys(hs, 0)), act, hs, 1
    ),
    "apply_to_log": lambda log, act, hs: apply_to_log(
        log, LevelVector(0, dict.fromkeys(hs, 0)), act, hs
    ),
    "select": lambda log, act, hs: select(
        log, [Hierarchy(hs["role"].table, attribute=name) for name in hs]
    ),
    "handover_graph": lambda log, act, hs: handover_graph(log, "zz"),
    "handover_precision": lambda log, act, hs: handover_precision(
        log, log, "zz", hs["role"]
    ),
}


@pytest.mark.parametrize("call", UNKNOWN_ATTRIBUTE_CALLS.values(),
                         ids=UNKNOWN_ATTRIBUTE_CALLS.keys())
def test_unknown_attribute_is_one_error_naming_the_first(call):
    activity, role, _ = clinic_hierarchies()
    hierarchies = {"role": role, "zz": role, "ghost": role}
    with pytest.raises(UnknownAttribute) as raised:
        call(clinic_log(), activity, hierarchies)
    assert isinstance(raised.value, ValueError) and isinstance(raised.value, DataError)
    assert str(raised.value) in ("log has no attribute 'zz'",
                                 "original log has no attribute 'zz'")


def test_validate_k_classes_match_oracle():
    rng = random.Random(7)
    log, activity, attr_hs = random_instance(rng)
    selected = sorted(attr_hs)
    report = validate_k(log, selected, len(log.traces) + 1)  # every class violates
    levels = LevelVector(0, {attr: 0 for attr in selected})
    assert sorted(report.class_sizes, reverse=True) == oracle_class_sizes(
        log, levels, activity, attr_hs
    )
    ordered = tuple(a for a in log.schema if a in set(selected))
    assert {signature for signature, _ in report.violations} == {
        trace_signature(trace, ordered) for trace in log.traces
    }


def test_validate_k_reports_violations():
    log = clinic_log()
    report = validate_k(log, ["role"], 2)
    assert not report
    assert not report.ok
    assert len(report.violations) == 2
    assert all(size == 1 for _, size in report.violations)
    assert validate_k(log, ["role"], 1).ok


def test_validate_k_rejects_bad_k():
    with pytest.raises(ValueError):
        validate_k(clinic_log(), [], 0)


def test_drop_singleton_variants():
    base = clinic_log().traces
    doubled = EventLog(
        schema=("role",),
        traces=(
            base[0],
            Trace("07b", base[0].events),
            base[1],
        ),
    )
    kept = drop_singleton_variants(doubled)
    assert [t.case_id for t in kept.traces] == ["07", "07b"]
    # All variants unique: the log empties out.
    assert drop_singleton_variants(clinic_log()).traces == ()


@pytest.mark.parametrize("seed", range(8))
def test_drop_singleton_variants_keeps_the_stored_traces_as_they_are(seed, monkeypatch):
    rng = random.Random(seed)
    log = repeated_bodies(rng, random_instance(rng)[0])
    counts = Counter(t.activities for t in log.traces)
    oracle = EventLog(log.schema, [t for t in log.traces if counts[t.activities] > 1])
    keyed = []
    monkeypatch.setattr("pmdg.model._bodies", lambda *args: keyed.append(1) or _bodies(*args))
    kept = drop_singleton_variants(log)
    assert keyed == []
    assert kept == oracle and one_mapping_per_body(kept)


def test_event_normalizes_to_nfc():
    composed = Event("Café", {"r": "Zoë"})
    decomposed = Event("Café", {"r": "Zoë"})
    assert composed == decomposed
    assert composed.activity == "Café"


def test_event_immutable():
    event = Event("A", {"r": "x"})
    with pytest.raises(Exception):
        event.activity = "B"
    with pytest.raises(TypeError):
        event.attributes["r"] = "y"


def test_wildcard_event_detection():
    pad = Event(WILDCARD, {"r": WILDCARD, "s": WILDCARD})
    assert pad.is_wildcard
    assert pad.attributes == {"r": WILDCARD, "s": WILDCARD}
    # A fully masked real event keeps its origin and is not padding.
    masked = Event(WILDCARD, {"r": WILDCARD, "s": WILDCARD}, origin_index=3)
    assert not masked.is_wildcard
    assert not Event("A", {"r": WILDCARD, "s": WILDCARD}).is_wildcard


def test_trace_rejects_non_increasing_origins():
    okay = Trace("t", (Event("A", origin_index=0), Event("B", origin_index=2)))
    assert [e.origin_index for e in okay] == [0, 2]
    with pytest.raises(ValueError):
        Trace("t", (Event("A", origin_index=1), Event("B", origin_index=1)))
    with pytest.raises(ValueError):
        Trace("t", (Event("A", origin_index=2), Event("B", origin_index=1)))
    with pytest.raises(ValueError):
        Event("A", origin_index=-1)
    with pytest.raises(ValueError):
        Trace.from_columns("t", ("A", "B"), {}, (2, 1))
    with pytest.raises(ValueError):
        Trace.from_columns("t", ("A",), {}, (-1,))
    with pytest.raises(ValueError):
        Trace.from_columns("t", ("A", "B"), {"r": ("x",)})


def test_trace_from_columns_equals_trace_from_events():
    rng = random.Random(11)
    log, _, _ = random_instance(rng)
    for trace in log.traces:
        columns = Trace.from_columns(
            trace.case_id,
            [event.activity for event in trace.events],
            {attr: [event.attributes[attr] for event in trace.events] for attr in log.schema},
            [event.origin_index for event in trace.events],
        )
        assert columns == trace
        assert columns.events == trace.events
    assert Trace.from_columns("x", (), {"r": ()}) == Trace("x", ())
    assert Trace.from_columns("x", ("A",), {"r": ("y",)}) != Trace("x", (Event("A", {"r": "z"}),))


def test_trace_events_view_keeps_padding_apart():
    pad = Event(WILDCARD, {"r": WILDCARD})
    masked = Event(WILDCARD, {"r": WILDCARD}, origin_index=1)
    trace = Trace.from_columns(
        "t", ("A", WILDCARD, WILDCARD, "B"), {"r": ("x", WILDCARD, WILDCARD, "y")},
        (0, None, 1, 2),
    )
    assert trace.events == (
        Event("A", {"r": "x"}, origin_index=0), pad, masked, Event("B", {"r": "y"}, origin_index=2)
    )
    assert [event.is_wildcard for event in trace.events] == [False, True, False, False]
    assert tuple(trace.real) == (0, 2, 3)
    assert trace.events is trace.events  # built once
    assert Trace("t", trace.events) == trace
    assert Trace("t", trace.events).real == trace.real


def test_trace_columns_are_immutable():
    trace = Trace.from_columns("t", ("A",), {"r": ["x"]})
    assert trace.columns["r"] == ("x",)
    with pytest.raises(TypeError):
        trace.columns["r"] = ("y",)
    with pytest.raises(AttributeError):
        trace.activities = ("B",)


def test_eventlog_validates_schema_and_cases():
    event = Event("A", {"r": "x"})
    with pytest.raises(ValueError):
        EventLog(schema=("r", "r"), traces=())
    with pytest.raises(ValueError):
        EventLog(schema=("r",), traces=(Trace("1", (Event("A", {"q": "x"}),)),))
    with pytest.raises(ValueError):
        EventLog(schema=("r",), traces=(Trace.from_columns("1", ("A",), {"q": ("x",)}),))
    with pytest.raises(ValueError):
        Trace("1", (Event("A", {"r": "x"}), Event("B", {"q": "x"})))
    # An empty trace fits any schema.
    assert EventLog(schema=("r",), traces=(Trace("1", ()),)).traces[0].columns["r"] == ()
    with pytest.raises(ValueError):
        EventLog(
            schema=("r",),
            traces=(Trace("1", (event,)), Trace("1", (event,))),
        )


def test_eventlog_holds_one_columns_mapping_per_body():
    rng = random.Random(23)
    for _ in range(20):
        raw = random_instance(rng)[0]
        given = repeated_traces(rng, raw) + (Trace("empty", ()), Trace("void", ()))
        log = EventLog(raw.schema, given)
        assert one_mapping_per_body(log)
        assert log.traces == given
        assert [t.case_id for t in log.traces] == [t.case_id for t in given]
        # Fresh traces from a one-pass iterable, each dropped once it is
        # renamed: no later mapping may pass for a dropped one.
        fresh = EventLog(raw.schema, (
            Trace.from_columns(t.case_id, t.activities, t.columns, t.origins) for t in given
        ))
        assert one_mapping_per_body(fresh)
        assert fresh == log


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["apply_to_log", "constant", "from_columns"]))
def test_map_bodies_builds_once_per_mapping_and_renames_once_per_case(seed, kind):
    rng = random.Random(seed)
    raw, activity, attribute_hierarchies = random_instance(rng)
    log = repeated_bodies(rng, raw)
    node = LevelVector(rng.randint(0, activity.depth), {
        attr: rng.randint(0, h.depth) for attr, h in attribute_hierarchies.items()
    })

    def generalize(given: EventLog) -> EventLog:
        return apply_to_log(given, node, activity, attribute_hierarchies)

    build = {
        "apply_to_log": lambda t: generalize(EventLog(log.schema, (t,))).traces[0],
        "constant": lambda t: Trace.from_columns(
            t.case_id, ("A",), dict.fromkeys(log.schema, ("x",))),
        "from_columns": lambda t: Trace.from_columns(
            t.case_id, t.activities, t.columns, t.origins),
    }[kind]
    oracle = EventLog(log.schema, [build(t) for t in log.traces])
    built = []

    def counted(trace: Trace) -> Trace:
        built.append(trace.columns)
        return build(trace)

    runs = [lambda: _map_bodies(log, counted)]
    if kind == "apply_to_log":
        runs.append(lambda: generalize(log))
    for run in runs:
        renamed = Counter()
        rename = Trace._renamed

        def counted_rename(trace: Trace, case_id: str) -> Trace:
            renamed[case_id] += 1
            return rename(trace, case_id)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(Trace, "_renamed", counted_rename)
            mapped = run()
        assert mapped == oracle
        assert one_mapping_per_body(mapped)
        assert max(renamed.values(), default=0) <= 1
        # Every case but its body's first is renamed.
        assert sum(renamed.values()) == len(mapped) - len({id(t.columns) for t in mapped})
    assert len(built) == len({id(columns) for columns in built})
    assert len(built) == len({id(t.columns) for t in log.traces})


def test_missing_literal_is_a_normal_value_for_grouping():
    log = EventLog(
        schema=("r",),
        traces=(
            Trace("1", (Event("A", {"r": MISSING}),)),
            Trace("2", (Event("A", {"r": MISSING}),)),
        ),
    )
    assert validate_k(log, ["r"], 1).class_sizes == (2,)
