import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmdg import (
    WILDCARD,
    EmptyLog,
    Event,
    EventLog,
    Trace,
    control_flow,
    variants,
    vectorize_msa,
    vectorize_naive,
)
from pmdg.vectorize import _align_to_profile, _Column, _match_totals

from helpers import (
    all_alignments,
    clinic_log,
    one_mapping_per_body,
    oracle_align_to_profile,
    oracle_best_pairwise,
    random_instance,
    repeated_bodies,
)


def project(trace):
    """Non-padding events in order, reduced to comparable values."""
    return [
        (e.activity, dict(e.attributes))
        for e in trace.events
        if not e.is_wildcard
    ]


def _two_trace_msa(a, b):
    """The two output control flows of ``vectorize_msa`` on traces ``a`` and ``b``."""
    log = EventLog(schema=(), traces=(
        Trace("a", tuple(Event(symbol) for symbol in a)),
        Trace("b", tuple(Event(symbol) for symbol in b)),
    ))
    return tuple(control_flow(trace) for trace in vectorize_msa(log).traces)


def test_two_trace_msa_clinic_layout_is_the_unique_optimum():
    a = ("Register", "Vitals", "Consultation", "CT Scan")
    b = ("Register", "Consultation", "MRI Scan")
    # The exhaustive oracle confirms this optimum is unique: two matches
    # are only reachable with four columns, the shorter trace gapping at
    # column 1 and the two scans sharing the final column.
    best = max(all_alignments(a, b), key=lambda r: (r[0], -r[1]))
    optimal = [r for r in all_alignments(a, b) if (r[0], r[1]) == (best[0], best[1])]
    assert len(optimal) == 1
    assert optimal[0][2:] == ((0, 1, 2, 3), (0, 2, 3))
    assert _two_trace_msa(a, b) == (a, ("Register", WILDCARD, "Consultation", "MRI Scan"))


def test_two_trace_msa_matches_pairwise_oracle():
    # Width is the oracle's column count (most matches, then fewest
    # columns) and the matched columns are the oracle's matches.  Fixed
    # cases: disjoint symbols share one column rather than two gap
    # columns, either side may be empty, and ``⋆`` matches nothing.
    rng = random.Random(5)
    alphabet = ["A", "B", "C", "D", WILDCARD]
    pairs = [(("A",), ("B",)), ((), ("A", "B")), (("A",), ()), ((), ()),
             ((WILDCARD,), (WILDCARD,)), (("A", "B"), ("A", "B"))]
    pairs += [
        tuple(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7))) for _ in "ab")
        for _ in range(200)
    ]
    for a, b in pairs:
        out_a, out_b = _two_trace_msa(a, b)
        matches, columns = oracle_best_pairwise(a, b)
        assert len(out_a) == len(out_b) == columns
        assert sum(x == y != WILDCARD for x, y in zip(out_a, out_b)) == matches
        for before, after in ((a, out_a), (b, out_b)):
            assert [x for x in after if x != WILDCARD] == [x for x in before if x != WILDCARD]
    assert _two_trace_msa(("A",), ("B",)) == (("A",), ("B",))


_SYMBOLS = st.sampled_from(["A", "B", "C", WILDCARD])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.lists(_SYMBOLS, max_size=8).map(tuple), min_size=1, max_size=6),
    st.lists(st.lists(_SYMBOLS, min_size=65, max_size=80).map(tuple), max_size=1),
)
@example([()], [])
@example([("A",), (WILDCARD,), (WILDCARD, WILDCARD), ()], [])
@example([("B",), (WILDCARD,) * 3], [("A", "B") * 33])
def test_center_score_matches_oracle(short, long):
    # The packed scorer behind MSA center selection must return, for each
    # variant, the sum of its optimal pairwise match counts against the
    # others.  A flow over 64 symbols makes its lane cross a machine word.
    order = short + long
    assert _match_totals(order) == [
        sum(oracle_best_pairwise(a, b)[0] for y, b in enumerate(order) if y != x)
        for x, a in enumerate(order)
    ]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.lists(st.sampled_from(["A", "B", "C", "D", WILDCARD]), max_size=8)
                .map(tuple), min_size=1, max_size=8))
@example([()])
@example([(), ("A", "B"), (), (WILDCARD, "A")])
@example([(WILDCARD,), (WILDCARD, WILDCARD), ("A",)])
def test_profile_alignment_matches_tuple_scored_oracle(flows):
    # Progressive alignment of the flows, the first as center, by the
    # int-scored DP and by the tuple-scored one it replaced: each column
    # must hold the same members and symbol counts.
    def align(function):
        profile = [_Column(0, symbol) for symbol in flows[0]]
        for rank, flow in enumerate(flows[1:], start=1):
            profile = function(profile, rank, flow)
        return [(column.members, column.counts) for column in profile]

    assert align(_align_to_profile) == align(oracle_align_to_profile)


def _golden_log(seed):
    """30-60 distinct variants over a small alphabet with ``⋆`` and
    repeated symbols; some variants occur more than once.  The variants
    come in pairs that differ by swapping ``A`` and ``B``, so every
    variant ties on its center score with its mirror image."""
    rng = random.Random(seed)
    alphabet = ["A", "B", "C", "D", "E", "F", WILDCARD]
    mirror = {"A": "B", "B": "A"}
    flows = set()
    target = rng.randint(30, 59)
    while len(flows) < target:
        flow = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        flows.add(flow)
        flows.add(tuple(mirror.get(symbol, symbol) for symbol in flow))
    traces = []
    for number, flow in enumerate(sorted(flows)):
        events = tuple(Event(activity, {"r": "x"}) for activity in flow)
        for copy in range(rng.randint(1, 3)):
            traces.append(Trace(f"{number}-{copy}", events))
    return EventLog(schema=("r",), traces=tuple(traces))


def test_vectorize_msa_golden_layout():
    # Pins the center choice, variant order and move priorities: the SHA-256
    # of each log's width and per-variant columns, taken from the
    # straightforward DP implementation that preceded the bit-parallel one.
    expected = {
        1: "2f780824e777fc02087f0f66bdc197f037a4fe0c178d85323b8702d22753ba52",
        2: "10eda7b7c1b2ee3389307e29ea653e7e139a6d50e67fd6dbf032b071f1e7102b",
        3: "f8d5480d1dc4141e35e61baeacdadb920d8a9342182514aecbc3aeccc41d6b04",
    }
    for seed, digest in expected.items():
        log = _golden_log(seed)
        out = vectorize_msa(log)
        layout = {
            control_flow(before): [
                j for j, e in enumerate(after.events) if e.origin_index is not None
            ]
            for before, after in zip(log.traces, out.traces)
        }
        assert 30 <= len(layout) <= 60
        text = json.dumps([len(out.traces[0]), sorted(layout.items())])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, seed


def test_vectorize_naive_pads_tail():
    log = clinic_log()
    out = vectorize_naive(log)
    assert {len(t) for t in out.traces} == {4}
    short = out.traces[1]
    assert [e.activity for e in short] == [
        "Register", "Consultation", "MRI Scan", WILDCARD,
    ]
    assert short.events[3].is_wildcard
    assert [e.origin_index for e in short.events[:3]] == [0, 1, 2]
    assert project(short) == project(log.traces[1])


def test_vectorize_msa_clinic_log():
    out = vectorize_msa(clinic_log())
    assert {len(t) for t in out.traces} == {4}
    keeps, gaps = out.traces
    assert [e.activity for e in keeps] == [
        "Register", "Vitals", "Consultation", "CT Scan",
    ]
    assert [e.activity for e in gaps] == [
        "Register", WILDCARD, "Consultation", "MRI Scan",
    ]
    assert gaps.events[1].is_wildcard
    assert [e.origin_index for e in gaps.events if not e.is_wildcard] == [0, 1, 2]


def test_vectorize_rejects_empty_log():
    empty = EventLog(schema=("r",), traces=())
    with pytest.raises(EmptyLog):
        vectorize_naive(empty)
    with pytest.raises(EmptyLog):
        vectorize_msa(empty)


@pytest.mark.parametrize("strategy", [vectorize_naive, vectorize_msa])
def test_vectorize_takes_origins_for_all_real_events_or_none(strategy):
    some = EventLog((), (Trace.from_columns("c", ["A", "B"], {}, [1, None]),))
    with pytest.raises(ValueError, match="trace 'c' gives origin_index for some of its real"):
        strategy(some)
    # Padding (all ``⋆``, no origin) is no real event: these origins are kept.
    every = EventLog((), (Trace.from_columns("c", ["A", WILDCARD, "B"], {}, [1, None, 3]),))
    out = strategy(every).traces[0]
    assert [out.origins[position] for position in out.real] == [1, 3]


def test_vectorize_single_variant_log_keeps_values():
    events = (Event("A", {"r": "x"}), Event("B", {"r": "y"}))
    log = EventLog(
        schema=("r",),
        traces=(Trace("1", events), Trace("2", events)),
    )
    for strategy in (vectorize_naive, vectorize_msa):
        out = strategy(log)
        assert [project(t) for t in out.traces] == [project(t) for t in log.traces]
        assert {len(t) for t in out.traces} == {2}


def test_vectorize_properties_random():
    rng = random.Random(13)
    # Equal values() in swapped key orders: two bodies, not one.
    swapped = EventLog(("x", "y"), (
        Trace("s1", (Event("a", {"x": "1", "y": "2"}),)),
        Trace("s2", (Event("a", {"y": "1", "x": "2"}),)),
    ))
    assert swapped.traces[0].columns is not swapped.traces[1].columns
    logs = [swapped] + [repeated_bodies(rng, random_instance(rng)[0]) for _ in range(25)]
    for log in logs:
        longest = max(len(t) for t in log.traces)
        for strategy in (vectorize_naive, vectorize_msa):
            out = strategy(log)
            widths = {len(t) for t in out.traces}
            assert len(widths) == 1
            assert one_mapping_per_body(out)
            assert widths.pop() >= longest
            assert [t.case_id for t in out.traces] == [t.case_id for t in log.traces]
            # Projection round-trip: padding out, values and order intact.
            for before, after in zip(log.traces, out.traces):
                assert project(after) == project(before)
                origins = [e.origin_index for e in after.events if not e.is_wildcard]
                assert origins == list(range(len(before.events)))
                # A repeated body's trace passes every check of a fresh build.
                rebuilt = Trace.from_columns(
                    after.case_id, after.activities, after.columns, after.origins
                )
                assert rebuilt == after and rebuilt.real == after.real
            # Identical control flows get identical padding patterns.
            patterns = {}
            for trace in out.traces:
                flow = control_flow(trace)
                key = tuple(
                    e.activity for e in trace.events if not e.is_wildcard
                )
                assert patterns.setdefault(key, flow) == flow
            assert len(variants(out)) == len(variants(log))


def test_vectorize_is_deterministic():
    rng = random.Random(99)
    log, _, _ = random_instance(rng)
    assert vectorize_msa(log) == vectorize_msa(log)
    assert vectorize_naive(log) == vectorize_naive(log)
