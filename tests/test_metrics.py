import random
from collections import Counter
from fractions import Fraction

import pytest

from pmdg import (
    WILDCARD,
    Event,
    EventLog,
    HandoverPair,
    Hierarchy,
    LevelVector,
    LinkageBroken,
    Trace,
    UnknownAttribute,
    apply_to_log,
    export_dot,
    handover_graph,
    handover_precision,
    handover_preservation,
    read_log_csv,
    remaining_variants,
    search,
    vectorize_msa,
    write_log_csv,
)
from pmdg import metrics
from pmdg.metrics import _handovers

from helpers import (
    clinic_hierarchies,
    clinic_log,
    country_hierarchy,
    oracle_handovers,
    random_instance,
    repeated_bodies,
)


def test_remaining_variants():
    log = clinic_log()
    assert remaining_variants(log) == 2
    doubled = EventLog(
        schema=log.schema,
        traces=log.traces + (Trace("07b", log.traces[0].events),),
    )
    assert remaining_variants(doubled) == 2


def test_handover_graph_clinic():
    graph = handover_graph(clinic_log(), "role")
    assert graph.nodes == ("Admin", "CA", "GP")
    assert graph.edges == {
        ("Admin", "CA"): 1,
        ("Admin", "GP"): 1,
        ("CA", "CA"): 1,
        ("GP", "CA"): 1,
        ("GP", "GP"): 1,
    }
    assert graph.weight("GP", "CA") == 1
    assert graph.weight("CA", "GP") == 0


def test_handover_graph_skips_padding():
    vectorized = vectorize_msa(clinic_log())
    graph = handover_graph(vectorized, "role")
    # Case 08's padding column must not break the Admin -> CA handover.
    assert graph.edges[("Admin", "CA")] == 1
    assert graph == handover_graph(clinic_log(), "role")


def test_handover_graph_isolated_nodes():
    log = EventLog(
        schema=("r",),
        traces=(Trace("1", (Event("A", {"r": "solo"}),)),),
    )
    graph = handover_graph(log, "r")
    assert graph.nodes == ("solo",)
    assert graph.edges == {}
    with pytest.raises(UnknownAttribute):
        handover_graph(log, "ghost")


def test_handover_preservation_formula():
    h = country_hierarchy()
    assert h.alpha("Europe") == 44
    assert h.alpha(WILDCARD) == 195
    pair = HandoverPair(("Germany", "China"), ("Europe", "China"))
    expected = (Fraction(152, 195) + 1) / 2
    assert abs(handover_preservation(pair, h) - float(expected)) < 1e-12

    untouched = HandoverPair(("Germany", "China"), ("Germany", "China"))
    assert handover_preservation(untouched, h) == 1.0

    _, role, _ = clinic_hierarchies()
    hidden = HandoverPair(("GP", "CA"), (WILDCARD, WILDCARD))
    assert abs(handover_preservation(hidden, role) - 1.0 / 3.0) < 1e-12


def test_handover_precision_clinic_by_hand():
    # Every pair scored manually against the generalized clinic log:
    # case 07 contributes 2/3, 1/2, 2/3 and case 08 contributes 5/6, 2/3.
    activity, role, _ = clinic_hierarchies()
    original = clinic_log()
    vectorized = vectorize_msa(original)
    result = search(vectorized, activity, {"role": role}, ["role"], 2)
    expected = (
        Fraction(2, 3) + Fraction(1, 2) + Fraction(2, 3)
        + Fraction(5, 6) + Fraction(2, 3)
    ) / 5
    value = handover_precision(original, result.anonymized, "role", role)
    assert abs(value - 100.0 * float(expected)) < 1e-9


def test_handover_precision_identity_is_hundred():
    _, role, _ = clinic_hierarchies()
    original = clinic_log()
    identical = vectorize_msa(original)
    assert handover_precision(original, identical, "role", role) == 100.0


def test_handover_precision_no_pairs_scores_hundred():
    _, role, _ = clinic_hierarchies()
    log = EventLog(
        schema=("role",),
        traces=(Trace("1", (Event("Register", {"role": "Admin"}),)),),
    )
    assert handover_precision(log, log, "role", role) == 100.0


def test_handover_precision_pair_aggregation():
    _, role, _ = clinic_hierarchies()
    original = EventLog(
        schema=("role",),
        traces=tuple(
            Trace(
                str(i),
                (
                    Event("A", {"role": "GP"}, origin_index=0),
                    Event("B", {"role": "CA"}, origin_index=1),
                ),
            )
            for i in range(5)
        ),
    )
    generalized = EventLog(
        schema=("role",),
        traces=tuple(
            Trace(
                str(i),
                (
                    Event("A", {"role": "Medical Staff"}, origin_index=0),
                    Event("B", {"role": "Medical Staff"}, origin_index=1),
                ),
            )
            for i in range(5)
        ),
    )
    by_occurrence = handover_precision(original, generalized, "role", role)
    by_pairs = handover_precision(original, generalized, "role", role,
                                  aggregate="pairs")
    # Identical handovers repeated five times: both aggregations agree.
    assert abs(by_occurrence - by_pairs) < 1e-12
    assert abs(by_occurrence - 100.0 * 2.0 / 3.0) < 1e-9
    # One untouched handover more counts once among six occurrences but
    # as one of two distinct pairs.
    untouched = Trace("5", (Event("A", {"role": "Admin"}), Event("B", {"role": "GP"})))
    original = EventLog(("role",), original.traces + (untouched,))
    generalized = EventLog(("role",), generalized.traces + (untouched,))
    by_occurrence = handover_precision(original, generalized, "role", role)
    by_pairs = handover_precision(original, generalized, "role", role,
                                  aggregate="pairs")
    assert abs(by_occurrence - 100.0 * (5 * 2 / 3 + 1) / 6) < 1e-9
    assert abs(by_pairs - 100.0 * (2 / 3 + 1) / 2) < 1e-9


def test_handover_precision_linkage_errors(tmp_path):
    original = clinic_log()
    _, role, _ = clinic_hierarchies()
    missing_case = EventLog(schema=("role",), traces=())
    with pytest.raises(LinkageBroken):
        handover_precision(original, missing_case, "role", role)
    # Case 08 is narrower than the aligned width, so its events are matched
    # by order; a re-read file turns its masked event into padding.
    masked = EventLog(
        schema=("role",),
        traces=tuple(
            Trace(t.case_id, tuple(
                Event(WILDCARD, {"role": WILDCARD}, origin_index=0)
                if t.case_id == "08" and e.origin_index == 0 else e
                for e in t.events
            ))
            for t in vectorize_msa(original).traces
        ),
    )
    path = tmp_path / "masked.csv"
    write_log_csv(masked, path)
    with pytest.raises(LinkageBroken):
        handover_precision(original, read_log_csv(path), "role", role)
    with pytest.raises(UnknownAttribute):
        handover_precision(original, original, "ghost", role)


def test_handover_pairs_agree_on_all_input_forms(tmp_path):
    rng = random.Random(53)
    for _ in range(10):
        log, activity, attr_hs = random_instance(rng)
        vectorized = vectorize_msa(log)
        k = rng.randint(1, min(3, len(vectorized.traces)))
        result = search(vectorized, activity, attr_hs, list(attr_hs), k)
        attr = sorted(attr_hs)[0]
        path = tmp_path / "anon.csv"
        write_log_csv(result.anonymized, path)
        reread = read_log_csv(path)
        # Pre-vectorization log against the in-memory result, vectorized log
        # against the in-memory result, and vectorized log against a CSV
        # re-read that lost the origins of fully masked events.
        forms = [
            _handovers(log, result.anonymized, attr),
            _handovers(vectorized, result.anonymized, attr),
            _handovers(vectorized, reread, attr),
        ]
        assert forms[0] == forms[1] == forms[2]
        assert forms[0] == Counter(oracle_handovers(log, result.anonymized, attr))


def test_handovers_pair_each_distinct_pair_of_bodies_once(monkeypatch):
    """However many cases share a pair of original and image ``columns``
    mappings, its events are paired once: one ``_at`` call for the original
    column and one for the image's."""
    at, calls = metrics._at, []

    def counted(column, positions):
        calls.append(column)
        return at(column, positions)

    monkeypatch.setattr(metrics, "_at", counted)
    rng = random.Random(67)
    shared = 0
    for _ in range(30):
        log, activity, attr_hs = random_instance(rng)
        log = repeated_bodies(rng, log)
        vectorized = vectorize_msa(log)
        levels = LevelVector(
            rng.randint(0, activity.depth),
            {attr: rng.randint(0, h.depth) for attr, h in attr_hs.items()},
        )
        anonymized = apply_to_log(vectorized, levels, activity, attr_hs)
        images = {trace.case_id: trace for trace in anonymized.traces}
        attr = sorted(attr_hs)[0]
        for original in (log, vectorized):
            pairs = Counter(
                (id(trace.columns), id(images[trace.case_id].columns))
                for trace in original.traces
            )
            shared += sum(cases > 1 for cases in pairs.values())
            calls.clear()
            counts = _handovers(original, anonymized, attr)
            assert len(calls) == 2 * len(pairs)
            assert counts == Counter(oracle_handovers(original, anonymized, attr))
    assert shared >= 10


def _oracle_precision(original, anonymized, attribute, hierarchy, aggregate):
    """``handover_precision`` as one ``handover_preservation`` per pair, summed
    in ``sorted`` order of the ``HandoverPair`` counts of a per-trace pairing."""
    counts = Counter(
        HandoverPair((o1, o2), (g1, g2))
        for o1, o2, g1, g2 in oracle_handovers(original, anonymized, attribute)
    )
    if not counts:
        return 100.0
    total = weight = 0.0
    for pair, count in sorted(counts.items()):
        if aggregate == "pairs":
            count = 1
        total += count * handover_preservation(pair, hierarchy)
        weight += count
    return 100.0 * total / weight


def test_handover_precision_is_bit_identical_to_per_pair_oracle():
    rng = random.Random(61)
    for _ in range(200):
        log, activity, attr_hs = random_instance(rng, attrs=rng.randint(1, 3))
        log = repeated_bodies(rng, log)  # pairs weighted by repeated cases
        vectorized = vectorize_msa(log)
        levels = LevelVector(
            rng.randint(0, activity.depth),
            {attr: rng.randint(0, h.depth) for attr, h in attr_hs.items()},
        )
        anonymized = apply_to_log(vectorized, levels, activity, attr_hs)
        for original in (log, vectorized):
            for attr, hierarchy in attr_hs.items():
                for aggregate in ("occurrences", "pairs"):
                    # ``==``, not approx: manifests print this value.
                    assert handover_precision(
                        original, anonymized, attr, hierarchy, aggregate
                    ) == _oracle_precision(original, anonymized, attr, hierarchy, aggregate)


def test_handover_precision_unknown_aggregate():
    _, role, _ = clinic_hierarchies()
    log = clinic_log()
    with pytest.raises(ValueError):
        handover_precision(log, log, "role", role, aggregate="mean")


def test_export_dot_deterministic(tmp_path):
    graph = handover_graph(clinic_log(), "role")
    first, second = tmp_path / "a.dot", tmp_path / "b.dot"
    export_dot(graph, first)
    export_dot(graph, second)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text(encoding="utf-8")
    assert text == (
        "digraph handover {\n"
        "  rankdir=LR;\n"
        '  label="role";\n'
        '  "Admin";\n'
        '  "CA";\n'
        '  "GP";\n'
        '  "Admin" -> "CA" [label="1"];\n'
        '  "Admin" -> "GP" [label="1"];\n'
        '  "CA" -> "CA" [label="1"];\n'
        '  "GP" -> "CA" [label="1"];\n'
        '  "GP" -> "GP" [label="1"];\n'
        "}\n"
    )


def test_export_dot_escapes_quotes(tmp_path):
    log = EventLog(
        schema=("r",),
        traces=(
            Trace(
                "1",
                (
                    Event("A", {"r": 'say "hi"'}),
                    Event("B", {"r": "back\\slash"}),
                ),
            ),
        ),
    )
    path = tmp_path / "g.dot"
    export_dot(handover_graph(log, "r"), path)
    text = path.read_text(encoding="utf-8")
    assert '"say \\"hi\\""' in text
    assert '"back\\\\slash"' in text
