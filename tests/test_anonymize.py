import itertools
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdg import (
    WILDCARD,
    Event,
    EventLog,
    Hierarchy,
    InsufficientTraces,
    LevelVector,
    Trace,
    satisfies,
    search,
    search_control_flow,
    validate_k,
    vectorize_msa,
    vectorize_naive,
)
from pmdg import anonymize
from pmdg.anonymize import _ascending_vectors, _level_columns
from pmdg.model import trace_signature

from helpers import (
    clinic_hierarchies,
    clinic_log,
    oracle_class_sizes,
    oracle_minimal_cost,
    oracle_satisfies,
    random_hierarchy,
    random_instance,
)


def clinic_setup():
    activity, role, _ = clinic_hierarchies()
    vectorized = vectorize_msa(clinic_log())
    return vectorized, activity, {"role": role}


def test_search_control_flow_clinic():
    vectorized, activity, _ = clinic_setup()
    assert search_control_flow(vectorized, activity, 1) == 0
    assert search_control_flow(vectorized, activity, 2) == 1


def test_search_control_flow_insufficient_traces():
    vectorized, activity, _ = clinic_setup()
    with pytest.raises(InsufficientTraces):
        search_control_flow(vectorized, activity, 3)


@pytest.mark.parametrize("empty", [False, True], ids=["log", "empty-log"])
@pytest.mark.parametrize("k", [0, -1, True, 2.5])
def test_every_entry_point_refuses_a_bad_k_before_any_work(k, empty, monkeypatch):
    vectorized, activity, roles = clinic_setup()
    log = EventLog(schema=vectorized.schema, traces=()) if empty else vectorized

    def no_work(*args):
        raise AssertionError("work began before k was checked")

    monkeypatch.setattr(anonymize, "apply_to_log", no_work)
    monkeypatch.setattr(anonymize, "trace_signature", no_work)
    for call in (
        lambda: validate_k(log, ["role"], k),
        lambda: search_control_flow(log, activity, k),
        lambda: search(log, activity, roles, ["role"], k),
        lambda: satisfies(log, LevelVector(0, {"role": 0}), activity, roles, k),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"k must be an integer >= 1, got {k!r}"


def test_a_bare_string_of_attribute_names_is_refused():
    """One string is not read as its characters, each an attribute name."""
    vectorized, activity, roles = clinic_setup()
    for call in (
        lambda: validate_k(vectorized, "role", 1),
        lambda: search(vectorized, activity, roles, "role", 1),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == (
            "attribute names must be a collection, not the string 'role'"
        )


def test_search_control_flow_unvectorized_lengths_cannot_satisfy():
    activity, _, _ = clinic_hierarchies()
    raw = clinic_log()  # lengths 4 and 3, generalization cannot merge them
    with pytest.raises(InsufficientTraces):
        search_control_flow(raw, activity, 2)


def test_search_control_flow_matches_brute_force():
    """Phase 1 returns the smallest activity level whose control-flow
    classes satisfy k under the oracle, on raw and vectorized logs, and
    raises exactly when no level does or the log has fewer than k traces."""
    rng = random.Random(47)
    outcomes = Counter()
    for _ in range(40):
        log, activity, _ = random_instance(rng)
        for candidate in (log, vectorize_msa(log)):
            for k in range(1, 5):
                levels = [
                    level
                    for level in range(activity.depth + 1)
                    if oracle_satisfies(candidate, LevelVector(level, {}), activity, {}, k)
                ]
                if levels and len(candidate.traces) >= k:
                    assert search_control_flow(candidate, activity, k) == levels[0]
                    outcomes[levels[0] > 0] += 1
                else:
                    with pytest.raises(InsufficientTraces):
                        search_control_flow(candidate, activity, k)
                    outcomes["raised"] += 1
    assert min(outcomes[True], outcomes[False], outcomes["raised"]) >= 10


def test_ascending_vectors_order_and_laziness():
    """Every vector bounded by the depths, once, by ascending cost with
    ties in lexicographic order; the walk yields them one at a time."""
    rng = random.Random(53)
    shapes = [(), (0,), (3,), (0, 0), (2, 0, 1), (0, 4, 0, 2)]
    shapes += [tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))) for _ in range(50)]
    for depths in shapes:
        lattice = itertools.product(*(range(depth + 1) for depth in depths))
        expected = sorted(lattice, key=lambda vector: (sum(vector), vector))
        assert list(_ascending_vectors(depths)) == expected
    walk = _ascending_vectors([4] * 40)  # 5**40 vectors: only a lazy walk gets far
    assert list(itertools.islice(walk, 42))[-2:] == [(1,) + (0,) * 39, (0,) * 39 + (2,)]


def test_satisfies_clinic_nodes():
    vectorized, activity, roles = clinic_setup()
    assert not satisfies(vectorized, LevelVector(1, {"role": 0}), activity, roles, 2)
    assert satisfies(vectorized, LevelVector(1, {"role": 1}), activity, roles, 2)
    assert satisfies(vectorized, LevelVector(2, {"role": 2}), activity, roles, 2)


def test_satisfies_agrees_with_independent_grouping():
    rng = random.Random(23)
    for _ in range(30):
        log, activity, attr_hs = random_instance(rng)
        vectorized = vectorize_msa(log)
        vector = LevelVector(
            rng.randint(0, activity.depth),
            {a: rng.randint(0, h.depth) for a, h in attr_hs.items()},
        )
        k = rng.randint(1, 4)
        assert satisfies(vectorized, vector, activity, attr_hs, k) == oracle_satisfies(
            vectorized, vector, activity, attr_hs, k
        )


def test_search_clinic_walkthrough():
    vectorized, activity, roles = clinic_setup()
    result = search(vectorized, activity, roles, ["role"], 2)
    assert result.chosen == LevelVector(1, {"role": 1})
    assert result.class_sizes == (2,)
    assert not result.maxed_out
    rows = [
        [(e.activity, e.attributes["role"]) for e in t.events]
        for t in result.anonymized.traces
    ]
    assert rows[0] == rows[1] == [
        ("Register", "Admin"),
        (WILDCARD, WILDCARD),
        ("Consultation", "Medical Staff"),
        ("Radiology Scan", "Medical Staff"),
    ]


def test_search_first_hit_is_minimal_cost():
    """The walk stops at the oracle's cheapest vector, ties broken
    lexicographically, after visiting exactly the vectors ranked before it;
    whole traces repeat, so the walk's row weights matter."""
    rng = random.Random(31)
    below_top = 0
    for _ in range(60):
        log, activity, attr_hs = random_instance(rng, attrs=2, depth=3)
        vectorized = vectorize_msa(log)
        vectorized = EventLog(
            schema=vectorized.schema,
            traces=tuple(
                Trace(f"{trace.case_id}-{copy}", trace.events)
                for trace in vectorized.traces
                for copy in range(rng.randint(1, 3))
            ),
        )
        k = rng.choice([2, 3])
        if len(vectorized.traces) < k:
            continue
        selected = sorted(attr_hs)
        result = search(vectorized, activity, attr_hs, selected, k)
        activity_level = result.chosen.activity_level
        best = oracle_minimal_cost(
            vectorized, activity_level, activity, attr_hs, selected, k
        )
        assert best is not None
        cost, vector = best
        assert result.chosen.cost == cost
        assert tuple(result.chosen.attribute_levels[a] for a in selected) == vector
        ranked = itertools.product(*(range(attr_hs[a].depth + 1) for a in selected))
        visited = sum((sum(v), v) <= (sum(vector), vector) for v in ranked)
        assert result.nodes_evaluated == activity_level + 1 + visited
        below_top += not result.maxed_out
    assert below_top >= 20


@st.composite
def correlated_instances(draw):
    """A vectorized log, its hierarchies and k, where each quasi-identifier
    alone is k-anonymous with raw values but no two together are: trace
    ``(r, c)`` of a k-by-k square holds leaf ``r`` of ``q0``, leaf
    ``r + c`` of ``q1`` and leaf ``r + 2c`` of ``q2`` (mod k), so each
    leaf of a quasi-identifier appears k times and each pair of leaves at
    most once.  Every trace has the same control flow, and some but trace
    ``(0, 0)`` repeat."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([2, 3]))
    selected = [f"q{i}" for i in range(draw(st.integers(2, 3)))]
    activity = random_hierarchy(rng, n_leaves=4, depth=2, prefix="a")
    attr_hs = {
        attr: random_hierarchy(rng, n_leaves=k, depth=rng.randint(1, 3),
                               attribute=attr, prefix=f"{attr}x")
        for attr in selected
    }
    flow = [rng.choice(activity.leaves) for _ in range(rng.randint(1, 3))]
    traces = []
    for r, c in itertools.product(range(k), repeat=2):
        values = {attr: attr_hs[attr].leaves[(r + i * c) % k] for i, attr in enumerate(selected)}
        for _ in range(1 if (r, c) == (0, 0) else rng.randint(1, 2)):
            events = [Event(name, values) for name in flow]
            traces.append(Trace(f"c{len(traces):03d}", events))
    log = vectorize_msa(EventLog(schema=tuple(selected), traces=tuple(traces)))
    return log, activity, attr_hs, selected, k


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(instance=correlated_instances())
def test_search_finds_the_joint_minimum_above_the_per_attribute_minima(instance):
    """Each quasi-identifier alone reaches k at a lower node than the joint
    minimum, so a bound built from the per-attribute minima must not skip
    the nodes between them; ``search`` returns the oracle's cheapest vector."""
    vectorized, activity, attr_hs, selected, k = instance
    result = search(vectorized, activity, attr_hs, selected, k)
    activity_level = result.chosen.activity_level
    cost, vector = oracle_minimal_cost(vectorized, activity_level, activity, attr_hs, selected, k)
    assert result.chosen.cost == cost
    assert tuple(result.chosen.attribute_levels[a] for a in selected) == vector

    def alone(attr):
        return next(
            level for level in range(attr_hs[attr].depth + 1)
            if oracle_satisfies(
                vectorized, LevelVector(activity_level, {attr: level}), activity, attr_hs, k
            )
        )

    minima = tuple(map(alone, selected))
    assert all(low <= level for low, level in zip(minima, vector))
    assert minima != vector
    assert not oracle_satisfies(
        vectorized, LevelVector(activity_level, dict(zip(selected, minima))),
        activity, attr_hs, k,
    )


def test_search_output_always_k_anonymous():
    rng = random.Random(37)
    for _ in range(30):
        log, activity, attr_hs = random_instance(rng)
        vectorized = rng.choice((vectorize_msa, vectorize_naive))(log)
        k = rng.randint(1, min(5, len(vectorized.traces)))
        result = search(vectorized, activity, attr_hs, list(attr_hs), k)
        report = validate_k(result.anonymized, list(attr_hs), k)
        assert report.ok
        assert result.class_sizes == tuple(sorted(report.class_sizes, reverse=True))


def test_monotone_satisfies_supports_pruning():
    rng = random.Random(41)
    for _ in range(30):
        log, activity, attr_hs = random_instance(rng)
        vectorized = vectorize_msa(log)
        k = rng.randint(2, 4)
        if len(vectorized.traces) < k:
            continue
        base = LevelVector(
            rng.randint(0, activity.depth),
            {a: rng.randint(0, h.depth) for a, h in attr_hs.items()},
        )
        if not satisfies(vectorized, base, activity, attr_hs, k):
            continue
        bumped = LevelVector(
            min(base.activity_level + rng.randint(0, 1), activity.depth),
            {
                a: min(base.attribute_levels[a] + rng.randint(0, 1), attr_hs[a].depth)
                for a in attr_hs
            },
        )
        assert bumped.activity_level >= base.activity_level and all(
            bumped.attribute_levels[a] >= base.attribute_levels[a] for a in attr_hs
        )
        assert satisfies(vectorized, bumped, activity, attr_hs, k)


class _CountedTraces(tuple):
    """A log's traces that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_search_reads_the_log_twice_and_the_activity_levels_once():
    """One pass groups the log into its table of distinct rows and one
    builds the output; the unknown-value check and both phases read the
    table, and phase 2's frozen flows come from phase 1's ``level_ids``."""
    activity, role, location = clinic_hierarchies()
    log = vectorize_msa(clinic_log(with_location=True))
    traces = _CountedTraces(log.traces)
    object.__setattr__(log, "traces", traces)
    calls = []
    level_ids = activity.level_ids
    activity.level_ids = lambda sequences: calls.append(1) or level_ids(sequences)
    hierarchies = {"role": role, "location": location}
    result = search(log, activity, hierarchies, ["role", "location"], 2)
    assert result.chosen == LevelVector(1, {"location": 1, "role": 1})
    assert (traces.passes, len(calls)) == (2, 1)


def test_level_columns_give_the_oracle_classes_at_every_activity_level():
    """The phase-2 column builder is right at any activity level, not only
    the one phase 1 picks: for every node, the weighted classes of its
    columns are the oracle's."""
    rng = random.Random(53)
    for _ in range(25):
        log, activity, attr_hs = random_instance(rng, attrs=2, depth=3)
        log = vectorize_msa(log)
        selected = sorted(attr_hs)
        rows = Counter(trace_signature(trace, selected) for trace in log.traces)
        flow_ids = activity.level_ids(flow for flow, _ in rows)
        hierarchies = [attr_hs[attr] for attr in selected]
        for level in range(activity.depth + 1):
            columns = _level_columns(rows, flow_ids, level, activity, hierarchies)
            for vector in itertools.product(*(range(h.depth + 1) for h in hierarchies)):
                streams = [columns[0][0], *(ids[v] for ids, v in zip(columns[1:], vector))]
                sizes = Counter()
                for key, weight in zip(zip(*streams), rows.values()):
                    sizes[key] += weight
                node = LevelVector(level, dict(zip(selected, vector)))
                assert sorted(sizes.values(), reverse=True) == oracle_class_sizes(
                    log, node, activity, attr_hs
                )


def test_search_without_attributes():
    vectorized, activity, _ = clinic_setup()
    result = search(vectorized, activity, {}, [], 2)
    assert result.chosen == LevelVector(1, {})
    assert result.class_sizes == (2,)


def test_search_warns_when_attribute_lattice_maxes_out(caplog):
    activity = Hierarchy.from_rows([("A", WILDCARD)])
    role = Hierarchy.from_rows(
        [("x", WILDCARD), ("y", WILDCARD)], attribute="role"
    )
    log = EventLog(
        schema=("role",),
        traces=(
            Trace("1", (Event("A", {"role": "x"}),)),
            Trace("2", (Event("A", {"role": "y"}),)),
        ),
    )
    with caplog.at_level(logging.WARNING, logger="pmdg.anonymize"):
        result = search(log, activity, {"role": role}, ["role"], 2)
    assert result.maxed_out
    assert result.chosen == LevelVector(0, {"role": 1})
    assert any("exhausted" in message for message in caplog.messages)


def test_search_control_flow_warns_at_the_top_activity_level(caplog):
    # Level 1 merges A and B but leaves the one C alone; only ``⋆`` hides it.
    activity = Hierarchy.from_rows(
        [("A", "AB", WILDCARD), ("B", "AB", WILDCARD), ("C", "C", WILDCARD)]
    )
    log = EventLog(schema=(), traces=tuple(
        Trace.from_columns(str(i), [flow], {}) for i, flow in enumerate("AABC")
    ))
    with caplog.at_level(logging.WARNING, logger="pmdg.anonymize"):
        assert search_control_flow(log, activity, 1) == 0
        assert caplog.messages == []
        assert search_control_flow(log, activity, 2) == 2
        assert search_control_flow(log, activity, 3) == 2
    two, three = caplog.messages
    assert "k=2" in two and "below k hold 1 traces at level 1" in two
    # At k=3 the class AB holds exactly k traces, so only C counts.
    assert "k=3" in three and "below k hold 1 traces at level 1" in three


def test_search_rechecks_the_node_it_returns(monkeypatch):
    # A phase-2 walk that returns a node one level too low in its first
    # generalized attribute: the re-check on the built log must catch it.
    vectorized, activity, roles = clinic_setup()
    first_hit = anonymize._first_hit

    def one_level_low(columns, weights, k):
        hit = first_hit(columns, weights, k)
        if len(columns) == 1:  # phase 1
            return hit
        (flow, *levels), checked = hit
        levels[next(i for i, level in enumerate(levels) if level)] -= 1
        return (flow, *levels), checked

    monkeypatch.setattr(anonymize, "_first_hit", one_level_low)
    with pytest.raises(AssertionError,
                       match="^internal error: chosen node fails its own k check$"):
        search(vectorized, activity, roles, ["role"], 2)


def test_search_rejects_unknown_selection():
    vectorized, activity, roles = clinic_setup()
    with pytest.raises(ValueError):
        search(vectorized, activity, roles, ["ghost"], 2)
    with pytest.raises(ValueError):
        search(vectorized, activity, {}, ["role"], 2)


def test_search_is_deterministic():
    rng = random.Random(43)
    log, activity, attr_hs = random_instance(rng)
    vectorized = vectorize_msa(log)
    k = min(2, len(vectorized.traces))
    first = search(vectorized, activity, attr_hs, list(attr_hs), k)
    second = search(vectorized, activity, attr_hs, list(attr_hs), k)
    assert first.chosen == second.chosen
    assert first.anonymized == second.anonymized
    assert first.nodes_evaluated == second.nodes_evaluated