import random
from collections import Counter

import pytest

from pmdg import (
    WILDCARD,
    EmptyLog,
    Event,
    EventLog,
    Hierarchy,
    Trace,
    UnknownAttribute,
    select,
)

from helpers import (
    clinic_hierarchies,
    clinic_log,
    oracle_generalize,
    random_hierarchy,
    random_raw_log,
)


def single_event_log(attr, values):
    return EventLog(
        schema=(attr,),
        traces=tuple(
            Trace(str(i), (Event("A", {attr: v}),)) for i, v in enumerate(values)
        ),
    )


def _per_level(log, hierarchy, notion="class_count"):
    """The candidate's per-level utilities, as ``select`` reports them."""
    return select(log, [hierarchy], notion=notion)[1][0].per_level


def test_class_count_per_level_against_enumeration():
    # Six one-event traces; candidate merges them pairwise at level 1.
    log = single_event_log("role", ["r1", "r2", "r3", "r4", "r5", "r6"])
    deep = Hierarchy.from_rows(
        [
            ("r1", "g1", WILDCARD),
            ("r2", "g1", WILDCARD),
            ("r3", "g2", WILDCARD),
            ("r4", "g2", WILDCARD),
            ("r5", "g3", WILDCARD),
            ("r6", "g3", WILDCARD),
        ],
        attribute="role",
    )
    expected = tuple(
        len(Counter(
            tuple(oracle_generalize(deep, e.attributes["role"], level) for e in t.events)
            for t in log.traces
        ))
        for level in (1, 2)
    )
    assert _per_level(log, deep) == expected == (3.0, 1.0)


def test_size_balance_per_level():
    deep = Hierarchy.from_rows(
        [("r1", "r1", WILDCARD), ("r2", "r2", WILDCARD)], attribute="role"
    )
    # Level 1 classes have sizes {2, 2}: perfectly balanced.
    balanced = single_event_log("role", ["r1", "r1", "r2", "r2"])
    assert _per_level(balanced, deep, "size_balance") == (1.0, 1.0)
    skewed = single_event_log("role", ["r1", "r1", "r1", "r2"])
    level_1, level_2 = _per_level(skewed, deep, "size_balance")
    assert 0 < level_1 < 1 and level_2 == 1.0


def test_utility_of_the_activity_perspective():
    from pmdg import vectorize_msa

    raw = clinic_log()
    activity, _, _ = clinic_hierarchies()
    # Raw traces have different lengths, so they never share a class.
    assert _per_level(raw, activity) == (2.0, 2.0)
    assert _per_level(vectorize_msa(raw), activity) == (1.0, 1.0)


def test_select_rejects_unknown_notion_and_attribute():
    log = clinic_log()
    _, role, _ = clinic_hierarchies()
    with pytest.raises(ValueError):
        select(log, [role], notion="vibes")
    other = Hierarchy.from_rows([("x", WILDCARD)], attribute="nope")
    with pytest.raises(UnknownAttribute):
        select(log, [role, other])
    with pytest.raises(ValueError, match="^weights must be a non-empty list of finite, non-negative numbers$"):
        select(log, [role], weights=())


def test_select_weight_extension():
    log = single_event_log("role", ["r1", "r2"])
    deep = Hierarchy.from_rows(
        [("r1", "r1", "g", WILDCARD), ("r2", "r2", "g", WILDCARD)],
        attribute="role",
    )
    (profile,) = select(log, [deep], weights=[1.0, 0.5])[1]
    assert profile.weights == (1.0, 0.5, 0.5)
    assert profile.per_level == (2.0, 1.0, 1.0)
    assert profile.total == 1.0 * 2 + 0.5 * 1 + 0.5 * 1
    (trimmed,) = select(log, [deep], weights=[1.0, 1.0, 1.0, 1.0, 1.0])[1]
    assert trimmed.weights == (1.0, 1.0, 1.0)


def test_select_prefers_retained_structure():
    # One candidate collapses to the wildcard immediately, one keeps an
    # intermediate grouping level: totals 1 versus 3 + 1.
    log = single_event_log("role", ["r1", "r2", "r3", "r4", "r5", "r6"])
    flat = Hierarchy.from_rows(
        [(f"r{i}", WILDCARD) for i in range(1, 7)], attribute="role"
    )
    deep = Hierarchy.from_rows(
        [
            ("r1", "g1", WILDCARD),
            ("r2", "g1", WILDCARD),
            ("r3", "g2", WILDCARD),
            ("r4", "g2", WILDCARD),
            ("r5", "g3", WILDCARD),
            ("r6", "g3", WILDCARD),
        ],
        attribute="role",
    )
    winner, profiles = select(log, [flat, deep], weights=[1.0, 1.0])
    assert winner is deep
    assert profiles[0].total == 1.0
    assert profiles[1].total == 4.0


def test_select_tie_breaks_shallower_then_input_order():
    log = single_event_log("role", ["r1", "r1"])
    shallow = Hierarchy.from_rows([("r1", WILDCARD)], attribute="role")
    deep = Hierarchy.from_rows([("r1", "r1", WILDCARD)], attribute="role")
    # Weights are cut to each candidate's depth, so only the first level
    # counts here and both candidates total 1.0: the tie goes to the
    # shallower hierarchy.
    winner, _ = select(log, [deep, shallow], weights=[1.0, 0.0])
    assert winner is shallow
    twin = Hierarchy.from_rows([("r1", WILDCARD)], attribute="role")
    winner, _ = select(log, [shallow, twin], weights=[1.0])
    assert winner is shallow


def test_select_requires_candidates():
    with pytest.raises(ValueError):
        select(clinic_log(), [])


@pytest.mark.parametrize("notion", ["class_count", "size_balance"])
def test_select_on_a_log_without_traces_raises_empty_log(notion):
    activity, role, _ = clinic_hierarchies()
    with pytest.raises(EmptyLog, match="empty log"):
        select(EventLog(schema=("role",)), [activity, role], notion=notion)


def test_select_on_random_logs_is_deterministic():
    rng = random.Random(17)
    h1 = random_hierarchy(rng, 6, 3, attribute="q0", prefix="q0x")
    h2 = random_hierarchy(rng, 6, 2, attribute="q0", prefix="q0x")
    act = random_hierarchy(rng, 5, 2, prefix="a")
    log = random_raw_log(rng, act, {"q0": h1})
    first = select(log, [h1, h2], weights=[1.0])
    second = select(log, [h1, h2], weights=[1.0])
    assert first[0] is second[0]
    assert first[1] == second[1]
