import random

import pytest

from pmdg import (
    MISSING,
    WILDCARD,
    DuplicateLeaf,
    Event,
    EventLog,
    Hierarchy,
    HierarchyFormatError,
    HierarchyTable,
    InconsistentDepth,
    LevelVector,
    MissingRoot,
    NonFunctionalLevel,
    Trace,
    UnknownValue,
    apply_to_log,
    vectorize_naive,
)

from helpers import (
    clinic_hierarchies,
    clinic_log,
    one_mapping_per_body,
    oracle_generalize,
    random_hierarchy,
    random_instance,
    repeated_bodies,
)


def test_validate_table_accepts_repeats_across_levels():
    table = HierarchyTable(
        [
            ("a", "a", "ab", WILDCARD),
            ("b", "b", "ab", WILDCARD),
            ("c", "cd", "cd", WILDCARD),
            ("d", "cd", "cd", WILDCARD),
        ]
    )
    assert table.depth == 3
    assert table.leaves == ("a", "b", "c", "d")


def test_validate_table_errors():
    with pytest.raises(InconsistentDepth):
        HierarchyTable([("a", "x", WILDCARD), ("b", WILDCARD)])
    with pytest.raises(MissingRoot):
        HierarchyTable([("a", "x"), ("b", "x")])
    with pytest.raises(DuplicateLeaf):
        HierarchyTable([("a", WILDCARD), ("a", WILDCARD)])
    with pytest.raises(NonFunctionalLevel):
        HierarchyTable(
            [("a", "x", "p", WILDCARD), ("b", "x", "q", WILDCARD)]
        )
    # A ``⋆`` or a ``⊥`` that is no leaf meets the data's ``⋆`` or ``⊥``
    # at level 1 and would split from it at level 2.
    for rows in ([("x", WILDCARD, "y", WILDCARD)], [("x", MISSING, "y", WILDCARD)]):
        with pytest.raises(NonFunctionalLevel) as raised:
            HierarchyTable(rows)
        assert str(raised.value) == (
            f"value {rows[0][1]!r} at level 1 maps to both {rows[0][1]!r} and 'y'"
        )
        with pytest.raises(NonFunctionalLevel):
            Hierarchy.from_rows(rows)
    # A ``⊥`` leaf follows its own row, so the same cells are functional.
    HierarchyTable([("x", MISSING, "y", WILDCARD), (MISSING, MISSING, "y", WILDCARD)])
    with pytest.raises(HierarchyFormatError):
        HierarchyTable([])
    with pytest.raises(HierarchyFormatError):
        HierarchyTable([(WILDCARD, WILDCARD)])
    with pytest.raises(InconsistentDepth):
        HierarchyTable([("a",)])
    # A log file reads an empty cell as ``⊥``, so no level value may be empty.
    for rows in ([("a", "", WILDCARD)], [("a", " x", WILDCARD), ("  ", " x ", WILDCARD)]):
        with pytest.raises(HierarchyFormatError, match=f"row {len(rows)} has an empty cell"):
            HierarchyTable(rows)


def test_hierarchy_table_is_checked_however_built():
    # A table without the ``⋆`` root once built and left ``search`` with no
    # node satisfying k.
    with pytest.raises(MissingRoot):
        Hierarchy(HierarchyTable(rows=(("A", "A"), ("B", "B"))))
    with pytest.raises(NonFunctionalLevel):
        HierarchyTable(rows=(("a", "x", "p", WILDCARD), ("b", "x", "q", WILDCARD)))
    table = HierarchyTable(rows=((" Cafe\u0301 ", " g", WILDCARD),))
    assert table.rows == (("Caf\u00e9", "g", WILDCARD),)
    assert table == HierarchyTable([("Caf\u00e9", "g", WILDCARD)])


def test_missing_leaf_conflicts_are_reported_in_row_order():
    # The ``⊥`` leaf's row comes second, so its parent is the one named second.
    rows = [("a", "g", "p", WILDCARD), (MISSING, "g", "q", WILDCARD)]
    for build in (HierarchyTable, Hierarchy.from_rows):
        with pytest.raises(NonFunctionalLevel) as raised:
            build(rows)
        assert str(raised.value) == "value 'g' at level 1 maps to both 'p' and 'q'"
    # The level maps kept from the check are neither compared nor shown.
    table = HierarchyTable([("a", "g", WILDCARD), (MISSING, "g", WILDCARD)])
    assert repr(table) == f"HierarchyTable(rows={table.rows!r})"
    assert hash(table) == hash(HierarchyTable(table.rows))


def test_generalize_is_row_lookup():
    hierarchy = Hierarchy.from_rows(
        [
            ("a", "a", "top", WILDCARD),
            ("b", "mid", "top", WILDCARD),
        ]
    )
    assert hierarchy.generalize("a", 0) == "a"
    assert hierarchy.generalize("a", 1) == "a"  # stays at itself
    assert hierarchy.generalize("a", 2) == "top"
    assert hierarchy.generalize("a", 3) == WILDCARD
    assert hierarchy.generalize("b", 1) == "mid"
    with pytest.raises(UnknownValue):
        hierarchy.generalize("mid", 1)  # not a leaf
    with pytest.raises(ValueError):
        hierarchy.generalize("a", 4)


def test_generalize_wildcard_and_missing():
    _, role, _ = clinic_hierarchies()
    assert role.generalize(WILDCARD, 0) == WILDCARD
    assert role.generalize(WILDCARD, 2) == WILDCARD
    # The missing literal survives until the root unless the table maps it.
    assert role.generalize(MISSING, 0) == MISSING
    assert role.generalize(MISSING, 1) == MISSING
    assert role.generalize(MISSING, 2) == WILDCARD
    explicit = Hierarchy.from_rows(
        [("x", "known", WILDCARD), (MISSING, "known", WILDCARD)]
    )
    assert explicit.generalize(MISSING, 1) == "known"


def _table_hierarchies(rng):
    """Random tables, plus hand-built ones with suppress-late rows, ``⊥``
    as a leaf and not, and ``⋆`` cells below the root."""
    for _ in range(60):
        yield random_hierarchy(
            rng, n_leaves=rng.randint(1, 10), depth=rng.randint(1, 4),
            attribute=rng.choice([None, "role"]),
        )
    yield Hierarchy.from_rows([("a", WILDCARD)])  # depth 1: ``⊥`` is ``⋆`` at once
    yield Hierarchy.from_rows([("a", "g", WILDCARD), ("b", "g", WILDCARD)])
    yield Hierarchy.from_rows(
        [("a", "a", "g", WILDCARD), (MISSING, "gap", "g", WILDCARD)], attribute="role"
    )
    yield Hierarchy.from_rows([(MISSING, MISSING, WILDCARD), ("b", "b", WILDCARD)])
    yield Hierarchy.from_rows(  # suppress late: values stay put, then merge
        [("a", "a", "a", "g", WILDCARD), ("b", "b", "g", "g", WILDCARD),
         ("c", "c", "c", "c", WILDCARD)]
    )
    yield Hierarchy.from_rows(  # ``⊥`` is no leaf but a cell, meeting the data's
        [("x", MISSING, MISSING, WILDCARD), ("y", "y", MISSING, WILDCARD),
         ("z", "z", "z", WILDCARD)], attribute="role"
    )
    yield Hierarchy.from_rows(  # ``⋆`` cells below the root
        [("a", WILDCARD, WILDCARD, WILDCARD), ("b", "g", WILDCARD, WILDCARD),
         (MISSING, "m", "h", WILDCARD), ("c", "c", "h", WILDCARD)]
    )


def test_lookup_tables_match_generalize():
    rng = random.Random(41)
    for hierarchy in _table_hierarchies(rng):
        accepted = (*hierarchy.leaves, WILDCARD, MISSING)
        sequences = [accepted, (), *((v,) for v in accepted)] + [
            tuple(rng.choices(accepted, k=rng.randint(0, 3))) for _ in range(20)
        ]
        ids = hierarchy.level_ids(sequences)
        assert len(ids) == hierarchy.depth + 1
        for level in range(hierarchy.depth + 1):
            expected = {v: oracle_generalize(hierarchy, v, level) for v in accepted}
            table = hierarchy.lookup(level)
            assert dict(table) == expected  # the same values, no others
            assert {v: hierarchy.generalize(v, level) for v in accepted} == expected
            # Equal ids exactly for equal images, numbered by first sight.
            first_sight: dict[tuple, int] = {}
            assert ids[level] == [
                first_sight.setdefault(tuple(expected[v] for v in sequence), len(first_sight))
                for sequence in sequences
            ]
            with pytest.raises(UnknownValue) as checked:
                hierarchy.generalize("nope", level)
            with pytest.raises(UnknownValue) as oracle:
                oracle_generalize(hierarchy, "nope", level)
            assert str(checked.value) == str(oracle.value)
            assert str(oracle.value) == f"'nope' is not a leaf of the {hierarchy.name} hierarchy"
        # The first unknown value in scan order is the one reported.
        with pytest.raises(UnknownValue) as raised:
            hierarchy.level_ids([accepted, (accepted[0], "nope", "later"), ("later",)])
        assert str(raised.value) == str(oracle.value)
        for level in (-1, hierarchy.depth + 1):
            with pytest.raises(ValueError) as oracle:
                oracle_generalize(hierarchy, "nope", level)
            for out_of_range in (
                lambda: hierarchy.lookup(level),
                lambda: hierarchy.generalize(accepted[0], level),
            ):
                with pytest.raises(ValueError) as raised:
                    out_of_range()
                assert str(raised.value) == str(oracle.value)


def test_alpha_counts_leaves():
    activity, role, _ = clinic_hierarchies()
    assert role.alpha("GP") == 1
    assert role.alpha("Medical Staff") == 2
    assert role.alpha(WILDCARD) == 3
    assert activity.alpha("Radiology Scan") == 2
    assert activity.alpha(WILDCARD) == 5
    # Implicit missing literal counts as its own single leaf.
    assert role.alpha(MISSING) == 1
    with pytest.raises(UnknownValue):
        role.alpha("Surgeon")


def test_alpha_with_stay_at_self_rows():
    hierarchy = Hierarchy.from_rows(
        [
            ("a", "a", "g", WILDCARD),
            ("b", "a", "g", WILDCARD),
            ("c", "c", "g", WILDCARD),
        ]
    )
    # "a" names both a leaf and its level-1 group of two leaves.
    assert hierarchy.alpha("a") == 2
    assert hierarchy.alpha("g") == 3
    assert hierarchy.alpha(WILDCARD) == 3


def test_hierarchy_cells_are_nfc_normalized():
    decomposed, composed = "Cafe\u0301", "Caf\u00e9"  # both render as 'Café'
    role = Hierarchy.from_rows(
        [
            (decomposed, f"{decomposed} Staff", WILDCARD),
            ("Bar", f"{decomposed} Staff", WILDCARD),
        ],
        attribute="role",
    )
    assert role.leaves == (composed, "Bar")
    value = Event("A", {"role": decomposed}).attributes["role"]  # as a log stores it
    assert role.generalize(value, 0) == composed
    generalized = role.generalize(value, 1)
    assert generalized == f"{composed} Staff"
    assert role.alpha(Event("A", {"role": generalized}).attributes["role"]) == 2


def test_functional_consistency_property_random():
    rng = random.Random(42)
    for _ in range(20):
        hierarchy = random_hierarchy(
            rng, n_leaves=rng.randint(3, 12), depth=rng.randint(1, 5)
        )
        for level in range(hierarchy.depth):
            image: dict[str, str] = {}
            for leaf in hierarchy.leaves:
                value = hierarchy.generalize(leaf, level)
                parent = hierarchy.generalize(leaf, level + 1)
                assert image.setdefault(value, parent) == parent


def test_level_vector_cost():
    small = LevelVector(1, {"r": 0, "s": 2})
    assert small.cost == 3
    with pytest.raises(ValueError):
        LevelVector(-1)


def test_apply_to_log_level_zero_is_identity():
    log = clinic_log()
    activity, role, _ = clinic_hierarchies()
    unchanged = apply_to_log(log, LevelVector(0, {"role": 0}), activity, {"role": role})
    assert unchanged == log


def test_apply_to_log_top_level_masks_everything():
    log = clinic_log()
    activity, role, _ = clinic_hierarchies()
    top = apply_to_log(log, LevelVector(2, {"role": 2}), activity, {"role": role})
    for trace in top.traces:
        for event in trace.events:
            assert event.activity == WILDCARD
            assert event.attributes["role"] == WILDCARD


def test_apply_to_log_masks_attributes_of_hidden_activities():
    # "Vitals" generalizes to the wildcard at level 1; the event's role
    # must disappear with it even though the role level is 0.
    log = clinic_log()
    activity, role, _ = clinic_hierarchies()
    out = apply_to_log(log, LevelVector(1, {"role": 0}), activity, {"role": role})
    vitals_image = out.traces[0].events[1]
    assert vitals_image.activity == WILDCARD
    assert vitals_image.attributes["role"] == WILDCARD
    assert vitals_image.origin_index == log.traces[0].events[1].origin_index
    # Events whose activity survives keep their exact role at level 0.
    assert out.traces[0].events[2].attributes["role"] == "GP"


def test_apply_to_log_leaves_unlisted_attributes_alone():
    log = clinic_log(with_location=True)
    activity, role, _ = clinic_hierarchies()
    out = apply_to_log(log, LevelVector(0, {"role": 1}), activity, {"role": role})
    assert [e.attributes["location"] for e in out.traces[0].events] == [
        "Day Clinic", "Day Clinic", "Day Clinic", "Hospital",
    ]


def test_apply_to_log_passes_wildcard_events_through():
    activity, role, _ = clinic_hierarchies()
    pad = Event(WILDCARD, {"role": WILDCARD})
    log = EventLog(
        schema=("role",),
        traces=(Trace("1", (Event("Register", {"role": "Admin"}), pad)),),
    )
    out = apply_to_log(log, LevelVector(1, {"role": 1}), activity, {"role": role})
    assert out.traces[0].events[1] == pad
    assert out.traces[0].events[1].is_wildcard


def test_apply_to_log_validates_levels():
    log = clinic_log()
    activity, role, _ = clinic_hierarchies()
    with pytest.raises(ValueError):
        apply_to_log(log, LevelVector(0, {"nope": 1}), activity, {"role": role})
    with pytest.raises(ValueError):
        apply_to_log(log, LevelVector(0, {"role": 1}), activity, {})
    with pytest.raises(ValueError):
        apply_to_log(log, LevelVector(0, {"role": 5}), activity, {"role": role})


def test_apply_to_log_unknown_values_raise_generalize_message():
    activity, role, _ = clinic_hierarchies()
    for cells, message in (
        (("Triage", "GP"), "'Triage' is not a leaf of the activity hierarchy"),
        (("Register", "Nurse"), "'Nurse' is not a leaf of the role hierarchy"),
    ):
        log = EventLog(
            schema=("role",),
            traces=clinic_log().traces
            + (Trace("09", (Event(cells[0], {"role": cells[1]}),)),),
        )
        with pytest.raises(UnknownValue) as raised:
            apply_to_log(log, LevelVector(0, {"role": 1}), activity, {"role": role})
        assert str(raised.value) == message


def test_apply_to_log_reads_values_in_schema_order():
    # Swapped dict orders and swapped values: read off ``values()``, both
    # events would look alike and share one (wrong) image.
    activity = Hierarchy.from_rows([("a", "a", WILDCARD)])
    x = Hierarchy.from_rows(
        [("1", "x-one", WILDCARD), ("2", "x-two", WILDCARD)], attribute="x"
    )
    y = Hierarchy.from_rows(
        [("1", "y-one", WILDCARD), ("2", "y-two", WILDCARD)], attribute="y"
    )
    log = EventLog(
        schema=("x", "y"),
        traces=(
            Trace("1", (Event("a", {"y": "1", "x": "2"}),)),
            Trace("2", (Event("a", {"x": "1", "y": "2"}),)),
        ),
    )
    out = apply_to_log(log, LevelVector(0, {"x": 1, "y": 1}), activity, {"x": x, "y": y})
    assert out.traces[0].events[0].attributes == {"x": "x-two", "y": "y-one"}
    assert out.traces[1].events[0].attributes == {"x": "x-one", "y": "y-two"}


def _oracle_apply(log, levels, activity, attributes):
    """``apply_to_log`` one event at a time through the row-walk oracle."""
    traces = []
    for trace in log.traces:
        events = []
        for event in trace.events:
            label = oracle_generalize(activity, event.activity, levels.activity_level)
            values = {}
            for attr, value in event.attributes.items():
                level = levels.attribute_levels.get(attr)
                if label == WILDCARD:
                    value = WILDCARD
                elif level is not None:
                    value = oracle_generalize(attributes[attr], value, level)
                values[attr] = value
            events.append(Event(label, values, origin_index=event.origin_index))
        traces.append(Trace(trace.case_id, tuple(events)))
    return EventLog(log.schema, tuple(traces))


def test_apply_to_log_matches_per_event_oracle():
    rng = random.Random(23)
    for _ in range(40):
        raw, activity, attributes = random_instance(rng, attrs=rng.randint(1, 3))
        # Every event lists its attributes in its own shuffled order, and
        # some values are missing or wildcards.
        traces = []
        for trace in raw.traces:
            events = []
            for event in trace.events:
                items = list(event.attributes.items())
                rng.shuffle(items)
                items = [
                    (k, rng.choice([v, v, v, MISSING, WILDCARD])) for k, v in items
                ]
                events.append(Event(event.activity, dict(items)))
            traces.append(Trace(trace.case_id, tuple(events)))
        # Some cases repeat under new case ids, their dicts in reverse order.
        shuffled = repeated_bodies(rng, EventLog(raw.schema, tuple(traces)))
        for log in (shuffled, vectorize_naive(shuffled)):
            for _ in range(5):
                listed = rng.sample(sorted(attributes), rng.randint(0, len(attributes)))
                levels = LevelVector(
                    rng.randint(0, activity.depth),
                    {attr: rng.randint(0, attributes[attr].depth) for attr in listed},
                )
                expected = _oracle_apply(log, levels, activity, attributes)
                out = apply_to_log(log, levels, activity, attributes)
                assert out == expected
                assert one_mapping_per_body(out)
            for trace, image in zip(log.traces, out.traces):
                alone = EventLog(log.schema, (trace,))
                assert (image,) == apply_to_log(alone, levels, activity, attributes).traces
