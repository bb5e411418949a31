"""Shared fixtures builders and independent oracles for the test suite.

The random generators are driven by explicit ``random.Random`` instances
so every test run sees identical data.  The oracles deliberately
re-derive expected results by brute force (exhaustive enumeration,
independent grouping logic) rather than calling the code under test.
"""

from __future__ import annotations

import csv
import itertools
import random
import unicodedata
from collections import Counter
from xml.etree import ElementTree
from xml.sax.saxutils import quoteattr

from pmdg import (
    MISSING,
    WILDCARD,
    EmptyLog,
    Event,
    EventLog,
    Hierarchy,
    IoFailure,
    LevelVector,
    LogCsvSpec,
    MalformedXml,
    MissingConceptName,
    Trace,
    UnknownValue,
)
from pmdg.vectorize import _Column


def clinic_hierarchies() -> tuple[Hierarchy, Hierarchy, Hierarchy]:
    """Activity, role, and location hierarchies of the two-case clinic log."""
    activity = Hierarchy.from_rows(
        [
            ("Register", "Register", WILDCARD),
            ("Vitals", WILDCARD, WILDCARD),
            ("Consultation", "Consultation", WILDCARD),
            ("CT Scan", "Radiology Scan", WILDCARD),
            ("MRI Scan", "Radiology Scan", WILDCARD),
        ]
    )
    role = Hierarchy.from_rows(
        [
            ("Admin", "Admin", WILDCARD),
            ("GP", "Medical Staff", WILDCARD),
            ("CA", "Medical Staff", WILDCARD),
        ],
        attribute="role",
    )
    location = Hierarchy.from_rows(
        [
            ("Day Clinic", "On Site", WILDCARD),
            ("Hospital", "On Site", WILDCARD),
        ],
        attribute="location",
    )
    return activity, role, location


def clinic_log(with_location: bool = False) -> EventLog:
    """Two outpatient cases that differ in one mid-trace event."""
    rows_07 = [
        ("Register", "Admin", "Day Clinic"),
        ("Vitals", "GP", "Day Clinic"),
        ("Consultation", "GP", "Day Clinic"),
        ("CT Scan", "CA", "Hospital"),
    ]
    rows_08 = [
        ("Register", "Admin", "Hospital"),
        ("Consultation", "CA", "Hospital"),
        ("MRI Scan", "CA", "Hospital"),
    ]
    schema = ("role", "location") if with_location else ("role",)

    def build(case_id, rows):
        events = []
        for activity, role, location in rows:
            values = {"role": role}
            if with_location:
                values["location"] = location
            events.append(Event(activity, values))
        return Trace(case_id, tuple(events))

    return EventLog(
        schema=schema, traces=(build("07", rows_07), build("08", rows_08))
    )


def random_hierarchy(
    rng: random.Random,
    n_leaves: int,
    depth: int,
    attribute: str | None = None,
    prefix: str = "v",
) -> Hierarchy:
    """A random but structurally valid hierarchy.

    Values may stay unchanged across levels and merge in random groups,
    so row-lookup semantics and repeated labels get exercised.
    """
    leaves = [f"{prefix}{i:03d}" for i in range(n_leaves)]
    columns = [leaves]
    current = list(leaves)
    for level in range(1, depth):
        distinct = list(dict.fromkeys(current))
        shuffled = rng.sample(distinct, len(distinct))
        parent_of: dict[str, str] = {}
        group = 0
        position = 0
        while position < len(shuffled):
            size = rng.randint(1, min(3, len(shuffled) - position))
            chunk = shuffled[position : position + size]
            if size == 1 and rng.random() < 0.5:
                parent_of[chunk[0]] = chunk[0]  # stays at itself this level
            else:
                label = f"{prefix}L{level}g{group}"
                for value in chunk:
                    parent_of[value] = label
            group += 1
            position += size
        current = [parent_of[value] for value in current]
        columns.append(list(current))
    columns.append([WILDCARD] * n_leaves)
    rows = list(zip(*columns))
    return Hierarchy.from_rows(rows, attribute=attribute)


def random_raw_log(
    rng: random.Random,
    activity_hierarchy: Hierarchy,
    attribute_hierarchies: dict[str, Hierarchy],
    n_variants: tuple[int, int] = (2, 8),
    length: tuple[int, int] = (1, 8),
    multiplicity: tuple[int, int] = (1, 5),
) -> EventLog:
    """A log drawn from hierarchy leaves, with repeated variants."""
    schema = tuple(attribute_hierarchies)
    flows = [
        tuple(
            rng.choice(activity_hierarchy.leaves)
            for _ in range(rng.randint(*length))
        )
        for _ in range(rng.randint(*n_variants))
    ]
    traces = []
    for flow in flows:
        for _ in range(rng.randint(*multiplicity)):
            events = tuple(
                Event(
                    activity,
                    {
                        attr: rng.choice(h.leaves)
                        for attr, h in attribute_hierarchies.items()
                    },
                )
                for activity in flow
            )
            traces.append(Trace(f"c{len(traces):04d}", events))
    return EventLog(schema=schema, traces=tuple(traces))


def random_instance(rng: random.Random, attrs: int = 2, depth: int = 3, **log_kwargs):
    """A matching (raw log, activity hierarchy, attribute hierarchies) triple."""
    activity = random_hierarchy(
        rng, n_leaves=rng.randint(4, 8), depth=rng.randint(2, depth), prefix="a"
    )
    attribute_hierarchies = {
        f"q{i}": random_hierarchy(
            rng,
            n_leaves=rng.randint(3, 6),
            depth=rng.randint(1, depth),
            attribute=f"q{i}",
            prefix=f"q{i}x",
        )
        for i in range(attrs)
    }
    log = random_raw_log(rng, activity, attribute_hierarchies, **log_kwargs)
    return log, activity, attribute_hierarchies


def repeated_traces(rng: random.Random, log: EventLog) -> tuple[Trace, ...]:
    """``log``'s traces with one or two copies of some under new case ids,
    shuffled in; a copy is built from events, each listing its attributes
    in reverse order, so it has a ``columns`` mapping of its own."""
    copies = [
        Trace(f"{trace.case_id}~{n}", tuple(
            Event(e.activity, dict(reversed(e.attributes.items())), e.origin_index)
            for e in trace.events
        ))
        for trace in rng.sample(log.traces, rng.randint(0, len(log.traces)))
        for n in range(1, rng.randint(2, 3))
    ]
    traces = list(log.traces) + copies
    rng.shuffle(traces)
    return tuple(traces)


def repeated_bodies(rng: random.Random, log: EventLog) -> EventLog:
    """The log of :func:`repeated_traces`."""
    return EventLog(log.schema, repeated_traces(rng, log))


def one_mapping_per_body(log: EventLog) -> bool:
    """Do the traces hold one ``columns`` mapping per distinct body?  (A
    mapping always belongs to one body.)"""
    bodies = {
        (t.activities, t.origins, *(t.columns[name] for name in log.schema))
        for t in log.traces
    }
    return len(bodies) == len({id(t.columns) for t in log.traces})


def country_hierarchy() -> Hierarchy:
    """195 country leaves: 44 under Europe, China plus 150 others under Asia."""
    rows = [("Germany", "Europe", WILDCARD)]
    rows += [(f"eu{i:02d}", "Europe", WILDCARD) for i in range(43)]
    rows += [("China", "Asia", WILDCARD)]
    rows += [(f"as{i:03d}", "Asia", WILDCARD) for i in range(150)]
    return Hierarchy.from_rows(rows, attribute="country")


# --- oracles ---------------------------------------------------------------


def oracle_generalize(hierarchy: Hierarchy, value: str, level: int) -> str:
    """``Hierarchy.generalize`` by a walk over the table's rows, independent
    of the per-level lookup tables: column ``level`` of the value's row."""
    if not 0 <= level <= hierarchy.depth:
        raise ValueError(
            f"level {level} out of range 0..{hierarchy.depth} for {hierarchy.name}"
        )
    if value == WILDCARD:
        return WILDCARD
    for row in hierarchy.table.rows:
        if row[0] == value:
            return row[level]
    if value == MISSING:
        return MISSING if level < hierarchy.depth else WILDCARD
    raise UnknownValue(f"{value!r} is not a leaf of the {hierarchy.name} hierarchy")


def oracle_class_sizes(log, levels: LevelVector, activity_h, attr_hs) -> list[int]:
    """Independent re-derivation of equivalence class sizes at a node.

    Groups traces by generalized control flow plus generalized value
    sequences of the attributes in the vector, masking attribute values
    wherever the generalized activity (or a padding event) is a wildcard.
    """
    groups: Counter = Counter()
    for trace in log.traces:
        acts = []
        for event in trace.events:
            if event.is_wildcard:
                acts.append(WILDCARD)
            else:
                acts.append(
                    oracle_generalize(activity_h, event.activity, levels.activity_level)
                )
        signature = [tuple(acts)]
        for attr in sorted(levels.attribute_levels):
            level = levels.attribute_levels[attr]
            column = []
            for event, act in zip(trace.events, acts):
                if act == WILDCARD:
                    column.append(WILDCARD)
                else:
                    column.append(
                        oracle_generalize(attr_hs[attr], event.attributes[attr], level)
                    )
            signature.append(tuple(column))
        groups[tuple(signature)] += 1
    return sorted(groups.values(), reverse=True)


def oracle_satisfies(log, levels, activity_h, attr_hs, k) -> bool:
    return min(oracle_class_sizes(log, levels, activity_h, attr_hs)) >= k


def oracle_minimal_cost(vectorized, activity_level, activity_h, attr_hs, selected, k):
    """Cheapest satisfying attribute vector given a frozen activity level,
    found by exhaustive enumeration.  Returns (cost, vector) or None."""
    selected = sorted(selected)
    depths = [attr_hs[a].depth for a in selected]
    best = None
    for combo in itertools.product(*(range(d + 1) for d in depths)):
        vector = LevelVector(activity_level, dict(zip(selected, combo)))
        if oracle_satisfies(vectorized, vector, activity_h, attr_hs, k):
            cost = activity_level + sum(combo)
            if best is None or cost < best[0]:
                best = (cost, combo)
    return best


def oracle_handovers(original, anonymized, attribute):
    """Every consecutive-event handover of the original log with its image,
    as ``(o1, o2, g1, g2)`` tuples, one trace at a time and through the
    ``Event`` view: an original event's image is the event at its position
    when the image keeps the trace's layout (the same origin indexes, or
    non-padding events only at the trace's real positions), otherwise the
    image's non-padding events are taken in order.  Linkage faults are
    not checked."""
    images = {trace.case_id: trace for trace in anonymized.traces}
    for trace in original.traces:
        image = images[trace.case_id]
        real = [p for p, event in enumerate(trace.events) if not event.is_wildcard]
        kept = [p for p, event in enumerate(image.events) if not event.is_wildcard]
        origins = [[event.origin_index for event in t.events] for t in (trace, image)]
        if origins[0] == origins[1] or set(kept) <= set(real):
            shown = [image.events[p] for p in real]
        else:
            shown = [image.events[p] for p in kept]
        before = [trace.events[p].attributes[attribute] for p in real]
        after = [event.attributes[attribute] for event in shown]
        yield from zip(before, before[1:], after, after[1:])


def oracle_write_csv(log, path, spec=None, wildcard=WILDCARD):
    """``write_log_csv`` one trace at a time: its columns, wildcards
    rendered, zipped into rows behind its case id."""
    spec = spec or LogCsvSpec()
    names = spec.attribute_columns or log.schema
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=spec.delimiter, lineterminator="\n")
        writer.writerow([spec.case_column, spec.activity_column, *names])
        for trace in log.traces:
            columns = [trace.activities, *(trace.columns[_nfc(name)] for name in names)]
            columns = [[wildcard if cell == WILDCARD else cell for cell in column]
                       for column in columns]
            writer.writerows(zip(itertools.repeat(trace.case_id), *columns))


def all_alignments(a, b):
    """Every global alignment of two sequences, as (matches, columns) plus
    the per-sequence column positions.  Exponential; tiny inputs only."""

    def rec(i, j, cols, pa, pb, matches):
        if i == len(a) and j == len(b):
            yield matches, cols, tuple(pa), tuple(pb)
            return
        if i < len(a) and j < len(b):
            gained = 1 if a[i] == b[j] and a[i] != WILDCARD else 0
            yield from rec(i + 1, j + 1, cols + 1, pa + [cols], pb + [cols], matches + gained)
        if i < len(a):
            yield from rec(i + 1, j, cols + 1, pa + [cols], pb, matches)
        if j < len(b):
            yield from rec(i, j + 1, cols + 1, pa, pb + [cols], matches)

    yield from rec(0, 0, 0, [], [], 0)


def oracle_best_pairwise(a, b):
    """Optimal (matches, columns) over all alignments: max matches, then
    min columns.  Memoized suffix recursion, independent of the alignment DP."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) and j == len(b):
            return (0, 0)
        options = []
        if i < len(a) and j < len(b):
            matches, columns = go(i + 1, j + 1)
            gained = 1 if a[i] == b[j] and a[i] != WILDCARD else 0
            options.append((matches + gained, columns - 1))
        if i < len(a):
            matches, columns = go(i + 1, j)
            options.append((matches, columns - 1))
        if j < len(b):
            matches, columns = go(i, j + 1)
            options.append((matches, columns - 1))
        return max(options)

    matches, negative_columns = go(0, 0)
    return matches, -negative_columns


def oracle_align_to_profile(profile, member, sequence):
    """The tuple-scored profile alignment that ``vectorize._align_to_profile``
    replaced: each DP cell is a ``(matches, diagonal moves)`` tuple, and
    the merge replays the traceback path in a second, forward loop.  Same
    move priority (``UP``, then ``DIAG`` if greater, then ``LEFT`` if
    greater); kept as the differential reference for the int-scored DP."""
    diag_move, up_move, left_move = 0, 1, 2
    n, m = len(sequence), len(profile)
    dp = [(0, 0)] * (m + 1)
    back = [[left_move] * (m + 1)]
    for symbol in sequence:
        gains = [column.counts.get(symbol, 0) for column in profile]
        previous = dp
        dp = [previous[0]] + [(0, 0)] * m
        moves = [up_move] * (m + 1)
        for j in range(1, m + 1):
            best = previous[j]
            matches, diagonals = previous[j - 1]
            diag = (matches + gains[j - 1], diagonals + 1)
            if diag > best:
                best = diag
                moves[j] = diag_move
            left = dp[j - 1]
            if left > best:
                best = left
                moves[j] = left_move
            dp[j] = best
        back.append(moves)

    path = []
    i, j = n, m
    while i > 0 or j > 0:
        move = back[i][j]
        path.append(move)
        if move == diag_move:
            i, j = i - 1, j - 1
        elif move == up_move:
            i -= 1
        else:
            j -= 1

    merged = []
    i = j = 0
    for move in reversed(path):
        if move == diag_move:
            column = profile[j]
            column.add(member, sequence[i])
            merged.append(column)
            i, j = i + 1, j + 1
        elif move == left_move:
            merged.append(profile[j])
            j += 1
        else:
            merged.append(_Column(member, sequence[i]))
            i += 1
    return merged


def _nfc(text):
    return unicodedata.normalize("NFC", text)


def _local_name(tag):
    return tag.rsplit("}", 1)[-1]


def oracle_read_log_xes(path, wildcard=WILDCARD):
    """``read_log_xes`` as an ``ElementTree.iterparse`` reader that builds
    every event with ``Event``, an independent oracle for the ``pyexpat``
    reader.  Attribute keys join the schema in NFC form, so the two
    spellings of a key are one key."""

    def canonical(cell):
        cell = WILDCARD if cell == wildcard else (cell or MISSING)
        return _nfc(cell)

    schema = {}
    parsed = []
    try:
        with open(path, "rb") as handle:
            steps = ElementTree.iterparse(handle, ("start", "end"))
            _, root = next(steps)
            depth = position = 0
            for kind, element in steps:
                if kind == "start":
                    depth += 1
                    continue
                depth -= 1
                if depth:
                    continue
                if _local_name(element.tag) == "trace":
                    case_id, events = _oracle_trace(
                        element, f"trace_{position}", canonical, schema, path
                    )
                    if events:
                        parsed.append((_nfc(case_id), events))
                position += 1
                element.clear()
                root.remove(element)
    except ElementTree.ParseError as exc:
        raise MalformedXml(f"{path}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not parsed:
        raise EmptyLog(f"{path}: no events")

    taken = {case_id for case_id, _ in parsed}
    last_suffix = {}
    keys = tuple(schema)
    traces = []
    for case_id, events in parsed:
        if case_id in last_suffix:
            suffix = last_suffix[case_id] + 1
            while f"{case_id}~{suffix}" in taken:
                suffix += 1
            last_suffix[case_id] = suffix
            case_id = f"{case_id}~{suffix}"
        else:
            last_suffix[case_id] = 1
        built, origin = [], 0  # an all-``⋆`` event is padding; the rest are numbered
        for activity, values in events:
            cells = {key: values.get(key, MISSING) for key in keys}
            padding = activity == WILDCARD and all(v == WILDCARD for v in cells.values())
            built.append(Event(activity, cells, origin_index=None if padding else origin))
            origin += not padding
        traces.append(Trace(case_id, built))
    return EventLog(schema=keys, traces=tuple(traces))


def write_xes(log, path, wildcard=WILDCARD):
    """``log`` as an XES file: one ``<string>`` per cell, ``⋆`` written as
    ``wildcard``; origins are not written."""
    def string(key, value):
        value = wildcard if value == WILDCARD else value
        return f"<string key={quoteattr(key)} value={quoteattr(value)}/>"

    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<log>']
    for trace in log.traces:
        parts.append(f"<trace>{string('concept:name', trace.case_id)}")
        for event in trace.events:
            cells = [("concept:name", event.activity), *event.attributes.items()]
            parts.append(f"<event>{''.join(string(*cell) for cell in cells)}</event>")
        parts.append("</trace>")
    parts.append("</log>\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))


def _oracle_trace(trace_el, case_id, canonical, schema, path):
    events = []
    for child in trace_el:
        tag = _local_name(child.tag)
        if tag == "string" and child.get("key") == "concept:name":
            case_id = child.get("value", case_id)
        if tag != "event":
            continue
        activity = None
        values = {}
        for attr_el in child:
            if _local_name(attr_el.tag) != "string":
                continue
            key, value = attr_el.get("key"), attr_el.get("value", "")
            if key == "concept:name":
                activity = value
            elif key:
                values[schema.setdefault(_nfc(key), _nfc(key))] = canonical(value)
        if activity is None:
            raise MissingConceptName(
                f"{path}: event without concept:name in trace {case_id!r}"
            )
        events.append((canonical(activity), values))
    return case_id, events
