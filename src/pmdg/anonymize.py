"""Bottom-up search over the generalization lattice.

A lattice node fixes one generalization level per perspective (a
:class:`LevelVector`).  The search finds a minimum-cost node — cost
being the sum of all levels — whose generalized log is k-anonymous, in
two phases that share one walk, :func:`_first_hit`, over one table of
the log's distinct rows (:func:`~pmdg.model.trace_signature`):

1. *Control flow first.*  The activity level is raised in isolation
   until the control-flow classes alone satisfy k: the walk's
   one-perspective case, over the rows' flows.  Sequence structure is
   what process analysis lives on, so it gets the first claim on
   precision; the chosen level is then frozen.

2. *Attribute lattice.*  :func:`_level_columns` builds the walk's
   columns at any activity level: the frozen flows are a one-level
   perspective, then come the attributes, sorted by name.

The walk tries level vectors by ascending cost, ties in lexicographic
order, and the first satisfying node wins.  It enumerates the vectors
of each cost in turn, the first level running upward and the rest
recursing, so the order holds by construction.  Generalizing further
never splits an equivalence class (levels are functional), so every
node skipped on the way is genuinely unsatisfiable and nodes above a
satisfiable one need no visit.  Each row is weighted by its number of
traces and holds ``Hierarchy.level_ids`` ids, so a check counts tuples
of ints.  The returned log is built once from the chosen vector, and
the k requirement is re-checked on it before returning.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import InsufficientTraces
from .hierarchy import Hierarchy, LevelVector, _check_hierarchies, _mask, apply_to_log
from .model import EventLog, _check_attributes, _check_k, trace_signature, validate_k

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LatticeSearchResult:
    """Outcome of a lattice search: the chosen node, the generalized log,
    and bookkeeping about the search itself.  ``nodes_evaluated`` is the
    chosen activity level + 1 plus the chosen attribute vector's rank
    (from 1) in the ascending walk."""

    chosen: LevelVector
    anonymized: EventLog
    class_sizes: tuple[int, ...]
    nodes_evaluated: int
    maxed_out: bool


def satisfies(
    log: EventLog,
    levels: LevelVector,
    activity_hierarchy: Hierarchy,
    attribute_hierarchies: Mapping[str, Hierarchy],
    k: int,
) -> bool:
    """Is the log k-anonymous once generalized to this lattice node?

    The perspectives checked are the control flow plus exactly the
    attributes carrying a level in ``levels``.
    """
    _check_k(k)
    generalized = apply_to_log(log, levels, activity_hierarchy, attribute_hierarchies)
    return validate_k(generalized, tuple(levels.attribute_levels), k).ok


def search_control_flow(log: EventLog, activity_hierarchy: Hierarchy, k: int) -> int:
    """Phase 1: the smallest activity level whose control-flow classes
    all reach size k.  Raises ``ValueError`` for a k that is no int of at
    least 1, before any work, and :class:`InsufficientTraces` if the log has
    fewer than k traces (no level can help then).  When only the top level
    (every activity ``⋆``) reaches k, logs a warning with the number of
    traces in classes below k one level lower."""
    _check_k(k)
    rows = Counter(trace_signature(trace, ()) for trace in log.traces)
    return _control_flow_level(rows, activity_hierarchy, k)[0]


def _control_flow_level(rows: Counter, activity_hierarchy: Hierarchy, k: int) -> tuple[int, list]:
    """Phase 1 over a table of distinct rows ``(flow, values)`` and their
    trace counts: the level, and each row's flow id at every level."""
    traces = sum(rows.values())
    if traces < k:
        raise InsufficientTraces(f"log has {traces} traces, cannot form classes of size {k}")
    levels = activity_hierarchy.level_ids(flow for flow, _ in rows)
    hit = _first_hit([levels], list(rows.values()), k)
    if hit is None:
        # Generalization never changes trace lengths, so a length that occurs
        # fewer than k times can never be hidden; only re-vectorizing helps.
        raise InsufficientTraces(
            f"some trace lengths occur fewer than {k} times; vectorize the log "
            "to a uniform length first"
        )
    level = hit[0][0]
    if level == activity_hierarchy.depth:
        sizes: Counter[int] = Counter()
        for flow, count in zip(levels[level - 1], rows.values()):
            sizes[flow] += count
        logger.warning(
            "activity hierarchy exhausted: k=%d holds only with every activity "
            "generalized to the wildcard; control-flow classes below k hold %d "
            "traces at level %d",
            k, sum(size for size in sizes.values() if size < k), level - 1,
        )
    return level, levels


def _spread(depths: Sequence[int], cost: int) -> Iterator[tuple[int, ...]]:
    """All level vectors bounded by ``depths`` that sum to ``cost``, in
    lexicographic order: the first level runs upward over the values the
    rest can make up to ``cost``, and the rest recurse."""
    if not depths:
        if cost == 0:
            yield ()
        return
    rest = depths[1:]
    for level in range(max(0, cost - sum(rest)), min(depths[0], cost) + 1):
        for tail in _spread(rest, cost - level):
            yield (level, *tail)


def _ascending_vectors(depths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All level vectors bounded by ``depths``, by ascending cost, ties in
    lexicographic order."""
    for cost in range(sum(depths) + 1):
        yield from _spread(depths, cost)


def _first_hit(
    columns: Sequence[Sequence[Sequence[Hashable]]], weights: Sequence[int], k: int
) -> tuple[tuple[int, ...], int] | None:
    """The lattice walk: the first level vector, in ascending order, whose
    weighted classes all reach size k, and the number of vectors checked,
    or ``None``.  ``columns[d][level]`` holds each distinct row's key in
    perspective ``d`` at that level, ``weights`` each row's trace count."""
    depths = [len(levels) - 1 for levels in columns]
    for checked, vector in enumerate(_ascending_vectors(depths), start=1):
        streams = [levels[level] for levels, level in zip(columns, vector)]
        sizes: dict[tuple, int] = {}
        for key, weight in zip(zip(*streams), weights):
            sizes[key] = sizes.get(key, 0) + weight
        if min(sizes.values()) >= k:
            return vector, checked
    return None


def _level_columns(rows: Counter, flow_ids: Sequence[Sequence[int]], activity_level: int,
                   activity_hierarchy: Hierarchy, hierarchies: Sequence[Hierarchy]) -> list:
    """Phase 2's columns at one activity level: each row's flow id, then its attribute ids."""
    flows = flow_ids[activity_level]
    frozen = activity_hierarchy.lookup(activity_level).__getitem__
    # Each frozen flow, by its id: any raw flow with that id has its image.
    images = [tuple(map(frozen, flow)) for flow, _ in dict(zip(flows, rows)).values()]
    columns = [[flows]]
    for position, hierarchy in enumerate(hierarchies):
        # Each distinct (frozen flow, column) pair is masked once, on the raw
        # values: every level maps ``⋆`` to itself, so masking commutes with it.
        pairs: dict[tuple, int] = {}
        ids = [pairs.setdefault((flow, values[position][1]), len(pairs))
               for flow, (_, values) in zip(flows, rows)]
        masked = [_mask(images[flow], column) for flow, column in pairs]
        levels = hierarchy.level_ids(masked)
        columns.append([list(map(level.__getitem__, ids)) for level in levels])
    return columns


def search(
    log: EventLog,
    activity_hierarchy: Hierarchy,
    attribute_hierarchies: Mapping[str, Hierarchy],
    selected: Iterable[str],
    k: int,
) -> LatticeSearchResult:
    """Find a minimum-cost k-anonymous generalization of the log.

    ``selected`` names the quasi-identifying attributes whose value
    sequences count toward trace identity; each needs an entry in
    ``attribute_hierarchies``.  The activity level found by phase 1 is
    never revisited: should the attribute lattice only satisfy k at its
    top (everything ``⋆``), that is still returned (with ``maxed_out``
    set and a warning logged) rather than trading activity precision.
    Every value of a selected attribute is looked up before any is masked,
    so one its hierarchy lacks raises ``UnknownValue`` whatever k is.  A k
    that is no int of at least 1 raises ``ValueError`` before any work.
    """
    _check_k(k)
    selected = sorted(set(_check_attributes(log, selected)))
    _check_hierarchies(selected, attribute_hierarchies)

    rows = Counter(trace_signature(trace, selected) for trace in log.traces)
    for position, attr in enumerate(selected):  # each value once, in first-seen order
        columns = (row[position][1] for _, row in rows)
        values = dict.fromkeys(chain.from_iterable(dict.fromkeys(columns)))
        list(map(attribute_hierarchies[attr].lookup(0).__getitem__, values))
    activity_level, flow_ids = _control_flow_level(rows, activity_hierarchy, k)
    hierarchies = [attribute_hierarchies[attr] for attr in selected]
    columns = _level_columns(rows, flow_ids, activity_level, activity_hierarchy, hierarchies)
    hit = _first_hit(columns, list(rows.values()), k)
    if hit is None:  # the top node's classes are phase 1's, which reach k
        raise AssertionError("internal error: no lattice node satisfies k")
    (_, *chosen_levels), checked = hit
    maxed_out = bool(selected) and chosen_levels == [h.depth for h in hierarchies]
    if maxed_out:
        logger.warning(
            "attribute lattice exhausted: every selected attribute is fully "
            "generalized at the frozen activity level %d",
            activity_level,
        )
    chosen = LevelVector(activity_level, dict(zip(selected, chosen_levels)))
    anonymized = apply_to_log(log, chosen, activity_hierarchy, attribute_hierarchies)
    report = validate_k(anonymized, selected, k)
    if not report.ok:
        raise AssertionError("internal error: chosen node fails its own k check")
    return LatticeSearchResult(
        chosen=chosen,
        anonymized=anonymized,
        class_sizes=tuple(sorted(report.class_sizes, reverse=True)),
        nodes_evaluated=activity_level + 1 + checked,
        maxed_out=maxed_out,
    )
