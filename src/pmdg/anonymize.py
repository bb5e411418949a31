"""Bottom-up search over the generalization lattice.

A lattice node fixes one generalization level per perspective (a
:class:`LevelVector`).  The search finds a minimum-cost node — cost
being the sum of all levels — whose generalized log is k-anonymous,
in two phases that share one walk, :func:`_first_hit`:

1. *Control flow first.*  The activity level is raised in isolation
   until the control-flow classes alone satisfy k: the walk's
   one-perspective case, over the distinct control flows.  Sequence
   structure is what process analysis lives on, so it gets the first
   claim on precision; the chosen level is then frozen.

2. *Attribute lattice.*  The walk runs over the distinct raw signatures
   (:func:`~pmdg.model.trace_signature`): the frozen flows are a
   one-level perspective, then come the attributes, sorted by name.

The walk tries level vectors by ascending cost, ties in lexicographic
order, and the first satisfying node wins.  It enumerates the vectors
of each cost in turn, the first level running upward and the rest
recursing, so the order holds by construction.  Generalizing further
never splits an equivalence class (levels are functional), so every
node skipped on the way is genuinely unsatisfiable and nodes above a
satisfiable one need no visit.  Each distinct row is weighted by its
number of traces and holds ``Hierarchy.level_ids`` ids, so a check
counts tuples of ints.  The returned log is built once from the chosen
vector, and the k requirement is re-checked on it before returning.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import InsufficientTraces
from .hierarchy import Hierarchy, LevelVector, _mask, apply_to_log
from .model import EventLog, _check_attributes, control_flow, trace_signature, validate_k

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
    generalized = apply_to_log(log, levels, activity_hierarchy, attribute_hierarchies)
    return validate_k(generalized, tuple(levels.attribute_levels), k).ok


def search_control_flow(log: EventLog, activity_hierarchy: Hierarchy, k: int) -> int:
    """Phase 1: the smallest activity level whose control-flow classes
    all reach size k.  Raises :class:`InsufficientTraces` if the log has
    fewer than k traces (no level can help then).  When only the top level
    (every activity ``⋆``) reaches k, logs a warning with the number of
    traces in classes below k one level lower."""
    if len(log.traces) < k:
        raise InsufficientTraces(
            f"log has {len(log.traces)} traces, cannot form classes of size {k}"
        )
    flows = Counter(control_flow(trace) for trace in log.traces)
    levels = activity_hierarchy.level_ids(flows)
    hit = _first_hit([levels], list(flows.values()), k)
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
        for flow, count in zip(levels[level - 1], flows.values()):
            sizes[flow] += count
        logger.warning(
            "activity hierarchy exhausted: k=%d holds only with every activity "
            "generalized to the wildcard; control-flow classes below k hold %d "
            "traces at level %d",
            k, sum(size for size in sizes.values() if size < k), level - 1,
        )
    return level


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
    so one its hierarchy lacks raises ``UnknownValue`` whatever k is.
    """
    selected = tuple(selected)
    _check_attributes(log, selected)
    selected = sorted(set(selected))
    missing = [a for a in selected if a not in attribute_hierarchies]
    if missing:
        raise ValueError(f"no hierarchy for selected attributes: {missing}")

    for attr in selected:  # each value once, in first-seen order over distinct columns
        columns = (t.columns[attr] for t in log.traces)
        values = dict.fromkeys(chain.from_iterable(dict.fromkeys(columns)))
        list(map(attribute_hierarchies[attr].lookup(0).__getitem__, values))
    activity_level = search_control_flow(log, activity_hierarchy, k)

    # Phase 2, over the distinct raw signatures.
    rows = Counter(trace_signature(trace, selected) for trace in log.traces)
    raw_flows = [flow for flow, _ in rows]
    flows = activity_hierarchy.level_ids(raw_flows)[activity_level]
    frozen = activity_hierarchy.lookup(activity_level).__getitem__
    # Each frozen flow, by its id: any raw flow with that id has its image.
    images = [tuple(map(frozen, flow)) for flow in dict(zip(flows, raw_flows)).values()]
    columns = [[flows]]
    for position, attr in enumerate(selected):
        # Each distinct (frozen flow, column) pair is masked once, on the raw
        # values: every level maps ``⋆`` to itself, so masking commutes with it.
        pairs: dict[tuple, int] = {}
        ids = [pairs.setdefault((flow, values[position][1]), len(pairs))
               for flow, (_, values) in zip(flows, rows)]
        masked = [_mask(images[flow], column) for flow, column in pairs]
        levels = attribute_hierarchies[attr].level_ids(masked)
        columns.append([list(map(level.__getitem__, ids)) for level in levels])
    hit = _first_hit(columns, list(rows.values()), k)
    if hit is None:  # the top node's classes are phase 1's, which reach k
        raise AssertionError("internal error: no lattice node satisfies k")
    (_, *chosen_levels), checked = hit
    depths = [attribute_hierarchies[attr].depth for attr in selected]
    maxed_out = bool(selected) and chosen_levels == depths
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
