"""Bottom-up search over the generalization lattice.

A lattice node fixes one generalization level per perspective (a
:class:`LevelVector`).  The search finds a minimum-cost node — cost
being the sum of all levels — whose generalized log is k-anonymous,
in two phases:

1. *Control flow first.*  The activity level is raised in isolation
   until the control-flow classes alone satisfy k.  Sequence structure
   is what process analysis lives on, so it gets the first claim on
   precision; the chosen level is then frozen.

2. *Attribute lattice.*  With the activity level fixed, attribute level
   vectors are enumerated by ascending cost, ties in a fixed order
   (levels compared left-to-right over the attribute names sorted
   alphabetically), and the first satisfying node wins.  Generalizing
   further never splits an equivalence class (levels are monotone), so
   every node skipped on the way to the first hit is genuinely
   unsatisfiable and nodes above a satisfiable one need no visit.

Phase 1 runs on the distinct control flows, and phase 2 on the distinct
raw signatures (:func:`~pmdg.model.trace_signature`), each weighted by
its number of traces: equal rows share a class at every node.  Phase 2
interns each generalized value sequence to a small int, so a node check
counts tuples of ints.  The returned log is built once from the chosen
vector, and the k requirement is re-checked on it before returning.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InsufficientTraces
from .hierarchy import Hierarchy, LevelVector, apply_to_log
from .model import WILDCARD, EventLog, control_flow, trace_signature, validate_k

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LatticeSearchResult:
    """Outcome of a lattice search: the chosen node, the generalized log,
    and bookkeeping about the search itself."""

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
    fewer than k traces (no level can help then)."""
    if len(log.traces) < k:
        raise InsufficientTraces(
            f"log has {len(log.traces)} traces, cannot form classes of size {k}"
        )
    flows = Counter(control_flow(trace) for trace in log.traces)
    for level in range(activity_hierarchy.depth + 1):
        classes: dict[tuple[str, ...], int] = {}
        for image, count in zip(activity_hierarchy.images(flows, level), flows.values()):
            classes[image] = classes.get(image, 0) + count
        if min(classes.values()) >= k:
            return level
    # Generalization never changes trace lengths, so a length that occurs
    # fewer than k times can never be hidden; only re-vectorizing helps.
    raise InsufficientTraces(
        f"some trace lengths occur fewer than {k} times; vectorize the log "
        "to a uniform length first"
    )


def _ascending_vectors(depths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All level vectors bounded by ``depths``, by ascending cost, ties
    in lexicographic order."""

    def compositions(budget: int, remaining: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            if budget == 0:
                yield ()
            return
        for level in range(0, min(remaining[0], budget) + 1):
            for rest in compositions(budget - level, remaining[1:]):
                yield (level, *rest)

    for cost in range(sum(depths) + 1):
        yield from compositions(cost, depths)


def _interned(items: Iterable[tuple]) -> list[int]:
    """Each item's small-int id, in order; equal items share one."""
    ids: dict[tuple, int] = {}
    return [ids.setdefault(item, len(ids)) for item in items]


def _walk_attribute_lattice(
    log: EventLog,
    activity_level: int,
    activity_hierarchy: Hierarchy,
    attribute_hierarchies: Mapping[str, Hierarchy],
    selected: Sequence[str],
    k: int,
) -> tuple[tuple[int, ...], int]:
    """Phase 2: the first attribute level vector, in ascending order, whose
    classes all reach size k, and the number of vectors checked.

    The walk runs on the log's distinct raw signatures, each weighted by
    how many traces share it, and a node key is one interned int per
    perspective.  Rows whose flow holds a wildcard are masked once, on
    their raw values, since every level maps ``⋆`` to itself.
    """
    rows = Counter(trace_signature(trace, selected) for trace in log.traces)
    weights = list(rows.values())
    flows = list(activity_hierarchy.images((flow for flow, _ in rows), activity_level))
    masked = [i for i, flow in enumerate(flows) if WILDCARD in flow]
    columns: dict[tuple[str, int], list[int]] = {}
    for position, attr in enumerate(selected):
        hierarchy = attribute_hierarchies[attr]
        raw = [sequences[position][1] for _, sequences in rows]
        for i in masked:
            raw[i] = tuple(WILDCARD if a == WILDCARD else v for a, v in zip(flows[i], raw[i]))
        for level in range(hierarchy.depth + 1):
            columns[attr, level] = _interned(hierarchy.images(raw, level))

    flow_ids = _interned(flows)
    depths = [attribute_hierarchies[attr].depth for attr in selected]
    for checked, levels in enumerate(_ascending_vectors(depths), start=1):
        streams = [columns[pair] for pair in zip(selected, levels)]
        sizes: dict[tuple[int, ...], int] = {}
        for key, weight in zip(zip(flow_ids, *streams), weights):
            sizes[key] = sizes.get(key, 0) + weight
        if min(sizes.values()) >= k:
            return levels, checked
    # With every attribute fully generalized the classes coincide with
    # the control-flow classes of phase 1, so the top node satisfies k.
    raise AssertionError("internal error: no lattice node satisfies k")


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
    selected = sorted(set(selected))
    unknown = [a for a in selected if a not in log.schema]
    if unknown:
        raise ValueError(f"selected attributes not in schema: {unknown}")
    missing = [a for a in selected if a not in attribute_hierarchies]
    if missing:
        raise ValueError(f"no hierarchy for selected attributes: {missing}")

    for attr in selected:
        values = dict.fromkeys(chain.from_iterable(t.columns[attr] for t in log.traces))
        list(map(attribute_hierarchies[attr].lookup(0).__getitem__, values))
    activity_level = search_control_flow(log, activity_hierarchy, k)
    chosen_levels, checked = _walk_attribute_lattice(
        log, activity_level, activity_hierarchy, attribute_hierarchies, selected, k
    )
    depths = [attribute_hierarchies[attr].depth for attr in selected]
    maxed_out = bool(selected) and list(chosen_levels) == depths
    if maxed_out:
        logger.warning(
            "attribute lattice exhausted: every selected attribute is fully "
            "generalized at the frozen activity level %d",
            activity_level,
        )
    chosen = LevelVector(
        activity_level=activity_level,
        attribute_levels=dict(zip(selected, chosen_levels)),
    )
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
