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

The search evaluates candidate nodes on precomputed per-level value
sequences instead of materializing a full log per node; the returned
log is built once from the chosen vector, and the k requirement is
re-checked on it before returning.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InsufficientTraces
from .hierarchy import Hierarchy, LevelVector, apply_to_log
from .model import WILDCARD, EventLog, control_flow, validate_k

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
    flows = [control_flow(trace) for trace in log.traces]
    for level in range(activity_hierarchy.depth + 1):
        classes = Counter(
            tuple(activity_hierarchy.generalize(a, level) for a in flow)
            for flow in flows
        )
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


class _NodeEvaluator:
    """Evaluates lattice nodes against a fixed activity level.

    Precomputes, per trace: the generalized activity sequence and, per
    (attribute, level), the attribute's value sequence with the
    full-masking rule already applied at positions whose activity became
    the wildcard.  Checking a node then only assembles per-trace
    signature tuples from cached pieces.
    """

    def __init__(
        self,
        log: EventLog,
        activity_level: int,
        activity_hierarchy: Hierarchy,
        attribute_hierarchies: Mapping[str, Hierarchy],
        selected: Sequence[str],
    ):
        self.selected = tuple(selected)
        self.hierarchies = attribute_hierarchies
        self.flows: list[tuple[str, ...]] = []
        masks: list[tuple[bool, ...]] = []
        for trace in log.traces:
            flow = tuple(
                activity_hierarchy.generalize(event.activity, activity_level)
                for event in trace.events
            )
            self.flows.append(flow)
            masks.append(tuple(symbol == WILDCARD for symbol in flow))
        self._columns: dict[tuple[str, int], list[tuple[str, ...]]] = {}
        for attr in self.selected:
            hierarchy = attribute_hierarchies[attr]
            raw = [
                tuple(event.attributes[attr] for event in trace.events)
                for trace in log.traces
            ]
            for level in range(hierarchy.depth + 1):
                self._columns[(attr, level)] = [
                    tuple(
                        WILDCARD if masked else hierarchy.generalize(value, level)
                        for value, masked in zip(values, mask)
                    )
                    for values, mask in zip(raw, masks)
                ]

    def class_sizes(self, attribute_levels: Sequence[int]) -> Counter:
        streams = [
            self._columns[(attr, level)]
            for attr, level in zip(self.selected, attribute_levels)
        ]
        return Counter(
            (flow, *(stream[i] for stream in streams))
            for i, flow in enumerate(self.flows)
        )

    def ok(self, attribute_levels: Sequence[int], k: int) -> bool:
        return min(self.class_sizes(attribute_levels).values()) >= k


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
    """
    selected = sorted(set(selected))
    unknown = [a for a in selected if a not in log.schema]
    if unknown:
        raise ValueError(f"selected attributes not in schema: {unknown}")
    missing = [a for a in selected if a not in attribute_hierarchies]
    if missing:
        raise ValueError(f"no hierarchy for selected attributes: {missing}")

    activity_level = search_control_flow(log, activity_hierarchy, k)
    nodes = activity_level + 1

    evaluator = _NodeEvaluator(
        log, activity_level, activity_hierarchy, attribute_hierarchies, selected
    )
    depths = [attribute_hierarchies[attr].depth for attr in selected]
    for chosen_levels in _ascending_vectors(depths):
        nodes += 1
        if evaluator.ok(chosen_levels, k):
            break
    else:
        # With every attribute fully generalized the classes coincide with
        # the control-flow classes of phase 1, so the top node satisfies k.
        raise AssertionError("internal error: no lattice node satisfies k")

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
        nodes_evaluated=nodes,
        maxed_out=maxed_out,
    )
