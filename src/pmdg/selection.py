"""Scoring and choosing among candidate generalization hierarchies.

Different hierarchies over the same attribute can retain very different
amounts of information at the same privacy level.  The heuristic here
scores a candidate by generalizing the log's value sequences to each of
its levels and measuring, per level, how much structure survives:

* ``class_count`` — the number of distinct per-trace value sequences
  (more surviving classes = more retained utility);
* ``size_balance`` — ``1 / (1 + population standard deviation)`` of the
  class sizes (evenly filled classes hide individuals better than one
  giant class next to several tiny ones).

Per-level utilities are combined into a single score with a weight per
level, and the candidate with the highest weighted total wins.  Ties go
to the shallower hierarchy, then to input order.  Totals of candidates
with different depths are compared as-is; choose weights accordingly.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyLog
from .hierarchy import Hierarchy
from .model import EventLog, _check_attributes

UTILITY_NOTIONS = ("class_count", "size_balance")


def _check_notion(notion: object, label: str = "notion",
                  error: type[Exception] = ValueError) -> None:
    """The package's one rule for the utility notion: one of :data:`UTILITY_NOTIONS`."""
    if notion not in UTILITY_NOTIONS:
        raise error(f"{label} must be one of {UTILITY_NOTIONS}")


def _check_weights(weights: object, label: str = "weights",
                   error: type[Exception] = ValueError) -> tuple[float, ...]:
    """The package's one rule for level weights: a non-empty list or tuple of
    finite, non-negative numbers (a bool is no number here), made floats."""
    if not (isinstance(weights, (list, tuple)) and weights and all(
        isinstance(w, (int, float)) and not isinstance(w, bool)
        and 0 <= w <= sys.float_info.max for w in weights  # exact for ints, false for nan
    )):
        raise error(f"{label} must be a non-empty list of finite, non-negative numbers")
    return tuple(map(float, weights))


@dataclass(frozen=True)
class UtilityProfile:
    """Per-level utilities of one candidate and their weighted total."""

    per_level: tuple[float, ...]
    weights: tuple[float, ...]
    total: float


def _value_sequences(log: EventLog, hierarchy: Hierarchy) -> list[tuple[str, ...]]:
    if hierarchy.attribute is None:
        return [trace.activities for trace in log.traces]
    _check_attributes(log, (hierarchy.attribute,))
    return [trace.columns[hierarchy.attribute] for trace in log.traces]


def _utility(level: Sequence[int], counts: Sequence[int], notion: str) -> float:
    """Utility retained at one level of this perspective alone: ``level``
    holds each distinct raw value sequence's image id there, ``counts`` its
    number of traces, and the groups of equal ids are scored by ``notion``."""
    sizes = [0] * (max(level, default=-1) + 1)  # ids run 0.. by first sight
    for image, count in zip(level, counts):
        sizes[image] += count
    if notion == "class_count":
        return float(len(sizes))
    return 1.0 / (1.0 + statistics.pstdev(sizes))  # size_balance


def _profile(sequences: Counter[tuple[str, ...]], hierarchy: Hierarchy,
             weights: tuple[float, ...], notion: str) -> UtilityProfile:
    """Score one candidate over all its levels (1 through depth), from the
    distinct raw sequences and their counts.

    ``weights`` gives a weight per level; a short list is extended with
    its last entry, so a single ``[1.0]`` weighs all levels equally.
    """
    padded = weights + (weights[-1],) * max(0, hierarchy.depth - len(weights))
    padded = padded[: hierarchy.depth]
    counts, levels = list(sequences.values()), hierarchy.level_ids(sequences)[1:]
    per_level = tuple(_utility(level, counts, notion) for level in levels)
    total = sum(w * u for w, u in zip(padded, per_level))
    return UtilityProfile(per_level=per_level, weights=padded, total=total)


def select(
    log: EventLog,
    candidates: Sequence[Hierarchy],
    weights: Sequence[float] = (1.0,),
    notion: str = "class_count",
) -> tuple[Hierarchy, tuple[UtilityProfile, ...]]:
    """Pick the candidate with the highest weighted utility total.

    Returns the winner together with every candidate's profile (in input
    order) so callers can report the comparison.  Ties prefer the
    shallower hierarchy, then the earlier candidate.  Bad weights or a bad
    notion raise ``ValueError`` before any work, and a log without traces
    then raises :class:`~pmdg.errors.EmptyLog`, as vectorization does.
    """
    if not candidates:
        raise ValueError("no candidate hierarchies given")
    weights = _check_weights(weights)
    _check_notion(notion)
    if not log.traces:
        raise EmptyLog("cannot select a hierarchy for an empty log")
    perspectives = {h.attribute: h for h in candidates}  # extract each once
    sequences = {a: Counter(_value_sequences(log, h)) for a, h in perspectives.items()}
    profiles = tuple(_profile(sequences[h.attribute], h, weights, notion) for h in candidates)
    winner = min(
        range(len(candidates)),
        key=lambda i: (-profiles[i].total, candidates[i].depth, i),
    )
    return candidates[winner], profiles
