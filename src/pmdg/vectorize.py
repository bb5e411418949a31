"""Trace vectorization: padding all traces of a log to one length.

Equivalence classes compare traces position by position, so every trace
must have the same length first.  Gaps are filled with wildcard events.
Two strategies are provided:

* ``vectorize_naive`` keeps each trace as a prefix and pads the tail —
  cheap, but traces that share behavior at different offsets never line
  up, which later forces far more generalization.

* ``vectorize_msa`` runs a multiple sequence alignment over the distinct
  control-flow variants (center-star choice of the first variant, then
  progressive alignment of each remaining variant against the growing
  column profile), inserting gaps mid-trace so shared activities end up
  in shared columns.

``STRATEGIES`` maps each strategy's configuration name to its function.

Alignment scoring maximizes the number of matching symbol pairs and
breaks ties toward fewer output columns.  The wildcard symbol matches
nothing, not even itself: padding carries no evidence that two traces
did the same thing.  All tie-breaks are pinned (move priority, variant
order by descending multiplicity then lexicographic control flow), so
vectorization is deterministic across runs and platforms.

Real events keep their identity through vectorization: each receives its
position in the pre-vectorization trace as ``origin_index`` (preserving
one it already carries), and projecting any output trace onto its
origin-indexed events reproduces the input trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EmptyLog
from .model import WILDCARD, Event, EventLog, Trace, control_flow, wildcard_event

# Traceback move codes.
_DIAG, _UP, _LEFT = 0, 1, 2


@dataclass(frozen=True)
class AlignmentColumnMap:
    """Where each input trace's events went: for input trace *i*,
    ``positions[i]`` lists the output column of each of its events, in
    order (strictly increasing)."""

    positions: tuple[tuple[int, ...], ...]
    aligned_length: int


def _match(a: str, b: str) -> int:
    return 1 if a == b and a != WILDCARD else 0


def align_pair(a: Sequence[str], b: Sequence[str]) -> AlignmentColumnMap:
    """Globally align two symbol sequences.

    Maximizes matches, then minimizes the number of output columns
    (equivalently: prefers pairing symbols in one column over two
    gap columns, even when they differ).  Ties beyond that are broken by
    a fixed move preference, so the result is deterministic.  This is
    the progressive-alignment step of :func:`vectorize_msa` applied to
    a profile holding ``b`` alone.
    """
    profile = _align_to_profile([{0: symbol} for symbol in b], 1, tuple(a))
    positions = tuple(
        tuple(j for j, column in enumerate(profile) if member in column)
        for member in (1, 0)
    )
    return AlignmentColumnMap(positions=positions, aligned_length=len(profile))


def _assign_origin(event: Event, position: int) -> Event:
    if event.origin_index is not None:
        return event
    return Event(event.activity, dict(event.attributes), origin_index=position)


def _place(
    log: EventLog, width: int, slots_of: Callable[[Trace], Sequence[int]]
) -> EventLog:
    """Put each trace's events into its columns ``slots_of(trace)`` and
    fill the other columns of the ``width`` with wildcard padding."""
    padding = wildcard_event(log.schema)
    traces = []
    for trace in log.traces:
        events = [padding] * width
        slots = slots_of(trace)
        for position, event in enumerate(trace.events):
            events[slots[position]] = (
                event if event.is_wildcard else _assign_origin(event, position)
            )
        traces.append(Trace(case_id=trace.case_id, events=tuple(events)))
    return EventLog(schema=log.schema, traces=tuple(traces))


def vectorize_naive(log: EventLog) -> EventLog:
    """Pad every trace with trailing wildcard events up to the longest one."""
    if not log.traces:
        raise EmptyLog("cannot vectorize an empty log")
    width = max(len(trace) for trace in log.traces)
    return _place(log, width, lambda trace: range(len(trace)))


def _align_to_profile(
    profile: list[dict[int, str]], member: int, sequence: tuple[str, ...]
) -> list[dict[int, str]]:
    """Align one variant against the column profile and merge it in.

    Gaps already in the profile stay gaps; the new variant may add fresh
    columns, which appear as gaps for every earlier member.
    """
    n, m = len(sequence), len(profile)
    gains = [
        [sum(1 for sym in column.values() if _match(sym, s)) for column in profile]
        for s in sequence
    ]
    dp = [[(0, 0)] * (m + 1) for _ in range(n + 1)]
    back = [[_UP] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        back[0][j] = _LEFT
    for i in range(1, n + 1):
        for j in range(0, m + 1):
            best = (dp[i - 1][j], _UP)  # open a fresh column for sequence[i-1]
            if j > 0:
                mi, di = dp[i - 1][j - 1]
                diag = ((mi + gains[i - 1][j - 1], di + 1), _DIAG)
                if diag[0] > best[0]:
                    best = diag
                left = (dp[i][j - 1], _LEFT)  # variant skips this column
                if left[0] > best[0]:
                    best = left
            dp[i][j], back[i][j] = best

    moves: list[int] = []
    i, j = n, m
    while i > 0 or j > 0:
        move = back[i][j]
        moves.append(move)
        if move == _DIAG:
            i, j = i - 1, j - 1
        elif move == _UP:
            i -= 1
        else:
            j -= 1

    merged: list[dict[int, str]] = []
    i = j = 0
    for move in reversed(moves):
        if move == _DIAG:
            column = dict(profile[j])
            column[member] = sequence[i]
            merged.append(column)
            i, j = i + 1, j + 1
        elif move == _LEFT:
            merged.append(dict(profile[j]))
            j += 1
        else:
            merged.append({member: sequence[i]})
            i += 1
    return merged


def vectorize_msa(log: EventLog) -> EventLog:
    """Vectorize by multiple sequence alignment over control-flow variants.

    Identical traces share a variant and therefore an identical padding
    pattern.  The output preserves trace order and case ids; its length
    is the alignment width.
    """
    if not log.traces:
        raise EmptyLog("cannot vectorize an empty log")

    counts: dict[tuple[str, ...], int] = {}
    for trace in log.traces:
        flow = control_flow(trace)
        counts[flow] = counts.get(flow, 0) + 1
    order = sorted(counts, key=lambda flow: (-counts[flow], flow))

    totals = [0] * len(order)
    for x in range(len(order)):
        for y in range(x + 1, len(order)):
            score = _pair_matches(order[x], order[y])
            totals[x] += score
            totals[y] += score
    center = max(range(len(order)), key=lambda v: (totals[v], -v))

    profile: list[dict[int, str]] = [{center: symbol} for symbol in order[center]]
    for rank, flow in enumerate(order):
        if rank == center:
            continue
        profile = _align_to_profile(profile, rank, flow)

    columns = {
        flow: tuple(j for j, column in enumerate(profile) if rank in column)
        for rank, flow in enumerate(order)
    }
    return _place(log, len(profile), lambda trace: columns[control_flow(trace)])


def _pair_matches(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Match count of the optimal pairwise alignment (no traceback)."""
    m = len(b)
    previous = [0] * (m + 1)
    for i in range(1, len(a) + 1):
        current = [0] * (m + 1)
        for j in range(1, m + 1):
            current[j] = max(
                previous[j - 1] + _match(a[i - 1], b[j - 1]),
                previous[j],
                current[j - 1],
            )
        previous = current
    return previous[m]


STRATEGIES: dict[str, Callable[[EventLog], EventLog]] = {
    "naive": vectorize_naive,
    "msa": vectorize_msa,
}
