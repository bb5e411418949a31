"""Trace vectorization: padding all traces of a log to one length.

Equivalence classes compare traces position by position, so every trace
must have the same length first.  Gaps are filled with wildcard events.
Two strategies are provided:

* ``vectorize_naive`` keeps each trace as a prefix and pads the tail —
  cheap, but traces that share behavior at different offsets never line
  up, which later forces far more generalization.

* ``vectorize_msa`` runs a multiple sequence alignment over the distinct
  control-flow variants (center-star choice of the variant with the most
  matches against all others, then progressive alignment of each
  remaining variant against the growing column profile), inserting gaps
  mid-trace so shared activities end up in shared columns.

``STRATEGIES`` maps each strategy's configuration name to its function.

Alignment scoring maximizes the number of matching symbol pairs and
breaks ties toward fewer output columns.  The wildcard symbol matches
nothing, not even itself: padding carries no evidence that two traces
did the same thing.  All tie-breaks are pinned (move priority, variant
order by descending multiplicity then lexicographic control flow, the
center as the highest match total then the lowest rank), so
vectorization is deterministic across runs and platforms.

Cost, for V distinct variants of length at most L aligned into W
columns:

* Center selection needs each variant's summed match count against all
  others, a sum of longest-common-subsequence lengths.  Every variant
  owns one lane of ``len + 1`` bits of a single packed int; the top bit
  of a lane is a guard that absorbs its carry.  Scanning a variant with
  the bit-parallel LCS step (Allison & Dix 1986; Hyyrö 2004) scores it
  against every lane at once.  The wildcard gets no mask, so it matches
  nothing.  That is O(V·L) steps on V·(L+1)-bit ints.
* Each profile column keeps a count per symbol of the members it holds,
  so a DP cell's gain is one dict lookup, and a merge updates the
  columns in place.  Progressive alignment costs O(V·L·W).
* Aligning n symbols against m columns scores each DP cell as one int,
  ``matches * scale + diagonal moves`` with ``scale = n + m + 1``.  A path
  makes at most min(n, m) diagonal moves, fewer than ``scale``, so they
  never carry into the match count: comparing two scores compares
  matches first, then diagonal moves, and each diagonal move saves one of
  the ``n + m`` columns.  The merged profile is built in the one backward
  walk over the stored moves.

Real events keep their identity through vectorization: each receives its
index among the input trace's real events as ``origin_index`` (keeping
one it already carries, see :func:`~pmdg.model._numbered`), and
projecting any output trace onto its origin-indexed events reproduces
the input trace.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from .errors import EmptyLog
from .model import WILDCARD, EventLog, Trace, _map_bodies, _Memo, _numbered, variants

# Traceback move codes.
_DIAG, _UP, _LEFT = 0, 1, 2


class _Column:
    """One profile column: the members (variant ranks) with an event in
    it, in merge order, and how many of them carry each non-wildcard
    symbol."""

    __slots__ = ("members", "counts")

    def __init__(self, member: int, symbol: str) -> None:
        self.members: list[int] = []
        self.counts: dict[str, int] = {}
        self.add(member, symbol)

    def add(self, member: int, symbol: str) -> None:
        self.members.append(member)
        if symbol != WILDCARD:
            self.counts[symbol] = self.counts.get(symbol, 0) + 1


def _member_positions(profile: list[_Column], count: int) -> list[list[int]]:
    """The columns of each of the ``count`` members, in increasing order."""
    positions: list[list[int]] = [[] for _ in range(count)]
    for j, column in enumerate(profile):
        for member in column.members:
            positions[member].append(j)
    return positions


def _gather(slots: Sequence[int], width: int) -> Callable[[tuple], tuple]:
    """The function spreading a column, with one extra cell for padding
    appended, over ``width`` columns: cell *p* goes to column ``slots[p]``."""
    gather = [len(slots)] * width
    for position, slot in enumerate(slots):
        gather[slot] = position
    pick = itemgetter(0, 0, *gather)  # two or more indices: always a tuple
    return lambda column: pick(column)[2:]


def _place(log: EventLog, width: int, gather_of: Callable[[Trace], Callable]) -> EventLog:
    """Spread each trace's columns by ``gather_of(trace)`` (see
    :func:`_gather`), filling the other columns with wildcard padding,
    once per distinct trace body through :func:`~pmdg.model._map_bodies`,
    which keys each output body once.  Origins are numbered first, by
    :func:`~pmdg.model._numbered`."""
    # (spread, column, filler) -> the output column, once per distinct key
    placed = _Memo(lambda key: key[0]((*key[1], key[2])))

    def build(trace: Trace) -> Trace:
        spread = gather_of(trace)
        origins = _numbered(trace.case_id, trace.activities, trace.columns, trace.origins)
        return Trace.from_columns(
            trace.case_id,
            placed[spread, trace.activities, WILDCARD],
            {attr: placed[spread, trace.columns[attr], WILDCARD] for attr in log.schema},
            placed[spread, origins, None],
        )

    return _map_bodies(log, build)


def vectorize_naive(log: EventLog) -> EventLog:
    """Pad every trace with trailing wildcard events up to the longest one."""
    if not log.traces:
        raise EmptyLog("cannot vectorize an empty log")
    width = max(len(trace) for trace in log.traces)
    gathers = {n: _gather(range(n), width) for n in set(map(len, log.traces))}
    return _place(log, width, lambda trace: gathers[len(trace.activities)])


def _align_to_profile(
    profile: list[_Column], member: int, sequence: tuple[str, ...]
) -> list[_Column]:
    """Align one variant against the column profile and merge it in.

    Gaps already in the profile stay gaps; the new variant may add fresh
    columns, which appear as gaps for every earlier member.  The merge
    reuses (and updates) the columns of ``profile``.  A cell's score is
    ``matches * scale + diagonal moves`` (see Cost above).
    """
    n, m = len(sequence), len(profile)
    scale = n + m + 1
    dp = [0] * (m + 1)
    back = [[_LEFT] * (m + 1)]  # row 0: no symbol placed, only _LEFT
    for symbol in sequence:
        # a _DIAG move's gain: its matches, scaled, and one diagonal move
        gains = [column.counts.get(symbol, 0) * scale + 1 for column in profile]
        previous = dp
        dp = [previous[0]] + [0] * m  # column 0: only _UP
        moves = [_UP] * (m + 1)
        for j in range(1, m + 1):
            best = previous[j]  # _UP: open a fresh column for symbol
            diag = previous[j - 1] + gains[j - 1]
            if diag > best:
                best = diag
                moves[j] = _DIAG
            left = dp[j - 1]  # _LEFT: the variant skips this column
            if left > best:
                best = left
                moves[j] = _LEFT
            dp[j] = best
        back.append(moves)

    merged: list[_Column] = []  # built backward, reversed at the end
    i, j = n, m
    while i or j:
        move = back[i][j]
        if move == _DIAG:
            i, j = i - 1, j - 1
            profile[j].add(member, sequence[i])
            merged.append(profile[j])
        elif move == _UP:
            i -= 1
            merged.append(_Column(member, sequence[i]))
        else:
            j -= 1
            merged.append(profile[j])
    merged.reverse()
    return merged


def _match_totals(order: Sequence[tuple[str, ...]]) -> list[int]:
    """Each variant's summed match count against all others (see Cost
    above).  A zero bit of ``row`` marks a position where the LCS of the
    scanned prefix grows by one.  The scan also meets the variant's own
    lane, where it matches its non-wildcard count."""
    masks: dict[str, int] = {}
    full = offset = 0
    for flow in order:
        for position, symbol in enumerate(flow, offset):
            if symbol != WILDCARD:
                masks[symbol] = masks.get(symbol, 0) | 1 << position
        full |= ((1 << len(flow)) - 1) << offset
        offset += len(flow) + 1
    totals = []
    for flow in order:
        row = full
        for symbol in flow:
            if mask := masks.get(symbol):  # none for the wildcard
                hits = row & mask
                row = ((row + hits) | (row - hits)) & full
        own = len(flow) - flow.count(WILDCARD)
        totals.append(full.bit_count() - row.bit_count() - own)
    return totals


def vectorize_msa(log: EventLog) -> EventLog:
    """Vectorize by multiple sequence alignment over control-flow variants.

    Identical traces share a variant and therefore an identical padding
    pattern.  The output preserves trace order and case ids; its length
    is the alignment width.
    """
    if not log.traces:
        raise EmptyLog("cannot vectorize an empty log")

    counts = variants(log)
    order = sorted(counts, key=lambda flow: (-counts[flow], flow))

    totals = _match_totals(order)
    center = max(range(len(order)), key=lambda v: (totals[v], -v))

    profile = [_Column(center, symbol) for symbol in order[center]]
    for rank, flow in enumerate(order):
        if rank != center:
            profile = _align_to_profile(profile, rank, flow)

    positions = _member_positions(profile, len(order))
    gathers = {flow: _gather(positions[rank], len(profile)) for rank, flow in enumerate(order)}
    return _place(log, len(profile), lambda trace: gathers[trace.activities])


STRATEGIES: dict[str, Callable[[EventLog], EventLog]] = {
    "naive": vectorize_naive,
    "msa": vectorize_msa,
}
