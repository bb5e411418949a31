"""Utility metrics for comparing a generalized log with its original.

Two views of how much analysis value survives anonymization:

* ``remaining_variants`` — how many distinct control-flow sequences are
  left.  Process discovery quality is roughly proportional to this.

* Handover metrics — social-network analysis builds a directed graph of
  "who hands work to whom" from consecutive events.  Generalization
  blurs nodes (``GP`` becomes ``Medical Staff``) rather than deleting
  them, so the interesting question is how *precise* the surviving
  edges still are.  For a single handover whose endpoint values ``e``
  were generalized to ``e'``, the preservation score is

      p = ( (1 - alpha(e1')/alpha(⋆) + alpha(e1)/alpha(⋆))
          + (1 - alpha(e2')/alpha(⋆) + alpha(e2)/alpha(⋆)) ) / 2

  where ``alpha(v)`` counts the leaves generalizing to ``v``: an
  untouched endpoint contributes 1, one blurred to the wildcard
  contributes only the chance share ``alpha(e)/alpha(⋆)``.
  ``handover_precision`` averages this over a whole log pair, scoring
  each distinct (``e``, ``e'``) endpoint once, and scales to a percentage.

Generalized events are matched to their originals by column, or by
order among the non-padding events when the original is the narrower
pre-vectorization log (see :func:`_handovers`); a case or event count
that cannot be matched raises :class:`LinkageBroken`.  Cases are matched
one by one, but the events of each distinct (original, image) pair of
trace bodies are paired once and weighted by its number of cases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import LinkageBroken
from .hierarchy import Hierarchy
from .logio import file_faults
from .model import WILDCARD, EventLog, Trace, _check_attributes, variants


def remaining_variants(log: EventLog) -> int:
    """Number of distinct control-flow sequences in the log."""
    return len(variants(log))


@dataclass(frozen=True)
class HandoverGraph:
    """Directed handover-of-work graph for one attribute: an edge u -> v
    with weight n means value u's event was directly followed by value
    v's event n times.  Nodes include values that never hand over."""

    attribute: str
    nodes: tuple[str, ...]
    edges: Mapping[tuple[str, str], int]

    def weight(self, source: str, target: str) -> int:
        return self.edges.get((source, target), 0)


class HandoverPair(NamedTuple):
    """One handover observation: the attribute values of two consecutive
    events, before and after generalization."""

    original: tuple[str, str]
    generalized: tuple[str, str]


def handover_graph(log: EventLog, attribute: str) -> HandoverGraph:
    """Build the handover graph over consecutive non-padding events."""
    _check_attributes(log, (attribute,))
    nodes: set[str] = set()
    edges: Counter[tuple[str, str]] = Counter()
    for trace in log.traces:
        real = _at(trace.columns[attribute], trace.real)
        nodes.update(real)
        edges.update(zip(real, real[1:]))
    return HandoverGraph(
        attribute=attribute,
        nodes=tuple(sorted(nodes)),
        edges=dict(sorted(edges.items())),
    )


def _at(column: Sequence[str], positions: Sequence[int]) -> Sequence[str]:
    """The cells of ``column`` at ``positions``, in order."""
    if len(positions) == len(column):
        return column
    return [column[p] for p in positions]


def _endpoint(hierarchy: Hierarchy, original: str, generalized: str) -> float:
    domain = hierarchy.alpha(WILDCARD)
    return 1.0 - hierarchy.alpha(generalized) / domain + hierarchy.alpha(original) / domain


def handover_preservation(pair: HandoverPair, hierarchy: Hierarchy) -> float:
    """Preservation score of one handover, in [0, 1]."""
    return (
        _endpoint(hierarchy, pair.original[0], pair.generalized[0])
        + _endpoint(hierarchy, pair.original[1], pair.generalized[1])
    ) / 2.0


def _handovers(original: EventLog, anonymized: EventLog, attribute: str) -> Counter[tuple]:
    """Pair up every consecutive-event handover of the original log with
    its image in the anonymized log, and count each ``(o1, o2, g1, g2)``.

    Cases are matched by id and events by column.  When the original
    trace is as wide as its image (the vectorized log, or a trace that
    filled every column), an original event's image is the anonymized
    event in the same column — a padding event there means it was
    masked.  Otherwise the original's real events map, in order, onto
    the image's non-padding events; this holds for the pre-vectorization
    log against the in-memory anonymized log, where masked events keep
    their ``origin_index`` and so are not padding.

    A log holds one ``columns`` mapping per distinct body (see
    :class:`~pmdg.model.EventLog`), so the events of each distinct pair of
    original and image mappings are paired once, at its first case, and
    its handovers count once per case.

    Raises :class:`LinkageBroken`, in log order, when a case is missing
    or the event counts differ — e.g. a pre-vectorization log against a
    re-read file, where fully masked events came back as padding.
    """
    _check_attributes(original, (attribute,), "original log")
    _check_attributes(anonymized, (attribute,), "anonymized log")
    images = {trace.case_id: trace for trace in anonymized.traces}
    # The ids of a case's and its image's columns mapping -> the first such
    # case, and the number of later ones.
    firsts: dict[tuple[int, int], Trace] = {}
    repeats: Counter[tuple[int, int]] = Counter()

    def first_sights() -> Iterator[Iterator[tuple]]:
        for trace in original.traces:
            image = images.get(trace.case_id)
            if image is None:
                raise LinkageBroken(f"case {trace.case_id!r} missing from anonymized log")
            key = (id(trace.columns), id(image.columns))
            if key in firsts:
                repeats[key] += 1
            else:
                firsts[key] = trace
                yield _paired(trace, image, attribute)

    counts = Counter(chain.from_iterable(first_sights()))
    for key, cases in repeats.items():
        trace = firsts[key]
        for handover in _paired(trace, images[trace.case_id], attribute):
            counts[handover] += cases
    return counts


def _paired(trace: Trace, image: Trace, attribute: str) -> Iterator[tuple]:
    """The handovers of one case with their images (see :func:`_handovers`)."""
    real = trace.real
    shown = real if len(image.activities) == len(trace.activities) else image.real
    if len(real) != len(shown):
        raise LinkageBroken(
            f"case {trace.case_id!r}: {len(real)} original events but "
            f"{len(shown)} non-padding events in the anonymized log"
        )
    before, after = _at(trace.columns[attribute], real), _at(image.columns[attribute], shown)
    return zip(before, before[1:], after, after[1:])


def handover_precision(
    original: EventLog,
    anonymized: EventLog,
    attribute: str,
    hierarchy: Hierarchy,
    aggregate: str = "occurrences",
) -> float:
    """Average handover preservation over a log pair, as a percentage.

    Pairs come from :func:`_handovers`, so ``original`` may be the
    pre-vectorization log or its vectorization.
    ``aggregate="occurrences"`` weighs every observed handover equally;
    ``aggregate="pairs"`` averages over distinct (original, generalized)
    value-pair combinations instead, so frequent handovers do not
    dominate.  No handovers at all scores 100.0: nothing existed to lose.
    """
    if aggregate not in ("occurrences", "pairs"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    counts = _handovers(original, anonymized, attribute)
    if not counts:
        return 100.0
    # Score each distinct endpoint once; sum in ``sorted(HandoverPair)`` order.
    scores: dict[tuple[str, str], float] = {}
    total = weight = 0.0
    for (o1, o2, g1, g2), count in sorted(counts.items()):
        for endpoint in ((o1, g1), (o2, g2)):
            if endpoint not in scores:
                scores[endpoint] = _endpoint(hierarchy, *endpoint)
        if aggregate == "pairs":
            count = 1
        total += count * ((scores[o1, g1] + scores[o2, g2]) / 2.0)
        weight += count
    return 100.0 * total / weight


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(graph: HandoverGraph) -> str:
    """The graph in DOT format; equal graphs render to equal text."""
    lines = ["digraph handover {", "  rankdir=LR;"]
    lines.append(f"  label={_quote(graph.attribute)};")
    for node in sorted(graph.nodes):
        lines.append(f"  {_quote(node)};")
    for (source, target), count in sorted(graph.edges.items()):
        lines.append(f"  {_quote(source)} -> {_quote(target)} [label={_quote(str(count))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(graph: HandoverGraph, path: str | Path) -> None:
    """Write the graph in DOT format, byte-identical across runs."""
    with file_faults(path, "write"), open(path, "w", encoding="utf-8") as handle:
        handle.write(render_dot(graph))
