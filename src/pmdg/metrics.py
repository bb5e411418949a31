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

Generalized events are matched to their originals by position when the
anonymized trace keeps the original's layout, and otherwise by order
among its non-padding events (see :func:`_handovers`); a case or event
count that cannot be matched raises :class:`LinkageBroken`.  Cases are
matched one by one, but the events of each distinct (original, image)
pair of trace bodies are paired once and weighted by its number of cases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

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

    Cases are matched by id.  The one pairing rule: when the image keeps
    the original's layout, an original real event's image is the
    anonymized event at the same position, and a padding event there
    means it was masked.  The image keeps the layout when it has the
    original's ``origins`` (the vectorized log against the in-memory
    result, where masked events keep their ``origin_index``) or when each
    of its non-padding events sits at one of the original's real
    positions (a re-read file, where masked events came back as padding).  Otherwise the original's real events
    map, in order, onto the image's non-padding events: the
    pre-vectorization log, or a vectorization with another layout.

    A log holds one ``columns`` mapping per distinct body (see
    :class:`~pmdg.model.EventLog`), so each distinct pair of original and
    image mappings has its events checked at its first case, and paired
    once, at the end, its handovers counting once per case.

    Raises :class:`LinkageBroken`, in log order, when a case is missing
    or the image lacks an event for one of the original's real events.
    """
    _check_attributes(original, (attribute,), "original log")
    _check_attributes(anonymized, (attribute,), "anonymized log")
    images = {trace.case_id: trace for trace in anonymized.traces}
    # The ids of a case's and its image's columns mapping -> the first such case,
    # its image and the image's positions of its real events; and -> the cases.
    firsts: dict[tuple[int, int], tuple[Trace, Trace, Sequence[int]]] = {}
    cases: Counter[tuple[int, int]] = Counter()
    for trace in original.traces:
        image = images.get(trace.case_id)
        if image is None:
            raise LinkageBroken(f"case {trace.case_id!r} missing from anonymized log")
        key = (id(trace.columns), id(image.columns))
        if key not in firsts:
            real = trace.real
            # In memory the image has the trace's very ``origins``; with as
            # many non-padding events as real ones, both pairings agree.
            kept = (image.origins is trace.origins or image.origins == trace.origins
                    or len(image.real) < len(real) and set(image.real).issubset(real))
            shown = real if kept else image.real
            # A kept layout still needs an image event at each real position.
            if len(real) != len(shown) or shown and shown[-1] >= len(image.activities):
                raise LinkageBroken(
                    f"case {trace.case_id!r}: {len(real)} original events but "
                    f"{len(image.real)} non-padding events in the anonymized log"
                )
            firsts[key] = (trace, image, shown)
        cases[key] += 1
    counts: Counter[tuple] = Counter()
    for key, (trace, image, shown) in firsts.items():
        before = _at(trace.columns[attribute], trace.real)
        after = _at(image.columns[attribute], shown)
        handovers = zip(before, before[1:], after, after[1:])
        if cases[key] == 1:
            counts.update(handovers)  # counted in C
        else:
            for handover in handovers:
                counts[handover] += cases[key]
    return counts


def handover_precision(
    original: EventLog, anonymized: EventLog, attribute: str, hierarchy: Hierarchy
) -> float:
    """Average handover preservation over a log pair, as a percentage.

    Pairs come from :func:`_handovers`, so ``original`` may be the
    pre-vectorization log or its vectorization.  Every handover counts
    once per occurrence.  No handovers at all scores 100.0: nothing
    existed to lose.
    """
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
