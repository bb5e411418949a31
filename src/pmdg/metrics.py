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
  ``handover_precision`` averages this over a whole log pair and scales
  to a percentage.

Matching generalized events to their originals relies on the
``origin_index`` linkage established by vectorization; logs lacking it
raise :class:`LinkageBroken`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import IoFailure, LinkageBroken, UnknownAttribute
from .hierarchy import Hierarchy
from .model import WILDCARD, EventLog, Trace, variants


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


@dataclass(frozen=True)
class HandoverPair:
    """One handover observation: the attribute values of two consecutive
    events, before and after generalization."""

    original: tuple[str, str]
    generalized: tuple[str, str]


def handover_graph(log: EventLog, attribute: str) -> HandoverGraph:
    """Build the handover graph over consecutive non-padding events."""
    if attribute not in log.schema:
        raise UnknownAttribute(f"log has no attribute {attribute!r}")
    nodes: set[str] = set()
    edges: Counter[tuple[str, str]] = Counter()
    for trace in log.traces:
        real = [e for e in trace.events if not e.is_wildcard]
        for event in real:
            nodes.add(event.attributes[attribute])
        for first, second in zip(real, real[1:]):
            edges[(first.attributes[attribute], second.attributes[attribute])] += 1
    return HandoverGraph(
        attribute=attribute,
        nodes=tuple(sorted(nodes)),
        edges=dict(sorted(edges.items())),
    )


def handover_preservation(pair: HandoverPair, hierarchy: Hierarchy) -> float:
    """Preservation score of one handover, in [0, 1]."""
    domain = hierarchy.alpha(WILDCARD)

    def endpoint(original: str, generalized: str) -> float:
        return 1.0 - hierarchy.alpha(generalized) / domain + hierarchy.alpha(original) / domain

    return (
        endpoint(pair.original[0], pair.generalized[0])
        + endpoint(pair.original[1], pair.generalized[1])
    ) / 2.0


def _origin_map(trace: Trace) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for position, event in enumerate(trace.events):
        if event.origin_index is not None:
            mapping[event.origin_index] = position
    return mapping


def collect_handover_pairs(
    original: EventLog,
    anonymized: EventLog,
    attribute: str,
) -> list[HandoverPair]:
    """Pair up every consecutive-event handover of the original log with
    its image in the anonymized log, following the origin linkage.

    Raises :class:`LinkageBroken` when a case or an event image cannot
    be located — typically because the anonymized log was serialized
    after full masking, which is positional and loses linkage.
    """
    if attribute not in original.schema:
        raise UnknownAttribute(f"original log has no attribute {attribute!r}")
    if attribute not in anonymized.schema:
        raise UnknownAttribute(f"anonymized log has no attribute {attribute!r}")
    images = {trace.case_id: trace for trace in anonymized.traces}
    pairs: list[HandoverPair] = []
    for trace in original.traces:
        image = images.get(trace.case_id)
        if image is None:
            raise LinkageBroken(f"case {trace.case_id!r} missing from anonymized log")
        positions = _origin_map(image)
        real = [e for e in trace.events if not e.is_wildcard]
        for index, (first, second) in enumerate(zip(real, real[1:])):
            located = []
            for offset, event in ((index, first), (index + 1, second)):
                origin = event.origin_index if event.origin_index is not None else offset
                where = positions.get(origin)
                if where is None:
                    raise LinkageBroken(
                        f"case {trace.case_id!r}: no event with origin {origin} "
                        "in the anonymized log"
                    )
                located.append(image.events[where])
            pairs.append(
                HandoverPair(
                    original=(first.attributes[attribute], second.attributes[attribute]),
                    generalized=(
                        located[0].attributes[attribute],
                        located[1].attributes[attribute],
                    ),
                )
            )
    return pairs


def collect_handover_pairs_by_column(
    vectorized_original: EventLog,
    anonymized: EventLog,
    attribute: str,
) -> list[HandoverPair]:
    """Origin-free variant of :func:`collect_handover_pairs` for logs
    re-read from files.

    Serializing a log keeps every event in its column but drops the
    origin linkage of fully masked events, so matching by origin fails
    exactly where masking happened.  Column positions survive the round
    trip: given the original log re-vectorized with the same (fully
    deterministic) strategy the anonymized log was built from, the image
    of an original event is simply the anonymized event in the same
    column — a padding event there means the original was masked to the
    wildcard.  Traces are matched by case id and must have equal widths;
    a mismatch means the strategies differ and raises
    :class:`LinkageBroken`.
    """
    if attribute not in vectorized_original.schema:
        raise UnknownAttribute(f"original log has no attribute {attribute!r}")
    if attribute not in anonymized.schema:
        raise UnknownAttribute(f"anonymized log has no attribute {attribute!r}")
    images = {trace.case_id: trace for trace in anonymized.traces}
    pairs: list[HandoverPair] = []
    for trace in vectorized_original.traces:
        image = images.get(trace.case_id)
        if image is None:
            raise LinkageBroken(f"case {trace.case_id!r} missing from anonymized log")
        if len(image.events) != len(trace.events):
            raise LinkageBroken(
                f"case {trace.case_id!r}: anonymized trace has "
                f"{len(image.events)} columns, expected {len(trace.events)}; "
                "was it vectorized with a different strategy?"
            )
        columns = [
            position
            for position, event in enumerate(trace.events)
            if not event.is_wildcard
        ]
        for first, second in zip(columns, columns[1:]):
            pairs.append(
                HandoverPair(
                    original=(
                        trace.events[first].attributes[attribute],
                        trace.events[second].attributes[attribute],
                    ),
                    generalized=(
                        image.events[first].attributes[attribute],
                        image.events[second].attributes[attribute],
                    ),
                )
            )
    return pairs


def handover_precision_from_pairs(
    pairs: list[HandoverPair],
    hierarchy: Hierarchy,
    aggregate: str = "occurrences",
) -> float:
    """Aggregate preservation scores into a percentage.

    ``aggregate="occurrences"`` weighs every observed handover equally;
    ``aggregate="pairs"`` averages over distinct (original, generalized)
    value-pair combinations instead, so frequent handovers do not
    dominate.  No handovers at all scores 100.0: nothing existed to lose.
    """
    if aggregate == "pairs":
        unique = {(p.original, p.generalized) for p in pairs}
        scores = [
            handover_preservation(HandoverPair(o, g), hierarchy) for o, g in sorted(unique)
        ]
    elif aggregate == "occurrences":
        scores = [handover_preservation(p, hierarchy) for p in pairs]
    else:
        raise ValueError(f"unknown aggregate {aggregate!r}")
    if not scores:
        return 100.0
    return 100.0 * sum(scores) / len(scores)


def handover_precision(
    original: EventLog,
    anonymized: EventLog,
    attribute: str,
    hierarchy: Hierarchy,
    aggregate: str = "occurrences",
) -> float:
    """Average handover preservation over a log pair, as a percentage.

    ``original`` is the pre-vectorization log; images in ``anonymized``
    are located through the origin linkage (see
    :func:`collect_handover_pairs`).
    """
    pairs = collect_handover_pairs(original, anonymized, attribute)
    return handover_precision_from_pairs(pairs, hierarchy, aggregate)


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
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_dot(graph))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
