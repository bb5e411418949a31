"""Core data model for multi-perspective event logs.

An event log is a sequence of traces; a trace is a sequence of events; an
event carries an activity label (the control-flow perspective) plus one
string value per schema attribute (the other perspectives, e.g. the role
or location involved).  Two special literals appear throughout:

* ``WILDCARD`` (``⋆``) — the most general value, revealing nothing.
* ``MISSING`` (``⊥``) — a recorded gap in the source data.

Vectorization pads traces with *wildcard events* (all cells ``⋆``) so that
every trace in a log has the same length.  Real events that survive
vectorization remember their position in the pre-vectorization trace via
``origin_index``; wildcard events never carry one.  In memory, that
linkage keeps a real event that generalization masked entirely (every
cell ``⋆``) apart from padding; acceptance criterion 3 checks it after
vectorization.  Quality metrics do not use it: they match an anonymized
event with its original by column or by order.

All model types are immutable.  Strings are NFC-normalized on
construction so that logs read from differently encoded files compare
equal when they should.  Because nothing can change an event, one
``Event`` object may stand in several traces, and in several logs: the
readers and :func:`~pmdg.hierarchy.apply_to_log` build each distinct
event once (through one ``_EventPool`` per call) and share it.  Identity
therefore means nothing; events compare by content.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

WILDCARD = "⋆"  # ⋆
MISSING = "⊥"  # ⊥


def _nfc(text: str) -> str:
    # ``normalize`` copies a string its quick check cannot confirm (say, a
    # combining mark after a letter with no precomposed form) even when it
    # is NFC already; returning such a string itself keeps shared cells shared.
    if unicodedata.is_normalized("NFC", text):
        return text
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True, eq=True)
class Event:
    """One event: an activity label plus one value per schema attribute.

    ``origin_index`` is the event's position in its pre-vectorization
    trace, or ``None`` for events that never went through vectorization
    and for inserted wildcard events.

    ``is_wildcard`` is true for inserted padding events: every cell is
    ``⋆`` and there is no origin linkage.  A real event that was fully
    masked by generalization keeps its ``origin_index`` and is *not* a
    wildcard event.  It is derived once, on construction, and takes no
    part in equality or ``repr``.
    """

    activity: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    origin_index: int | None = None
    is_wildcard: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "activity", _nfc(self.activity))
        normalized = {_nfc(k): _nfc(v) for k, v in self.attributes.items()}
        object.__setattr__(self, "attributes", MappingProxyType(normalized))
        if self.origin_index is not None and self.origin_index < 0:
            raise ValueError("origin_index must be non-negative")
        object.__setattr__(
            self,
            "is_wildcard",
            self.activity == WILDCARD
            and self.origin_index is None
            and all(v == WILDCARD for v in normalized.values()),
        )


class _EventPool(dict):
    """``(activity, origin_index, *values)`` -> the one ``Event`` with that
    content, built on first sight.

    The values follow ``schema`` order; a key must never be read off
    ``attributes.values()``, whose order is the event's own.  One instance
    per call, so a pool lives and dies with the log it builds.
    """

    def __init__(self, schema: Sequence[str]) -> None:
        super().__init__()
        self.schema = tuple(schema)

    def __missing__(self, key: tuple) -> Event:
        activity, origin, *values = key
        event = self[key] = Event(
            activity, dict(zip(self.schema, values)), origin_index=origin
        )
        return event


def wildcard_event(schema: Sequence[str]) -> Event:
    """Build the padding event for the given attribute schema."""
    return Event(WILDCARD, {name: WILDCARD for name in schema})


@dataclass(frozen=True, eq=True)
class Trace:
    """A case: an ordered, immutable sequence of events."""

    case_id: str
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "case_id", _nfc(self.case_id))
        object.__setattr__(self, "events", tuple(self.events))
        previous = -1
        for event in self.events:
            if event.origin_index is None:
                continue
            if event.origin_index <= previous:
                raise ValueError(
                    f"origin_index values must be strictly increasing in trace "
                    f"{self.case_id!r}"
                )
            previous = event.origin_index

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


@dataclass(frozen=True, eq=True)
class EventLog:
    """An immutable event log with a fixed attribute schema.

    Every event of every trace carries exactly the schema's attribute
    keys; case identifiers are unique within the log.  The key check runs
    once per distinct event object, since a shared event cannot change.
    """

    schema: tuple[str, ...]
    traces: tuple[Trace, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(_nfc(s) for s in self.schema))
        object.__setattr__(self, "traces", tuple(self.traces))
        if len(set(self.schema)) != len(self.schema):
            raise ValueError("schema attribute names must be unique")
        expected = set(self.schema)
        seen_cases: set[str] = set()
        checked: set[int] = set()  # ids of events held by this log
        for trace in self.traces:
            if trace.case_id in seen_cases:
                raise ValueError(f"duplicate case id {trace.case_id!r}")
            seen_cases.add(trace.case_id)
            for event in trace.events:
                if id(event) in checked:
                    continue
                if event.attributes.keys() != expected:
                    raise ValueError(
                        f"event in trace {trace.case_id!r} does not match the "
                        f"log schema {self.schema!r}"
                    )
                checked.add(id(event))

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)


@dataclass(frozen=True, eq=True)
class EquivalenceClass:
    """A maximal group of traces that are indistinguishable on the chosen
    perspectives (control flow plus the selected attributes)."""

    signature: tuple
    members: tuple[Trace, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class KAnonymityReport:
    """Result of a k-anonymity check: overall verdict plus the violating
    class signatures and their sizes."""

    k: int
    ok: bool
    class_sizes: tuple[int, ...]
    violations: tuple[tuple[tuple, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def control_flow(trace: Trace) -> tuple[str, ...]:
    """The trace's activity sequence, wildcard symbols included."""
    return tuple(event.activity for event in trace.events)


def variants(log: EventLog) -> Counter[tuple[str, ...]]:
    """Multiplicity of each distinct control-flow sequence, keyed by the
    sequence, in order of first occurrence."""
    return Counter(control_flow(trace) for trace in log.traces)


def trace_signature(trace: Trace, selected: Sequence[str]) -> tuple:
    """The identity of a trace under the chosen perspectives: its control
    flow plus, for each selected attribute, the per-event value sequence."""
    flow = control_flow(trace)
    columns = tuple(
        (attr, tuple(event.attributes[attr] for event in trace.events))
        for attr in selected
    )
    return (flow, columns)


def _ordered_selection(log: EventLog, selected: Iterable[str]) -> tuple[str, ...]:
    wanted = set(selected)
    unknown = wanted - set(log.schema)
    if unknown:
        raise ValueError(f"selected attributes not in schema: {sorted(unknown)}")
    return tuple(attr for attr in log.schema if attr in wanted)


def partition(log: EventLog, selected: Iterable[str] = ()) -> tuple[EquivalenceClass, ...]:
    """Partition the log into equivalence classes.

    Traces fall into the same class iff they have the same control flow
    and, for every selected attribute, the same value sequence.  Classes
    are returned in order of their first member's appearance; class
    members keep log order.
    """
    chosen = _ordered_selection(log, selected)
    buckets: dict[tuple, list[Trace]] = {}
    for trace in log.traces:
        buckets.setdefault(trace_signature(trace, chosen), []).append(trace)
    return tuple(
        EquivalenceClass(signature, tuple(members))
        for signature, members in buckets.items()
    )


def validate_k(log: EventLog, selected: Iterable[str], k: int) -> KAnonymityReport:
    """Check whether every equivalence class has at least ``k`` members."""
    if k < 1:
        raise ValueError("k must be at least 1")
    classes = partition(log, selected)
    violations = tuple(
        (cls.signature, cls.size) for cls in classes if cls.size < k
    )
    return KAnonymityReport(
        k=k,
        ok=not violations,
        class_sizes=tuple(cls.size for cls in classes),
        violations=violations,
    )


def drop_singleton_variants(log: EventLog) -> EventLog:
    """Remove every trace whose control-flow variant occurs only once.

    A common preprocessing step: one-of-a-kind behavior cannot be hidden
    in a crowd, and dropping it early keeps the later generalization from
    flattening everything else to accommodate outliers.  May return an
    empty log if all variants are unique.
    """
    counts = variants(log)
    kept = tuple(t for t in log.traces if counts[control_flow(t)] > 1)
    return EventLog(schema=log.schema, traces=kept)
