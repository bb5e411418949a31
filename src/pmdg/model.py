"""Core data model for multi-perspective event logs.

An event log is a sequence of traces; a trace is a sequence of events; an
event carries an activity label (the control-flow perspective) plus one
string value per schema attribute (the other perspectives, e.g. the role
or location involved).  Two special literals appear throughout:

* ``WILDCARD`` (``⋆``) — the most general value, revealing nothing.
* ``MISSING`` (``⊥``) — a recorded gap in the source data.

Vectorization pads traces with *wildcard events* (all cells ``⋆``) so that
every trace in a log has the same length.  An event is padding when every
cell is ``⋆`` and it has no ``origin_index`` (:func:`_real`).  A trace
gives ``origin_index`` for all of its real events or for none, and the
readers and vectorization number each real event of one that gives none
by its index among them (:func:`_numbered`).  In memory, that linkage
keeps a masked real event (every cell ``⋆``) apart from padding;
acceptance criterion 3 checks it after vectorization.  Quality metrics do
not use it: they match an anonymized event with its original by column
or by order.

A :class:`Trace` holds its events as columns: the activity tuple, the
origin tuple and one value tuple per attribute; its padding positions
are decided once, on first use.  Every pass of the pipeline reads these
columns.  ``Trace.events`` is a view for library callers, built on first
use, so reading, generalizing and writing a log builds no ``Event``.

A trace's *body* is everything but its case id: the activity, origin and
attribute columns.  Cases often repeat a body, and an anonymized log is
made of classes of at least k cases with one body each, so an
:class:`EventLog` holds one ``columns`` mapping per distinct body: the
first case with a body is kept as given, and every later one is stored
as that trace renamed, sharing its columns.  A mapping always belongs to
one body, so one body loop builds every log and runs each pass's work
once per mapping, keying each result once, renaming a case at most once.

All model types are immutable.  Strings are NFC-normalized on
construction so that logs read from differently encoded files compare
equal when they should; :meth:`Trace.from_columns` takes its cells as
given, and the readers and hierarchy tables hand over NFC strings.
Traces and events compare by content.
"""

from __future__ import annotations

import operator
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import UnknownAttribute

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

    ``origin_index`` is the event's index among the real events of its
    original trace (see :func:`_numbered`), or ``None`` for padding and
    for an event built in code that was never read or vectorized.

    ``is_wildcard`` is true for inserted padding events (see :func:`_real`):
    every cell is ``⋆`` and there is no origin linkage.  A real event that
    was fully masked by generalization keeps its ``origin_index`` and is
    *not* a wildcard event.  It is derived once, on construction, and
    takes no part in equality or ``repr``.
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


class _Memo(dict):
    """``key -> make(key)``, made on first sight and kept.  One instance
    per call; the default ``make`` keeps the key itself, so equal columns
    (or cells) of the log being built are stored once."""

    def __init__(self, make: Callable[[Any], Any] = lambda key: key) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


class _NoColumns(dict):
    """The columns of an empty trace: every attribute reads as ``()``."""

    def __missing__(self, attribute: str) -> tuple[str, ...]:
        return ()


_NO_COLUMNS = MappingProxyType(_NoColumns())


def _real(activities: Sequence[str], origins: Sequence[int | None],
          columns: Mapping[str, Sequence[str]]) -> Sequence[int]:
    """The padding rule: the positions of the events that are not padding
    (every cell ``⋆`` and no origin)."""
    real: Sequence[int] = range(len(activities))
    if WILDCARD in activities:
        padding = (WILDCARD, None, *[WILDCARD] * len(columns))
        rows = zip(activities, origins, *columns.values())
        real = tuple(compress(real, map(padding.__ne__, rows)))
    return real


def _numbered(case_id: str, activities: Sequence[str], columns: Mapping[str, Sequence[str]],
              origins: Sequence[int | None] = ()) -> tuple[int | None, ...]:
    """The numbering rule: a trace gives ``origins`` for all of its real
    events or for none; with none, each real event gets its index among them."""
    missing = origins.count(None)
    if missing < len(origins):  # some are given
        if missing and None in map(origins.__getitem__, _real(activities, origins, columns)):
            raise ValueError(f"trace {case_id!r} gives origin_index for some of its real "
                             f"events; give it for all of them or for none")
        return tuple(origins)
    numbered: list[int | None] = [None] * len(activities)
    for index, position in enumerate(_real(activities, numbered, columns)):
        numbered[position] = index
    return tuple(numbered)


@dataclass(frozen=True, init=False, slots=True)
class Trace:
    """A case: an ordered, immutable sequence of events, held as columns.

    ``activities`` is the control flow, ``origins`` each event's
    ``origin_index``, and ``columns`` maps every attribute to its value
    sequence, one entry per event each.  ``real`` (the positions that are
    not padding) and ``events`` (a view as :class:`Event` objects) are
    derived on first use and kept.  ``Trace(case_id, events)`` builds the
    columns from events; :meth:`from_columns` takes them as they are.
    """

    case_id: str
    activities: tuple[str, ...]
    origins: tuple[int | None, ...]
    columns: Mapping[str, tuple[str, ...]]
    _real: Sequence[int] | None = field(default=None, compare=False, repr=False)
    _events: tuple[Event, ...] | None = field(default=None, compare=False, repr=False)

    def __init__(self, case_id: str, events: Iterable[Event] = ()) -> None:
        events = tuple(events)
        keys = events[0].attributes.keys() if events else {}
        if any(event.attributes.keys() != keys for event in events):
            raise ValueError(f"events of trace {case_id!r} carry different attributes")
        self._fill(
            case_id,
            tuple(event.activity for event in events),
            {key: tuple(event.attributes[key] for event in events) for key in keys},
            tuple(event.origin_index for event in events),
        )
        object.__setattr__(self, "_events", events)

    @classmethod
    def from_columns(cls, case_id: str, activities: Sequence[str],
                     columns: Mapping[str, Sequence[str]],
                     origins: Sequence[int | None] | None = None) -> "Trace":
        """The trace with these columns (``origins`` default to none).
        Attribute names and cells must be NFC already, as the readers and
        hierarchy tables hand them over; the case id is normalized."""
        trace = cls.__new__(cls)
        trace._fill(
            case_id,
            tuple(activities),
            {key: tuple(column) for key, column in columns.items()},
            (None,) * len(activities) if origins is None else tuple(origins),
        )
        return trace

    def _fill(self, case_id: str, activities: tuple, columns: dict, origins: tuple) -> None:
        width = len(activities)
        if len(origins) != width or set(map(len, columns.values())) - {width}:
            raise ValueError(f"columns of trace {case_id!r} differ in length")
        known = [o for o in origins if o is not None] if None in origins else origins
        if known and (known[0] < 0 or not all(map(operator.lt, known, known[1:]))):
            raise ValueError(
                f"origin_index values must be non-negative and strictly increasing "
                f"in trace {case_id!r}"
            )
        columns = MappingProxyType(columns) if width else _NO_COLUMNS
        self._set(_nfc(case_id), activities, origins, columns, None)

    def _set(self, case_id: str, activities: tuple, origins: tuple,
             columns: Mapping[str, tuple[str, ...]], real: Sequence[int] | None) -> None:
        """Set every slot of the frozen instance, unchecked; ``events`` is
        built on first use."""
        set_slot = object.__setattr__
        set_slot(self, "case_id", case_id)
        set_slot(self, "activities", activities)
        set_slot(self, "origins", origins)
        set_slot(self, "columns", columns)
        set_slot(self, "_real", real)
        set_slot(self, "_events", None)

    def _renamed(self, case_id: str) -> "Trace":
        """This trace under another case id, sharing its content (the
        ``columns`` mapping included, and ``real`` if known), which was
        checked when this trace was built."""
        trace = Trace.__new__(Trace)
        trace._set(_nfc(case_id), self.activities, self.origins, self.columns, self._real)
        return trace

    @property
    def real(self) -> Sequence[int]:
        if self._real is None:
            object.__setattr__(self, "_real", _real(self.activities, self.origins, self.columns))
        return self._real

    @property
    def events(self) -> tuple[Event, ...]:
        if self._events is None:
            keys = tuple(self.columns)
            object.__setattr__(self, "_events", tuple(
                Event(activity, dict(zip(keys, values)), origin_index=origin)
                for activity, origin, *values in zip(
                    self.activities, self.origins, *self.columns.values()
                )
            ))
        return self._events

    def __len__(self) -> int:
        return len(self.activities)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


@dataclass(frozen=True, eq=True)
class EventLog:
    """An immutable event log with a fixed attribute schema.

    Every non-empty trace carries exactly the schema's attribute columns;
    case identifiers are unique within the log.  A trace whose body (its
    activities, origins and columns in schema order) equals an earlier
    trace's is stored as that earlier trace renamed, so the log holds one
    ``columns`` mapping per distinct body; traces and case ids keep their
    order, and the log equals the traces as given.  A pass's output is
    keyed once, inside the pass (see :func:`_map_bodies`).
    """

    schema: tuple[str, ...]
    traces: tuple[Trace, ...] = ()

    def __post_init__(self) -> None:
        schema = tuple(_nfc(s) for s in self.schema)
        object.__setattr__(self, "schema", schema)
        if len(set(schema)) != len(schema):
            raise ValueError("schema attribute names must be unique")
        object.__setattr__(self, "traces", _bodies(schema, self.traces))

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)


def _bodies(schema: tuple[str, ...], traces: Iterable[Trace],
            build: Callable[[Trace], Trace] | None = None) -> tuple[Trace, ...]:
    """The one body loop: ``traces`` as a log with this schema stores them,
    each replaced by ``build(trace)`` if given, which keeps the case id,
    reads only the body and runs once per ``columns`` mapping.  Each built
    trace is checked and keyed by its body, and every case is stored as
    its body's first trace, renamed at most once."""
    expected = set(schema)
    seen_cases: set[str] = set()
    first_of: dict[tuple, Trace] = {}  # body -> its first trace
    first_by_id: dict[int, Trace] = {}  # id of a given columns mapping -> its body's first trace
    given = tuple(traces)  # alive through the loop, so no mapping's id is reused
    stored = []
    for trace in given:
        if trace.case_id in seen_cases:
            raise ValueError(f"duplicate case id {trace.case_id!r}")
        seen_cases.add(trace.case_id)
        mapping = id(trace.columns)
        first = first_by_id.get(mapping)
        if first is None:  # a new mapping: build and check it, then find its body
            trace = trace if build is None else build(trace)
            if trace.activities and trace.columns.keys() != expected:
                raise ValueError(f"event in trace {trace.case_id!r} does not match the "
                                 f"log schema {schema!r}")
            body = (trace.activities, trace.origins, *map(trace.columns.__getitem__, schema))
            first = first_by_id[mapping] = first_of.setdefault(body, trace)
        if trace.columns is not first.columns:
            trace = first._renamed(trace.case_id)
        stored.append(trace)
    return tuple(stored)


def _stored_log(schema: tuple[str, ...], traces: tuple[Trace, ...]) -> EventLog:
    """Traces already stored as a log with this schema stores them (one
    ``columns`` mapping per body), wrapped as an :class:`EventLog` without
    running :func:`_bodies` again."""
    log = EventLog.__new__(EventLog)
    object.__setattr__(log, "schema", schema)
    object.__setattr__(log, "traces", traces)
    return log


def _map_bodies(log: EventLog, build: Callable[[Trace], Trace]) -> EventLog:
    """``log`` with each trace replaced by ``build(trace)``, called once per
    distinct body; :func:`_bodies` keys the result once."""
    return _stored_log(log.schema, _bodies(log.schema, log.traces, build))


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
    return trace.activities


def variants(log: EventLog) -> Counter[tuple[str, ...]]:
    """Multiplicity of each distinct control-flow sequence, keyed by the
    sequence, in order of first occurrence."""
    return Counter(trace.activities for trace in log.traces)


def trace_signature(trace: Trace, selected: Sequence[str]) -> tuple:
    """The identity of a trace under the chosen perspectives: its control
    flow plus, for each selected attribute, the per-event value sequence."""
    return (trace.activities, tuple([(attr, trace.columns[attr]) for attr in selected]))


def _check_attributes(log: EventLog, names: Iterable[str], label: str = "log") -> tuple[str, ...]:
    """The package's one check of attribute names against a log: ``names`` as
    a tuple, ``ValueError`` for one string, or :class:`~pmdg.errors.UnknownAttribute`
    for the first of ``names``, in the caller's order, that ``label``'s schema lacks."""
    if isinstance(names, str):
        raise ValueError(f"attribute names must be a collection, not the string {names!r}")
    names = tuple(names)
    absent = next((name for name in names if name not in log.schema), None)
    if absent is not None:
        raise UnknownAttribute(f"{label} has no attribute {absent!r}")
    return names


def _check_k(k: object, error: type[Exception] = ValueError) -> None:
    """The package's one rule for k: raise ``error`` unless ``k`` is an int
    of at least 1 (a bool is no int here)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise error(f"k must be an integer >= 1, got {k!r}")


def validate_k(log: EventLog, selected: Iterable[str], k: int) -> KAnonymityReport:
    """Check whether every equivalence class has at least ``k`` members."""
    _check_k(k)
    selected = _check_attributes(log, selected)
    chosen = tuple(attr for attr in log.schema if attr in selected)
    sizes = Counter(trace_signature(trace, chosen) for trace in log.traces)
    violations = tuple((signature, size) for signature, size in sizes.items() if size < k)
    return KAnonymityReport(k, not violations, tuple(sizes.values()), violations)


def drop_singleton_variants(log: EventLog) -> EventLog:
    """Remove every trace whose control-flow variant occurs only once.

    A common preprocessing step: one-of-a-kind behavior cannot be hidden
    in a crowd, and dropping it early keeps the later generalization from
    flattening everything else to accommodate outliers.  May return an
    empty log if all variants are unique.
    """
    counts = variants(log)
    # A subset of a log's traces is stored as that log stores them.
    return _stored_log(log.schema, tuple(t for t in log.traces if counts[t.activities] > 1))
