"""File formats: log CSV, XES, hierarchy CSV, and the pipeline config.

The CSV log format is one row per event: a case column, an activity
column, and one column per attribute.  Rows belonging to the same case
are grouped in file order, so a log round-trips through write/read
without relying on any particular sort.

Cell conventions on read: the configured wildcard literal maps to the
canonical ``⋆``, and an empty cell maps to the missing-value literal
``⊥``.  A row whose activity and attribute cells are all wildcards is an
inserted padding event; every other event receives its position among
the real events of its case as ``origin_index``.  A fully masked event
(all cells ``⋆`` *with* an origin) is therefore indistinguishable from
padding once serialized — the one lossy corner of the format, flagged in
``write_log_csv``.

Both log readers make one streaming pass: CSV rows become events as they
are read, and XES is parsed one top-level element at a time, so the file
is never held whole.  Each distinct cell is canonicalized and
NFC-normalized once per read, and every event holding that value shares
one string.  Likewise each distinct event (activity, origin and values)
is built once per read, and every trace holding it shares that one
immutable ``Event``.  Case ids are grouped and deduplicated on their NFC
form, so the two Unicode spellings of a name are one case id.  A log
file without events raises :class:`EmptyLog`.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from xml.etree import ElementTree

import yaml

from .errors import (
    ConfigError,
    EmptyLog,
    IoFailure,
    MalformedXml,
    MissingColumn,
    MissingConceptName,
    ParseError,
    RaggedRow,
)
from .hierarchy import HierarchyTable, validate_table
from .model import MISSING, WILDCARD, Event, EventLog, Trace, _EventPool, _nfc
from .selection import UTILITY_NOTIONS
from .vectorize import STRATEGIES


@dataclass(frozen=True)
class LogCsvSpec:
    """Column layout of a log CSV file."""

    case_column: str = "case"
    activity_column: str = "activity"
    attribute_columns: tuple[str, ...] | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(
                f"delimiter must be a single character, got {self.delimiter!r}"
            )
        columns = self.attribute_columns
        if columns is not None and len(set(columns)) != len(columns):
            raise ConfigError(f"attribute columns repeat a name: {list(columns)}")

    def resolve_attributes(self, header: Sequence[str]) -> tuple[str, ...]:
        """Attribute columns, defaulting to every non-key header column."""
        if self.attribute_columns is not None:
            return tuple(self.attribute_columns)
        keys = {self.case_column, self.activity_column}
        return tuple(name for name in header if name not in keys)


def _canonical(cell: str, wildcard: str) -> str:
    if cell == wildcard:
        return WILDCARD
    if cell == "":
        return MISSING
    return cell


class _Cells(dict):
    """Raw cell -> canonical, NFC-normalized value, filled on first sight.

    One instance per read call.  Raw cells that read as equal values (the
    two Unicode forms of a word, or ``⋆`` and the wildcard literal) get one
    shared string, so a log holds each distinct value once and ``Event``'s
    own NFC pass returns it unchanged.
    """

    def __init__(self, wildcard: str) -> None:
        super().__init__()
        self.wildcard = wildcard
        self.values = {WILDCARD: WILDCARD, MISSING: MISSING}

    def __missing__(self, raw: str) -> str:
        value = _nfc(_canonical(raw, self.wildcard))
        value = self[raw] = self.values.setdefault(value, value)
        return value


def read_log_csv(
    path: str | Path, spec: LogCsvSpec | None = None, *, wildcard: str = WILDCARD
) -> EventLog:
    """Read an event log from CSV in one streaming pass.

    Events are built row by row; every distinct cell is canonicalized and
    NFC-normalized once, and equal cells share one string.  Each distinct
    event is built once and shared.  Rows are grouped into cases on the
    NFC form of their case id.

    Raises :class:`MissingColumn` if the header lacks a configured
    column, :class:`RaggedRow` (with the line number) if a data row does
    not match the header width, :class:`EmptyLog` if no data rows
    remain, and :class:`ParseError` if the file is not UTF-8 or the
    ``csv`` module rejects it (e.g. a cell over its field size limit).
    Header faults are reported before any data row is read; otherwise
    the first faulty row wins.
    """
    spec = spec or LogCsvSpec()
    cells = _Cells(wildcard)
    cases: dict[str, list[Event]] = {}
    origins: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=spec.delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyLog(f"{path}: file is empty") from None
            if len(set(header)) != len(header):
                raise ParseError(f"{path}: header repeats a column name: {header}")
            for column in (spec.case_column, spec.activity_column):
                if column not in header:
                    raise MissingColumn(f"{path}: header has no column {column!r}")
            schema = spec.resolve_attributes(header)
            for column in schema:
                if column not in header:
                    raise MissingColumn(f"{path}: header has no column {column!r}")
            case_at = header.index(spec.case_column)
            activity_at = header.index(spec.activity_column)
            columns = [header.index(name) for name in schema]
            pool = _EventPool(schema)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise RaggedRow(
                        f"{path}: line {reader.line_num} has {len(row)} cells, "
                        f"expected {len(header)}"
                    )
                case_id = _nfc(row[case_at])
                activity = cells[row[activity_at]]
                values = [cells[row[at]] for at in columns]
                if activity == WILDCARD and all(v == WILDCARD for v in values):
                    origin = None
                else:
                    origin = origins.get(case_id, 0)
                    origins[case_id] = origin + 1
                cases.setdefault(case_id, []).append(pool[(activity, origin, *values)])
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: malformed CSV: {exc}") from exc

    if not cases:
        raise EmptyLog(f"{path}: no event rows")
    traces = tuple(
        Trace(case_id=case_id, events=tuple(events))
        for case_id, events in cases.items()
    )
    return EventLog(schema=schema, traces=traces)


def write_log_csv(
    log: EventLog,
    path: str | Path,
    spec: LogCsvSpec | None = None,
    *,
    wildcard: str = WILDCARD,
) -> None:
    """Write a log to CSV (RFC 4180 quoting, ``\\n`` line ends, UTF-8).

    Reading the file back reproduces the log exactly, with one caveat:
    origin linkage is positional, so an event that generalization masked
    completely (all cells ``⋆``) reads back as an inserted wildcard
    event.  Its column survives, so handover precision of a re-read log
    needs the vectorized original, which is matched by column.

    The cells of each distinct event object are rendered once; only the
    case id is written per row.
    """
    spec = spec or LogCsvSpec()
    columns = spec.attribute_columns or log.schema
    header = [spec.case_column, spec.activity_column, *columns]

    def render(value: str) -> str:
        if value == WILDCARD:
            return wildcard
        return value

    rendered: dict[int, tuple[str, ...]] = {}  # keyed by the ids of log's events

    def cells(event: Event) -> tuple[str, ...]:
        found = rendered.get(id(event))
        if found is None:
            found = rendered[id(event)] = (
                render(event.activity),
                *(render(event.attributes[c]) for c in columns),
            )
        return found

    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, delimiter=spec.delimiter, lineterminator="\n")
            writer.writerow(header)
            for trace in log.traces:
                case_id = trace.case_id
                writer.writerows((case_id, *cells(event)) for event in trace.events)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _strip_namespace(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_log_xes(path: str | Path, *, wildcard: str = WILDCARD) -> EventLog:
    """Read the string-attribute subset of an XES log in one streaming pass.

    Each ``<event>``'s ``concept:name`` becomes the activity (its absence
    raises :class:`MissingConceptName`); every other ``<string>``
    attribute becomes a schema attribute.  The schema is the union of
    attribute keys over all events, in order of first appearance; events
    that lack a key get ``⊥``.  Non-string attributes (timestamps,
    numbers, nested containers) are ignored, and so are ``<trace>``
    elements that are not direct children of the root.  Traces without
    events are skipped; a file left with none raises :class:`EmptyLog`.
    Case ids come from the trace-level ``concept:name``, defaulting to
    ``trace_{n}`` for the root's n-th child element; a reused one gets the
    first free ``~2``, ``~3``, ... suffix that no trace in the file
    already uses.

    Each top-level element is parsed, turned into plain tuples and
    cleared before the next is read, so memory holds one trace's XML at a
    time.  Every distinct cell is canonicalized and NFC-normalized once,
    and equal cells share one string; each distinct event is built once
    and shared.  Case ids are deduplicated on their NFC form.
    """
    cells = _Cells(wildcard)
    schema: dict[str, str] = {}
    parsed: list[tuple[str, list[tuple[str, dict[str, str]]]]] = []
    try:
        with open(path, "rb") as handle:
            steps = ElementTree.iterparse(handle, ("start", "end"))
            _, root = next(steps)
            depth = position = 0
            for kind, element in steps:
                if kind == "start":
                    depth += 1
                    continue
                depth -= 1
                if depth:
                    continue
                # ``element`` is a complete child of the root.
                if _strip_namespace(element.tag) == "trace":
                    case_id, events = _xes_trace(
                        element, f"trace_{position}", cells, schema, path
                    )
                    if events:
                        parsed.append((_nfc(case_id), events))
                position += 1
                element.clear()
                root.remove(element)
    except ElementTree.ParseError as exc:
        raise MalformedXml(f"{path}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not parsed:
        raise EmptyLog(f"{path}: no events")

    taken = {case_id for case_id, _ in parsed}
    last_suffix: dict[str, int] = {}
    missing = cells[""]
    keys = tuple(schema)
    pool = _EventPool(keys)
    traces = []
    for case_id, events in parsed:
        if case_id in last_suffix:
            suffix = last_suffix[case_id] + 1
            while f"{case_id}~{suffix}" in taken:
                suffix += 1
            last_suffix[case_id] = suffix
            case_id = f"{case_id}~{suffix}"
        else:
            last_suffix[case_id] = 1
        built = tuple(
            pool[(activity, position, *[values.get(key, missing) for key in keys])]
            for position, (activity, values) in enumerate(events)
        )
        traces.append(Trace(case_id=case_id, events=built))
    return EventLog(schema=keys, traces=tuple(traces))


def _xes_trace(
    trace_el: ElementTree.Element,
    case_id: str,
    cells: _Cells,
    schema: dict[str, str],
    path: str | Path,
) -> tuple[str, list[tuple[str, dict[str, str]]]]:
    """One parsed ``<trace>`` as its case id and ``(activity, values)`` pairs.

    Values are already canonical; new attribute keys join ``schema`` (a
    dict used as an ordered set that also shares each key's string).
    """
    events: list[tuple[str, dict[str, str]]] = []
    for child in trace_el:
        tag = _strip_namespace(child.tag)
        if tag == "string" and child.get("key") == "concept:name":
            case_id = child.get("value", case_id)
        if tag != "event":
            continue
        activity: str | None = None
        values: dict[str, str] = {}
        for attr_el in child:
            if _strip_namespace(attr_el.tag) != "string":
                continue
            key, value = attr_el.get("key"), attr_el.get("value", "")
            if key == "concept:name":
                activity = value
            elif key:
                values[schema.setdefault(key, key)] = cells[value]
        if activity is None:
            raise MissingConceptName(
                f"{path}: event without concept:name in trace {case_id!r}"
            )
        events.append((cells[activity], values))
    return case_id, events


def read_hierarchy(path: str | Path, *, wildcard: str = WILDCARD) -> HierarchyTable:
    """Read a generalization table from header-less CSV and validate it.

    Occurrences of the configured wildcard literal are canonicalized to
    ``⋆`` before validation, so the root check works whatever literal the
    file uses.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [
                tuple(WILDCARD if cell.strip() == wildcard else cell.strip() for cell in row)
                for row in csv.reader(handle)
                if row
            ]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: malformed CSV: {exc}") from exc
    try:
        return validate_table(rows)
    except Exception as exc:
        exc.args = (f"{path}: {exc}",) if exc.args else (f"{path}: invalid hierarchy",)
        raise


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the end-to-end anonymization run needs to know."""

    k: int
    activity_hierarchies: tuple[str, ...]
    quasi_identifiers: tuple[str, ...] = ()
    attribute_hierarchies: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    vectorization: str = "msa"
    utility_notion: str = "class_count"
    level_weights: tuple[float, ...] = (1.0,)
    drop_singletons: bool = False
    wildcard: str = WILDCARD
    csv: LogCsvSpec = field(default_factory=LogCsvSpec)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def check_level_weights(raw: object, label: str) -> tuple[float, ...]:
    """``raw`` as level weights, or :class:`ConfigError`."""
    _require(  # the range test is exact for ints and false for nan
        isinstance(raw, list) and raw and all(
            isinstance(w, (int, float)) and not isinstance(w, bool)
            and 0 <= w <= sys.float_info.max for w in raw
        ),
        f"{label} must be a non-empty list of finite, non-negative numbers",
    )
    return tuple(map(float, raw))


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a YAML pipeline configuration."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from exc
    _require(isinstance(raw, dict), f"{path}: top level must be a mapping")
    known = {
        "k",
        "quasi_identifiers",
        "activity_hierarchies",
        "attribute_hierarchies",
        "vectorization",
        "utility_notion",
        "level_weights",
        "drop_singletons",
        "wildcard",
        "csv",
    }
    unknown = set(raw) - known
    _require(not unknown, f"{path}: unknown keys {sorted(unknown)}")

    k = raw.get("k")
    _require(
        isinstance(k, int) and not isinstance(k, bool) and k >= 1,
        f"{path}: k must be an integer >= 1",
    )

    def _as_paths(value, label: str) -> tuple[str, ...]:
        if isinstance(value, str):
            value = [value]
        _require(
            isinstance(value, list) and value and all(isinstance(p, str) for p in value),
            f"{path}: {label} must be a non-empty list of file paths",
        )
        return tuple(value)

    activity = _as_paths(raw.get("activity_hierarchies"), "activity_hierarchies")

    qi_raw = raw.get("quasi_identifiers", [])
    _require(
        isinstance(qi_raw, list) and all(isinstance(a, str) for a in qi_raw),
        f"{path}: quasi_identifiers must be a list of attribute names",
    )
    quasi = tuple(qi_raw)

    attr_raw = raw.get("attribute_hierarchies", {})
    _require(
        isinstance(attr_raw, dict),
        f"{path}: attribute_hierarchies must map attribute names to file paths",
    )
    attr_hierarchies = {
        name: _as_paths(paths, f"attribute_hierarchies[{name}]")
        for name, paths in attr_raw.items()
    }
    for attr in quasi:
        _require(
            attr in attr_hierarchies,
            f"{path}: quasi-identifier {attr!r} has no hierarchy",
        )

    vectorization = raw.get("vectorization", "msa")
    _require(
        isinstance(vectorization, str) and vectorization in STRATEGIES,
        f"{path}: vectorization must be one of {tuple(STRATEGIES)}",
    )
    notion = raw.get("utility_notion", "class_count")
    _require(
        notion in UTILITY_NOTIONS,
        f"{path}: utility_notion must be one of {UTILITY_NOTIONS}",
    )
    weights = check_level_weights(raw.get("level_weights", [1.0]), f"{path}: level_weights")
    drop = raw.get("drop_singletons", False)
    _require(isinstance(drop, bool), f"{path}: drop_singletons must be a boolean")
    wildcard = raw.get("wildcard", WILDCARD)
    _require(
        isinstance(wildcard, str) and wildcard != "",
        f"{path}: wildcard must be a non-empty string",
    )

    csv_raw = raw.get("csv", {})
    _require(isinstance(csv_raw, dict), f"{path}: csv must be a mapping")
    csv_unknown = set(csv_raw) - {
        "case_column",
        "activity_column",
        "attribute_columns",
        "delimiter",
    }
    _require(not csv_unknown, f"{path}: unknown csv keys {sorted(csv_unknown)}")
    for key in ("case_column", "activity_column"):
        _require(
            isinstance(csv_raw.get(key, ""), str),
            f"{path}: csv.{key} must be a column name",
        )
    attribute_columns = csv_raw.get("attribute_columns")
    if attribute_columns is not None:
        _require(
            isinstance(attribute_columns, list)
            and all(isinstance(c, str) for c in attribute_columns),
            f"{path}: csv.attribute_columns must be a list of column names",
        )
        attribute_columns = tuple(attribute_columns)
    csv_spec = LogCsvSpec(
        case_column=csv_raw.get("case_column", "case"),
        activity_column=csv_raw.get("activity_column", "activity"),
        attribute_columns=attribute_columns,
        delimiter=csv_raw.get("delimiter", ","),
    )

    return PipelineConfig(
        k=k,
        quasi_identifiers=quasi,
        activity_hierarchies=activity,
        attribute_hierarchies=attr_hierarchies,
        vectorization=vectorization,
        utility_notion=notion,
        level_weights=weights,
        drop_singletons=drop,
        wildcard=wildcard,
        csv=csv_spec,
    )
