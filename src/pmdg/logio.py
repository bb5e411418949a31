"""File formats: log CSV, XES, hierarchy CSV, and the pipeline config.

The CSV log format is one row per event: a case column, an activity
column, and one column per attribute.  Rows belonging to the same case
are grouped in file order, so a log round-trips through write/read
without relying on any particular sort.

Cell conventions on read: the configured wildcard literal maps to the
canonical ``⋆``, and an empty cell maps to the missing-value literal
``⊥``.  By the model's rules, an all-wildcard event is inserted padding
and every other event receives its index among its case's real events as
``origin_index`` (:func:`~pmdg.model._numbered`).  A fully masked event
(all cells ``⋆`` *with* an origin) is therefore indistinguishable from
padding once serialized — the one lossy corner of the format, flagged in
``write_log_csv``.  A function that takes the wildcard literal checks it
first, by :func:`check_wildcard`, and raises ``ValueError``.

Both log readers make one streaming pass over the file and build each
trace's columns (see :class:`~pmdg.model.Trace`), never an element tree
or an ``Event``.  The XES read holds the log it builds and one trace's
events: one pair of ``pyexpat`` handlers builds a trace's columns at its
``</trace>``.  The CSV read holds every case's rows, one tuple of cells
each (equal rows share one), until the file ends, because a case's rows
need not be contiguous, and builds the columns from them then.  Each distinct
cell is canonicalized and NFC-normalized once per read, and every trace
holding that value shares one string; equal columns share one tuple,
and the cases of one body one ``columns`` mapping, as in every
:class:`~pmdg.model.EventLog`.  Case ids are grouped and deduplicated
on their NFC form, so the two Unicode spellings of a name are one case
id, and so are attribute names.  A log file without events raises
:class:`EmptyLog`.  Both CSV readers skip a leading UTF-8 byte-order
mark; the writer writes none.

Every read and write of a file in the package runs inside
:func:`file_faults`, the one map from a file's failures (OS, codec, CSV,
XML and YAML) to the pmdg errors that name it.  So a reader raises its
own faults without the path, and the map puts ``path: `` in front.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import filterfalse, repeat
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO
from xml.parsers import expat

import yaml

from .errors import (
    ConfigError,
    DataError,
    EmptyLog,
    IoFailure,
    MalformedXml,
    MissingColumn,
    MissingConceptName,
    ParseError,
    RaggedRow,
)
from .hierarchy import HierarchyTable
from .model import MISSING, WILDCARD, EventLog, Trace, _check_k, _Memo, _nfc, _numbered
from .selection import _check_notion, _check_weights
from .vectorize import STRATEGIES


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _strings(value: object, message: str) -> tuple[str, ...]:
    """``value``, a list or tuple of strings, as a tuple, or :class:`ConfigError`."""
    _require(isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value),
             message)
    return tuple(value)


def _paths(value: object, label: str) -> tuple[str, ...]:
    """One path or a non-empty list of them, as a tuple, or :class:`ConfigError`."""
    message = f"{label} must be a non-empty list of file paths"
    paths = _strings([value] if isinstance(value, str) else value, message)
    _require(bool(paths), message)
    return paths


def check_wildcard(literal: object, label: str = "wildcard",
                   error: type[Exception] = ConfigError) -> None:
    """The package's one rule for the wildcard literal in files: raise ``error``
    unless it is a non-empty string other than ``⊥``, which reads as missing."""
    if not (isinstance(literal, str) and literal not in ("", MISSING)):
        raise error(f"{label} must be a non-empty string, not {MISSING!r}")


@dataclass(frozen=True)
class LogCsvSpec:
    """Column layout of a log CSV file, checked however it is built.  The
    delimiter is one character other than ``"``, ``\\r``, ``\\n`` and NUL,
    which the ``csv`` module rejects on some Python versions, and the
    column names are strings; a list of attribute columns is kept as a
    tuple, and ``None`` means every non-key header column.  Names match a
    header, and each other, in NFC form: the attribute columns do not
    repeat a name, and the two key columns, case and activity, differ from
    each other and from every attribute column.  A spec that breaks a rule
    raises :class:`ConfigError`."""

    case_column: str = "case"
    activity_column: str = "activity"
    attribute_columns: tuple[str, ...] | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        _require(isinstance(self.delimiter, str) and len(self.delimiter) == 1
                 and self.delimiter not in '"\r\n\0',
                 "delimiter must be a single character other than a double quote, "
                 f"a line break or NUL, got {self.delimiter!r}")
        for key in ("case_column", "activity_column"):
            _require(isinstance(getattr(self, key), str), f"{key} must be a column name")
        columns = self.attribute_columns
        if columns is not None:
            columns = _strings(columns, "attribute_columns must be a list of column names")
            object.__setattr__(self, "attribute_columns", columns)
            _require(len(set(map(_nfc, columns))) == len(columns),
                     f"attribute columns repeat a name: {list(columns)}")
        _require(_nfc(self.case_column) != _nfc(self.activity_column),
                 f"case and activity column are both {self.case_column!r}")
        if (clash := self._key_clash(columns or ())) is not None:
            raise ConfigError(f"attribute column {clash!r} is a key column")

    def _is_key(self, name: str) -> bool:
        """Is ``name``, in NFC form, a key column?"""
        return _nfc(name) in (_nfc(self.case_column), _nfc(self.activity_column))

    def _key_clash(self, names: Sequence[str]) -> str | None:
        """The first of ``names`` that, in NFC form, is a key column."""
        return next(filter(self._is_key, names), None)

    def resolve_attributes(self, header: Sequence[str]) -> tuple[str, ...]:
        """Attribute columns, defaulting to every header column that, in
        NFC form, is not a key column."""
        if self.attribute_columns is not None:
            return tuple(self.attribute_columns)
        return tuple(filterfalse(self._is_key, header))


def _canonical(cell: str, wildcard: str) -> str:
    if cell == wildcard:
        return WILDCARD
    if cell == "":
        return MISSING
    return cell


def _cells(wildcard: str) -> _Memo:
    """Raw cell -> canonical, NFC-normalized value, once per distinct raw
    cell.  Raw cells that read as equal values (the two Unicode forms of a
    word, or ``⋆`` and the wildcard literal) get one shared string, so a
    log holds each distinct value once."""
    values = _Memo()
    return _Memo(lambda raw: values[_nfc(_canonical(raw, wildcard))])


@contextmanager
def file_faults(path: str | Path, verb: str = "read", *,
                undecodable: type = ParseError) -> Iterator[None]:
    """Run a block that reads or writes (``verb``) ``path``, turning an
    ``OSError`` into :class:`IoFailure`, text that is not UTF-8 into
    ``undecodable``, a CSV, XML or YAML fault into :class:`ParseError`,
    :class:`MalformedXml` or :class:`ConfigError`, each naming the file.
    A :class:`ParseError` or :class:`ConfigError` raised in the block gets
    ``path: `` in front; any other exception passes as it is."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot {verb} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise undecodable(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: malformed CSV: {exc}") from exc
    except expat.ExpatError as exc:
        raise MalformedXml(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    except (ParseError, ConfigError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_log_csv(
    path: str | Path, spec: LogCsvSpec | None = None, *, wildcard: str = WILDCARD
) -> EventLog:
    """Read an event log from CSV in one streaming pass: rows are grouped
    into cases on the NFC form of their case id, and each case's rows
    become its trace's columns.

    The spec's columns are found in the header by their NFC form, so
    either Unicode spelling of a name matches.  Raises
    :class:`MissingColumn` if the header lacks a configured column,
    :class:`RaggedRow` (with the line number) if a data row does not
    match the header width, :class:`EmptyLog` if no data rows remain,
    and :class:`ParseError` if the header repeats a name (in either
    Unicode form), the file is not UTF-8 or the ``csv`` module rejects
    it (e.g. a cell over its field size limit).  Header faults are
    reported before any data row is read; otherwise the first faulty row
    wins.
    """
    check_wildcard(wildcard, error=ValueError)
    spec = spec or LogCsvSpec()
    cells = _cells(wildcard)
    share = _Memo().__getitem__
    cases: dict[str, list[tuple[str, ...]]] = {}  # NFC case id -> its rows
    rows_of = _Memo(lambda raw: cases.setdefault(_nfc(raw), []))
    with file_faults(path), open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=spec.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyLog("file is empty") from None
        at = {name: i for i, name in enumerate(map(_nfc, header))}  # NFC name -> index
        if len(at) != len(header):
            raise ParseError(f"header repeats a column name: {header}")
        schema = spec.resolve_attributes(header)
        for column in (spec.case_column, spec.activity_column, *schema):
            if _nfc(column) not in at:
                raise MissingColumn(f"header has no column {column!r}")
        case_at, width = at[_nfc(spec.case_column)], len(header)
        pick = itemgetter(  # a trailing extra index: always a tuple
            at[_nfc(spec.activity_column)],
            *(at[_nfc(name)] for name in schema),
            0,
        )
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise RaggedRow(
                    f"line {reader.line_num} has {len(row)} cells, expected {width}"
                )
            cells_of_row = map(cells.__getitem__, pick(row)[:-1])
            rows_of[row[case_at]].append(share(tuple(cells_of_row)))
        if not cases:
            raise EmptyLog("no event rows")
    schema = tuple(map(_nfc, schema))
    traces = []
    for case_id, rows in cases.items():
        activities, *columns = map(share, zip(*rows))
        columns = dict(zip(schema, columns))
        origins = share(_numbered(case_id, activities, columns))
        traces.append(Trace.from_columns(case_id, activities, columns, origins))
    return EventLog(schema=schema, traces=tuple(traces))


def _written_attributes(log: EventLog, path: str | Path, spec: LogCsvSpec) -> tuple[str, ...]:
    """The attribute columns of ``log`` written to ``path``, or :class:`DataError`
    for one named like a key column (an XES key ``case``, say) or one the
    log lacks in NFC form (an XES file without it, say)."""
    names = log.schema if spec.attribute_columns is None else spec.attribute_columns
    if (clash := spec._key_clash(names)) is not None:
        raise DataError(f"cannot write {path}: attribute {clash!r} names a key column")
    if (absent := next((n for n in names if _nfc(n) not in log.schema), None)) is not None:
        raise DataError(f"cannot write {path}: log has no attribute {absent!r}")
    return names


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

    A trace is written as its columns zipped into rows, unless it shares
    its ``columns`` mapping, and so its body, with an earlier trace (every
    :class:`~pmdg.model.EventLog` holds one mapping per distinct body).
    At a body's second sight its rows are rendered once, each behind an
    empty field, through a writer of the same dialect; that trace and
    every later one with the body are written as their rendered case id
    in front of each of those rows.  A record of two fields or more
    renders each field on its own, so the bytes are the same either way.
    An attribute named like a key column would make the file unreadable,
    and one the log lacks cannot be written, so both raise
    :class:`DataError` before the file is created.
    """
    check_wildcard(wildcard, error=ValueError)
    spec = spec or LogCsvSpec()
    names = _written_attributes(log, path, spec)
    header = [spec.case_column, spec.activity_column, *names]
    keys = tuple(map(_nfc, names))  # the log's attribute names are NFC
    render = _Memo(lambda cell: wildcard if cell == WILDCARD else cell).__getitem__
    text = io.StringIO()
    lines = csv.writer(text, delimiter=spec.delimiter, lineterminator="\n")

    def rendered(row: Sequence[str]) -> str:
        text.seek(0)
        text.truncate()
        lines.writerow(row)
        return text.getvalue()

    first_of: dict[int, int] = {}  # id of a columns mapping -> position of its first trace
    rows_of: dict[int, list[str]] = {}  # that position -> "" and the body's rows
    with file_faults(path, "write"), open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=spec.delimiter, lineterminator="\n")
        writer.writerow(header)
        for position, trace in enumerate(log.traces):
            first = first_of.setdefault(id(trace.columns), position)
            if first == position or first not in rows_of:
                columns = [trace.activities, *map(trace.columns.__getitem__, keys)]
                if wildcard != WILDCARD:
                    columns = [tuple(map(render, column)) for column in columns]
                if first == position:  # first sight
                    writer.writerows(zip(repeat(trace.case_id), *columns))
                    continue
                rows_of[first] = ["", *map(rendered, zip(repeat(""), *columns))]
            # The case id's field: drop the delimiter and the line end.
            handle.write(rendered((trace.case_id, ""))[:-2].join(rows_of[first]))


def _parse_xes(handle: BinaryIO, cells: _Memo, share: _Memo) -> tuple:
    """The traces with events of an XES file, each as its NFC case id, its
    activities and its columns for the keys seen by its end, and the NFC
    attribute keys in order of first sight.

    One pair of ``pyexpat`` handlers tracks the depth: 1 is the root, 2
    its children (traces among them), 3 a trace's children (its events
    and ``<string>``s) and 4 an event's.  An event's ``{key: value}`` dict
    lives until ``</trace>`` builds the trace's columns through ``share``;
    element names arrive as ``namespace}local``.
    """
    local = _Memo(lambda name: name.rpartition("}")[2])
    schema = _Memo()
    keys = _Memo(lambda raw: schema[_nfc(raw)])
    missing = cells[""]
    traces: list[tuple[str, tuple[str, ...], dict[str, tuple[str, ...]]]] = []
    parser = expat.ParserCreate(None, "}")
    depth = position = 0
    case_id: str | None = None  # None outside a trace
    nameless: str | None = None  # the case id at the trace's first nameless event
    activities: list[str] = []
    events: list[dict[str, str]] = []  # the open trace's named events
    event: dict[str, str] | None = None  # None outside an event
    activity: str | None = None

    def start(element: str, attributes: dict[str, str]) -> None:
        nonlocal depth, case_id, nameless, event, activity
        depth += 1
        if depth == 4 and event is not None and local[element] == "string":
            key = attributes.get("key")
            if key == "concept:name":
                activity = attributes.get("value", "")
            elif key:
                event[keys[key]] = cells[attributes.get("value", "")]
        elif depth == 3 and case_id is not None:
            name = local[element]
            if name == "event":
                event, activity = {}, None
            elif name == "string" and attributes.get("key") == "concept:name":
                case_id = attributes.get("value", case_id)
        elif depth == 2 and local[element] == "trace":
            case_id, nameless = f"trace_{position}", None

    def end(element: str) -> None:
        nonlocal depth, position, case_id, nameless, event
        depth -= 1
        if depth == 2 and event is not None:
            if activity is not None:
                activities.append(cells[activity])
                events.append(event)
            elif nameless is None:
                nameless = case_id
            event = None
        elif depth == 1:
            position += 1
            if case_id is not None:
                if nameless is not None:
                    raise MissingConceptName(
                        f"event without concept:name in trace {nameless!r}"
                    )
                if activities:
                    traces.append((_nfc(case_id), share[tuple(activities)], {
                        key: share[tuple([values.get(key, missing) for values in events])]
                        for key in schema
                    }))
                    activities.clear()
                    events.clear()
                case_id = None

    def skipped(entity: str, is_parameter_entity: bool) -> None:
        if not is_parameter_entity:  # ``ElementTree`` rejects it too
            raise MalformedXml(f"undefined entity &{entity};")

    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.SkippedEntityHandler = skipped
    try:
        parser.ParseFile(handle)
    finally:
        # The parser holds the handlers, which hold it and each other: break
        # that cycle so the parse state goes as soon as the read returns.
        del parser, start, end
    return traces, tuple(schema)


def read_log_xes(path: str | Path, *, wildcard: str = WILDCARD) -> EventLog:
    """Read the string-attribute subset of an XES log in one streaming pass.

    Each ``<event>``'s ``concept:name`` becomes the activity (its absence
    raises :class:`MissingConceptName` once its trace has ended); every
    other ``<string>`` attribute becomes a schema attribute.  The schema
    is the union of attribute keys (NFC-normalized) over all events, in
    order of first appearance; events that lack a key get ``⊥``.
    Non-string attributes (timestamps, numbers, nested containers) are
    ignored, and so are ``<trace>`` elements that are not direct children
    of the root.  Traces without events are skipped; a file left with
    none raises :class:`EmptyLog`.  Case ids come from the trace-level
    ``concept:name``, defaulting to ``trace_{n}`` for the root's n-th
    child element; a reused one gets the first free ``~2``, ``~3``, ...
    suffix that no trace in the file already uses.  Malformed or
    truncated XML raises :class:`MalformedXml`.  Each trace becomes columns
    at its ``</trace>``; its suffix, which needs every case id, and one
    shared all-``⊥`` column per key first seen after it wait for the end.
    """
    check_wildcard(wildcard, error=ValueError)
    cells = _cells(wildcard)
    share = _Memo()
    with file_faults(path), open(path, "rb") as handle:
        parsed, schema = _parse_xes(handle, cells, share)
        if not parsed:
            raise EmptyLog("no events")

    taken = {case_id for case_id, *_ in parsed}
    last_suffix: dict[str, int] = {}
    traces = []
    for position, (case_id, activities, columns) in enumerate(parsed):
        parsed[position] = None  # the parse state goes as its trace is built
        if case_id in last_suffix:
            suffix = last_suffix[case_id] + 1
            while f"{case_id}~{suffix}" in taken:
                suffix += 1
            last_suffix[case_id] = suffix
            case_id = f"{case_id}~{suffix}"
        else:
            last_suffix[case_id] = 1
        for key in schema[len(columns):]:  # first seen after this trace
            columns[key] = share[(cells[""],) * len(activities)]
        origins = share[_numbered(case_id, activities, columns)]
        traces.append(Trace.from_columns(case_id, activities, columns, origins))
    return EventLog(schema=schema, traces=tuple(traces))


def read_hierarchy(path: str | Path, *, wildcard: str = WILDCARD) -> HierarchyTable:
    """Read a generalization table from header-less CSV and validate it.

    Occurrences of the configured wildcard literal are canonicalized to
    ``⋆`` before validation, so the root check works whatever literal the
    file uses.
    """
    check_wildcard(wildcard, error=ValueError)
    with file_faults(path), open(path, newline="", encoding="utf-8-sig") as handle:
        return HierarchyTable([  # every row is read before any is checked
            tuple(WILDCARD if cell.strip() == wildcard else cell.strip() for cell in row)
            for row in csv.reader(handle)
            if row
        ])


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the end-to-end anonymization run needs to know, checked
    however it is built: in code, by :func:`dataclasses.replace` or by
    :func:`load_config`.  Construction normalizes in place (one path
    becomes a one-path tuple, lists become tuples, attribute names take
    their NFC form, as the readers store a header, and weights become
    floats), then raises :class:`ConfigError` for the first field, in
    field order, that breaks its rule: see ``model._check_k``, ``selection``'s
    ``_check_notion`` and ``_check_weights`` and :func:`check_wildcard`; every
    quasi-identifier has hierarchies and ``csv`` is a :class:`LogCsvSpec`.
    """

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

    def __post_init__(self) -> None:
        def normalize(name: str, value: object) -> None:
            object.__setattr__(self, name, value)

        _check_k(self.k, ConfigError)
        activity = _paths(self.activity_hierarchies, "activity_hierarchies")
        normalize("activity_hierarchies", activity)
        quasi = tuple(map(_nfc, _strings(
            self.quasi_identifiers, "quasi_identifiers must be a list of attribute names"
        )))
        _require(len(set(quasi)) == len(quasi), "quasi_identifiers repeats a name")
        normalize("quasi_identifiers", quasi)
        named = self.attribute_hierarchies
        _require(
            isinstance(named, Mapping) and all(isinstance(name, str) for name in named),
            "attribute_hierarchies must map attribute names to file paths",
        )
        hierarchies = {
            _nfc(name): _paths(paths, f"attribute_hierarchies[{name}]")
            for name, paths in named.items()
        }
        _require(len(hierarchies) == len(named),
                 "attribute_hierarchies names an attribute twice in two Unicode forms")
        normalize("attribute_hierarchies", hierarchies)
        for attr in quasi:
            _require(attr in hierarchies, f"quasi-identifier {attr!r} has no hierarchy")
        _require(isinstance(self.vectorization, str) and self.vectorization in STRATEGIES,
                 f"vectorization must be one of {tuple(STRATEGIES)}")
        _check_notion(self.utility_notion, "utility_notion", ConfigError)
        weights = _check_weights(self.level_weights, "level_weights", ConfigError)
        normalize("level_weights", weights)
        _require(isinstance(self.drop_singletons, bool), "drop_singletons must be a boolean")
        check_wildcard(self.wildcard, "wildcard")
        _require(isinstance(self.csv, LogCsvSpec), "csv must be a LogCsvSpec")


def _check_known(raw: dict, kind: type, label: str) -> None:
    unknown = set(raw) - {f.name for f in fields(kind)}
    _require(not unknown, f"unknown {label} {sorted(unknown, key=str)}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a YAML pipeline configuration into a :class:`PipelineConfig`.

    The top level is a mapping of the config's field names, ``csv`` a
    mapping of :class:`LogCsvSpec` field names; an absent key takes its
    field's default (``k`` and ``activity_hierarchies`` have none).  The
    constructors check every value, and each :class:`ConfigError` names
    ``path``.
    """
    with file_faults(path, undecodable=ConfigError), open(path, encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
        _require(isinstance(raw, dict), "top level must be a mapping")
        _check_known(raw, PipelineConfig, "keys")
        settings = {"k": None, "activity_hierarchies": None, **raw}
        if "csv" in raw:
            _require(isinstance(raw["csv"], dict), "csv must be a mapping")
            _check_known(raw["csv"], LogCsvSpec, "csv keys")
            settings["csv"] = LogCsvSpec(**raw["csv"])
        return PipelineConfig(**settings)
