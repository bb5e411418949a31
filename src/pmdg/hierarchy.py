"""Generalization hierarchies and their application to event logs.

A hierarchy is a rectangular table, one row per leaf value.  Column 0
holds the leaf, each following column the value one level more general,
and the last column is always the wildcard root ``⋆``.  A value may stay
unchanged across consecutive columns ("suppress late"), and the same
label may appear at several levels; lookup is therefore *row-based*:
generalizing a leaf to level ``j`` returns column ``j`` of that leaf's
row.

Levels are global per perspective: level 0 is the raw data, level
``depth`` maps everything to ``⋆``.  The precision weight ``alpha(v)``
counts how many leaves generalize to (or through) ``v``; it drives the
handover-quality metrics.  Generalization is a lookup in one table per
level: ``generalize`` looks up one value, checking the level, and
``level_ids`` rolls whole sequences up from each level's distinct images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateLeaf,
    HierarchyFormatError,
    InconsistentDepth,
    MissingRoot,
    NonFunctionalLevel,
    UnknownValue,
)
from .model import (
    MISSING, WILDCARD, EventLog, Trace, _check_attributes, _map_bodies, _Memo, _nfc,
)


@dataclass(frozen=True)
class HierarchyTable:
    """A generalization table, checked however it is built: construction
    takes any iterable of rows, strips and NFC-normalizes every cell, as
    log values are, so a leaf matches the log value it names whatever its
    encoding, and raises the :class:`~pmdg.errors.HierarchyFormatError`
    subclass naming the first rule violated: uniform row length, wildcard
    root in the last column, no empty cell, unique leaves, and functional
    consistency (equal values at level ``j`` stay equal at level ``j+1``,
    and cells ``⋆`` and ``⊥``, unless a leaf, go where the data's ``⋆``
    and ``⊥`` go).  The last check's maps from each level to the next are
    kept, and :class:`Hierarchy` generalizes through them."""

    rows: tuple[tuple[str, ...], ...]
    # Level l's values, ``⋆`` and ``⊥`` -> level l+1's, as the check builds them.
    _parents: tuple[dict[str, str], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        normalized = tuple(tuple(_nfc(cell.strip()) for cell in row) for row in self.rows)
        object.__setattr__(self, "rows", normalized)
        if not normalized:
            raise HierarchyFormatError("hierarchy table has no rows")
        width = len(normalized[0])
        if width < 2:
            raise InconsistentDepth(
                "hierarchy rows need at least a leaf column and the wildcard root"
            )
        for number, row in enumerate(normalized, start=1):
            if len(row) != width:
                raise InconsistentDepth(
                    f"row {number} has {len(row)} cells, expected {width}"
                )
            if row[-1] != WILDCARD:
                raise MissingRoot(
                    f"row {number} ends in {row[-1]!r}, expected the wildcard {WILDCARD!r}"
                )
            if "" in row:  # a log file reads an empty cell as ``⊥``
                raise HierarchyFormatError(f"row {number} has an empty cell")
        seen_leaves: set[str] = set()
        for number, row in enumerate(normalized, start=1):
            if row[0] == WILDCARD:
                raise HierarchyFormatError(
                    f"row {number} uses the wildcard {WILDCARD!r} as a leaf"
                )
            if row[0] in seen_leaves:
                raise DuplicateLeaf(f"leaf {row[0]!r} appears in more than one row")
            seen_leaves.add(row[0])
        parents = []
        for level in range(width - 1):
            parent_of = {WILDCARD: WILDCARD}  # where the data's ``⋆`` and ``⊥`` go
            if MISSING not in seen_leaves:
                parent_of[MISSING] = MISSING if level + 1 < width - 1 else WILDCARD
            for row in normalized:
                value, parent = row[level], row[level + 1]
                known = parent_of.setdefault(value, parent)
                if known != parent:
                    raise NonFunctionalLevel(
                        f"value {value!r} at level {level} maps to both {known!r} "
                        f"and {parent!r}"
                    )
            parents.append(parent_of)
        object.__setattr__(self, "_parents", tuple(parents))

    @property
    def depth(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self.rows)


def _is_level(level: object) -> bool:
    """The package's one rule for a generalization level: an int >= 0, not a bool."""
    return isinstance(level, int) and not isinstance(level, bool) and level >= 0


class _LevelTable(dict):
    """Images at one level, or one level up from the level below; any
    other key raises :class:`~pmdg.errors.UnknownValue`."""

    def __init__(self, name: str, images: Mapping[str, str]) -> None:
        super().__init__(images)
        self.name = name

    def __missing__(self, value: str) -> str:
        raise UnknownValue(f"{value!r} is not a leaf of the {self.name} hierarchy")


class Hierarchy:
    """A generalization hierarchy for one perspective.

    ``attribute`` names the log attribute the hierarchy applies to;
    ``None`` marks a hierarchy over activity labels (the control-flow
    perspective).  :meth:`lookup` gives one table per level, from each
    leaf, ``⊥`` and ``⋆`` to its image at that level.
    """

    def __init__(self, table: HierarchyTable, attribute: str | None = None):
        self.table = table
        self.attribute = attribute
        self.depth = table.depth
        self.leaves = table.leaves
        self._parents = tuple(_LevelTable(self.name, parent) for parent in table._parents)
        # Each leaf, ``⊥`` and ``⋆`` from itself at level 0 up through the parents.
        images = [{MISSING: MISSING} | {leaf: leaf for leaf in self.leaves} | {WILDCARD: WILDCARD}]
        for parent in self._parents:
            images.append({value: parent[image] for value, image in images[-1].items()})
        self._lookup = tuple(_LevelTable(self.name, level) for level in images)
        counts: dict[str, set[str]] = {}
        for row in table.rows:
            for value in row:
                counts.setdefault(value, set()).add(row[0])
        self._alpha = {value: len(leaves) for value, leaves in counts.items()}

    @classmethod
    def from_rows(
        cls, rows: Iterable[Sequence[str]], attribute: str | None = None
    ) -> "Hierarchy":
        return cls(HierarchyTable(rows), attribute=attribute)

    @property
    def name(self) -> str:
        return self.attribute if self.attribute is not None else "activity"

    def generalize(self, value: str, level: int) -> str:
        """Map a leaf value to its level-``level`` generalization, by a
        checked lookup in that level's table.

        The wildcard stays a wildcard at any level.  The missing-value
        literal ``⊥`` is accepted even when no row defines it: gaps in
        the data carry no information to generalize away, so ``⊥`` stays
        itself below the root and becomes ``⋆`` only at the top level.
        A level that :meth:`lookup` refuses raises ``ValueError``, any
        other value :class:`~pmdg.errors.UnknownValue`.
        """
        return self.lookup(level)[value]

    def lookup(self, level: int) -> Mapping[str, str]:
        """The level's table: each leaf, ``⊥`` and ``⋆`` -> its image.  A level
        that is no :func:`_is_level` or exceeds ``depth`` raises ``ValueError``."""
        if not (_is_level(level) and level <= self.depth):
            raise ValueError(f"level {level!r} out of range 0..{self.depth} for {self.name}")
        return self._lookup[level]

    def level_ids(self, sequences: Iterable[tuple[str, ...]]) -> list[list[int]]:
        """Each sequence's image at every level 0..depth as a small int,
        ``ids[level][i]`` for the ``i``-th sequence; equal images share one
        id, numbered by first sight.  Level 0 interns the sequences, and level
        ``l+1`` maps each distinct level-``l`` image once through a parent
        table, so the first unknown value in scan order raises ``UnknownValue``."""
        ids: dict[tuple, int] = {}
        levels = [[ids.setdefault(sequence, len(ids)) for sequence in sequences]]
        for parent in self._parents:
            lift, images, ids = parent.__getitem__, ids, {}
            up = [ids.setdefault(tuple(map(lift, image)), len(ids)) for image in images]
            levels.append(list(map(up.__getitem__, levels[-1])))
        return levels

    def alpha(self, value: str) -> int:
        """Number of leaves whose generalization path contains ``value``.

        ``alpha(⋆)`` equals the number of leaves, i.e. the size of the
        attribute domain; ``alpha`` of a leaf is 1.  The missing-value
        literal counts as a single-leaf path of its own unless the table
        defines it explicitly.
        """
        found = self._alpha.get(value)
        if found is not None:
            return found
        if value == MISSING:
            return 1
        raise UnknownValue(f"{value!r} does not occur in the {self.name} hierarchy")


@dataclass(frozen=True)
class LevelVector:
    """One node of the generalization lattice: a global level for the
    activity perspective plus one per generalized attribute; hashed by value."""

    activity_level: int = 0
    attribute_levels: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "attribute_levels", MappingProxyType(dict(self.attribute_levels))
        )
        for level in (self.activity_level, *self.attribute_levels.values()):
            if not _is_level(level):
                raise ValueError(f"generalization levels must be integers >= 0, got {level!r}")

    def __hash__(self) -> int:
        return hash((self.activity_level, tuple(sorted(self.attribute_levels.items()))))

    @property
    def cost(self) -> int:
        """Total generalization applied; the lattice search minimizes this."""
        return self.activity_level + sum(self.attribute_levels.values())

    def as_dict(self) -> dict:
        return {
            "activity": self.activity_level,
            "attributes": dict(sorted(self.attribute_levels.items())),
        }


def _check_hierarchies(names: Iterable[str], hierarchies: Mapping[str, Hierarchy]) -> None:
    """Raise ``ValueError`` for the first of ``names`` that ``hierarchies`` lacks."""
    absent = next((name for name in names if name not in hierarchies), None)
    if absent is not None:
        raise ValueError(f"no hierarchy supplied for attribute {absent!r}")


def _mask(flow: tuple[str, ...], column: tuple[str, ...]) -> tuple[str, ...]:
    """The column with ``⋆`` wherever the flow's activity is ``⋆``: once the
    control flow no longer admits that anything specific happened there, a
    concrete role or location would leak what the wildcard hides."""
    if WILDCARD not in flow:
        return column
    return tuple([WILDCARD if a == WILDCARD else v for a, v in zip(flow, column)])


def apply_to_log(
    log: EventLog,
    levels: LevelVector,
    activity_hierarchy: Hierarchy,
    attribute_hierarchies: Mapping[str, Hierarchy] | None = None,
) -> EventLog:
    """Generalize a log to the given lattice node.

    Every activity label is replaced by its generalization at the
    vector's activity level, and every value of an attribute listed in
    ``levels.attribute_levels`` by its generalization at that attribute's
    level.  Attributes without an entry are left untouched.

    An event whose activity generalizes to ``⋆`` is masked entirely, by
    :func:`_mask`, the one statement of that rule.  Masked events keep
    their ``origin_index``; inserted wildcard events (all ``⋆``) come out
    as they went in.

    Each distinct trace body is generalized once, and each distinct column
    by one ``map`` through the level's table, before any masking, so an
    unknown value raises :class:`~pmdg.errors.UnknownValue` wherever it
    stands: the first in the first trace that holds one, its activities
    read before its attribute columns in schema order.  Equal image
    columns share one tuple; :func:`~pmdg.model._map_bodies` keys each
    image body once and renames each case at most once.
    """
    attribute_hierarchies = attribute_hierarchies or {}
    _check_attributes(log, levels.attribute_levels)
    _check_hierarchies(levels.attribute_levels, attribute_hierarchies)

    activities = activity_hierarchy.lookup(levels.activity_level).__getitem__
    tables = {
        attr: attribute_hierarchies[attr].lookup(level).__getitem__
        for attr, level in levels.attribute_levels.items()
    }
    share = _Memo().__getitem__

    def image(key: tuple) -> tuple:
        attr, flow, column = key
        if attr in tables:
            column = tuple(map(tables[attr], column))
        return share(_mask(flow, column))

    flows = _Memo(lambda flow: share(tuple(map(activities, flow))))
    images = _Memo(image)  # (attribute, image flow, column) -> image column

    def build(trace: Trace) -> Trace:
        flow = flows[trace.activities]
        columns = {attr: images[attr, flow, trace.columns[attr]] for attr in log.schema}
        return Trace.from_columns(trace.case_id, flow, columns, trace.origins)

    return _map_bodies(log, build)
