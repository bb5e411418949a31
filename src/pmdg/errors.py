"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from :class:`PmdgError`, so callers
(and the command line front end) can tell expected failure modes apart
from genuine bugs.  The grouping mirrors how the CLI maps failures to
exit codes: configuration problems, input parsing problems, data-level
problems, an unsatisfiable privacy requirement, and plain I/O trouble.
"""

from __future__ import annotations


class PmdgError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ConfigError(PmdgError):
    """A pipeline configuration file is missing, malformed, or inconsistent."""


class ParseError(PmdgError):
    """An input file could not be parsed into the expected structure."""


class MissingColumn(ParseError):
    """A required column is absent from a CSV header."""


class RaggedRow(ParseError):
    """A CSV data row has a different number of cells than the header."""


class EmptyLog(ParseError):
    """An input log contains no event data."""


class MalformedXml(ParseError):
    """An XES file is not well-formed XML."""


class MissingConceptName(ParseError):
    """An XES event lacks the concept:name attribute naming its activity."""


class HierarchyFormatError(ParseError):
    """A generalization hierarchy table violates a structural rule."""


class InconsistentDepth(HierarchyFormatError):
    """Hierarchy rows do not all have the same number of levels."""


class NonFunctionalLevel(HierarchyFormatError):
    """A value at some level maps to two different values one level up."""


class DuplicateLeaf(HierarchyFormatError):
    """The same leaf value starts more than one hierarchy row."""


class MissingRoot(HierarchyFormatError):
    """A hierarchy row does not end in the wildcard root."""


class DataError(PmdgError):
    """Log content and the supplied hierarchies or arguments do not fit together."""


class UnknownValue(DataError):
    """A log contains a value that is not a leaf of the matching hierarchy."""


class UnknownAttribute(DataError, ValueError):
    """An attribute name is not part of the log schema; also a ``ValueError``."""


class LinkageBroken(DataError):
    """A generalized log lacks the origin linkage needed to trace events back."""


class InsufficientTraces(PmdgError):
    """The log has fewer traces than the requested anonymity threshold k."""


class IoFailure(PmdgError):
    """Reading or writing a file failed at the operating-system level."""
