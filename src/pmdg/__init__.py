"""k-anonymity for multi-perspective event logs via data generalization.

The package takes an event log in which each event carries an activity
plus further perspective attributes (role, location, ...), pads all
traces to a uniform length, and walks a lattice of generalization
levels — control flow first — until every trace is indistinguishable
from at least k-1 others.  Utility metrics quantify what the
generalization cost in terms of control-flow variants and
handover-of-work precision.
"""

from .anonymize import (
    LatticeSearchResult,
    satisfies,
    search,
    search_control_flow,
)
from .errors import (
    ConfigError,
    DataError,
    DuplicateLeaf,
    EmptyLog,
    HierarchyFormatError,
    InconsistentDepth,
    InsufficientTraces,
    IoFailure,
    LinkageBroken,
    MalformedXml,
    MissingColumn,
    MissingConceptName,
    MissingRoot,
    NonFunctionalLevel,
    ParseError,
    PmdgError,
    RaggedRow,
    UnknownAttribute,
    UnknownValue,
)
from .hierarchy import (
    Hierarchy,
    HierarchyTable,
    LevelVector,
    apply_to_log,
)
from .logio import (
    LogCsvSpec,
    PipelineConfig,
    load_config,
    read_hierarchy,
    read_log_csv,
    read_log_xes,
    write_log_csv,
)
from .metrics import (
    HandoverGraph,
    HandoverPair,
    export_dot,
    handover_graph,
    handover_precision,
    handover_preservation,
    remaining_variants,
    render_dot,
)
from .model import (
    MISSING,
    WILDCARD,
    Event,
    EventLog,
    KAnonymityReport,
    Trace,
    control_flow,
    drop_singleton_variants,
    trace_signature,
    validate_k,
    variants,
)
from .selection import UtilityProfile, select
from .vectorize import vectorize_msa, vectorize_naive

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DuplicateLeaf",
    "EmptyLog",
    "Event",
    "EventLog",
    "HandoverGraph",
    "HandoverPair",
    "Hierarchy",
    "HierarchyFormatError",
    "HierarchyTable",
    "InconsistentDepth",
    "InsufficientTraces",
    "IoFailure",
    "KAnonymityReport",
    "LatticeSearchResult",
    "LevelVector",
    "LinkageBroken",
    "LogCsvSpec",
    "MISSING",
    "MalformedXml",
    "MissingColumn",
    "MissingConceptName",
    "MissingRoot",
    "NonFunctionalLevel",
    "ParseError",
    "PipelineConfig",
    "PmdgError",
    "RaggedRow",
    "Trace",
    "UnknownAttribute",
    "UnknownValue",
    "UtilityProfile",
    "WILDCARD",
    "apply_to_log",
    "control_flow",
    "drop_singleton_variants",
    "export_dot",
    "handover_graph",
    "handover_precision",
    "handover_preservation",
    "load_config",
    "read_hierarchy",
    "read_log_csv",
    "read_log_xes",
    "remaining_variants",
    "render_dot",
    "satisfies",
    "search",
    "search_control_flow",
    "select",
    "trace_signature",
    "validate_k",
    "variants",
    "vectorize_msa",
    "vectorize_naive",
    "write_log_csv",
]
