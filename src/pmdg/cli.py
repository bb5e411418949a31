"""Command line front end: ``pmdg <command> ...``.

Commands cover the individual pipeline stages (``preprocess``,
``vectorize``, ``select-hierarchy``, ``validate``, ``metrics ...``) and
the end-to-end ``anonymize`` run driven by a YAML configuration.

Exit codes: 0 success, 1 failed validation, 2 configuration or usage
error, 3 input parse error or input that does not fit the hierarchies
or arguments, 4 privacy requirement unsatisfiable (fewer traces than
k), 5 I/O failure.  Each error is one ``pmdg: `` line on stderr, its
message's line breaks printed as ``; ``; warnings come before it, one
``pmdg: warning: `` line each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import stat
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .anonymize import search
from .errors import (
    ConfigError,
    DataError,
    InsufficientTraces,
    IoFailure,
    ParseError,
)
from .hierarchy import Hierarchy
from .logio import (
    LogCsvSpec,
    PipelineConfig,
    _written_attributes,
    check_wildcard,
    file_faults,
    load_config,
    read_hierarchy,
    read_log_csv,
    read_log_xes,
    write_log_csv,
)
from .metrics import export_dot, handover_graph, handover_precision, remaining_variants
from .model import (
    WILDCARD, EventLog, _check_attributes, _check_k, _nfc, drop_singleton_variants,
    validate_k, variants,
)
from .selection import UTILITY_NOTIONS, _check_weights, select
from .vectorize import STRATEGIES


@dataclass(frozen=True)
class RunManifest:
    """Machine-readable record of one ``anonymize`` run.

    Identical inputs produce an identical manifest except for the
    wall-clock ``timings_s`` block.
    """

    tool_version: str
    input_path: str
    input_sha256: str
    config_sha256: str
    k: int
    vectorization: str
    utility_notion: str
    quasi_identifiers: tuple[str, ...]
    drop_singletons: bool
    traces_read: int
    traces_kept: int
    aligned_length: int
    chosen_hierarchies: dict
    levels: dict
    nodes_evaluated: int
    variants_input: int
    variants_output: int
    min_class_size: int
    class_size_histogram: list
    handover_precision: dict
    timings_s: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, ensure_ascii=False)


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with file_faults(path), open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_config(config: PipelineConfig) -> str:
    """Digest of every setting but the CSV layout."""
    settings = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "csv"}
    settings["attribute_hierarchies"] = dict(config.attribute_hierarchies)
    canonical = json.dumps(settings, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_log(path: str, spec: LogCsvSpec, wildcard: str) -> EventLog:
    if str(path).lower().endswith(".xes"):
        return read_log_xes(path, wildcard=wildcard)
    return read_log_csv(path, spec, wildcard=wildcard)


def _load_hierarchy(path: str, attribute: str | None, wildcard: str) -> Hierarchy:
    return Hierarchy(read_hierarchy(path, wildcard=wildcard), attribute=attribute)


def _pick_hierarchy(
    log: EventLog, paths: tuple[str, ...], attribute: str | None, config: PipelineConfig
) -> tuple[Hierarchy, dict]:
    """The perspective's hierarchy and its manifest record: the chosen
    ``path``, and every candidate's ``scores`` when there is a choice."""
    candidates = [_load_hierarchy(path, attribute, config.wildcard) for path in paths]
    if len(candidates) == 1:
        return candidates[0], {"path": paths[0]}
    winner, profiles = select(log, candidates, config.level_weights, config.utility_notion)
    return winner, {"path": paths[candidates.index(winner)], "scores": [
        {"path": path, "total": profile.total} for path, profile in zip(paths, profiles)
    ]}


def run_pipeline(
    config: PipelineConfig,
    input_path: str,
    output_path: str | None = None,
    report_path: str | None = None,
    k: int | None = None,
) -> RunManifest:
    """Run preprocess, vectorize, select, search, measure, and write.

    ``k`` overrides the configured threshold, checked as the config's
    own; ``config_sha256`` digests the settings as given.  The anonymized
    log goes to ``output_path`` (CSV) and the manifest additionally to
    ``report_path`` (JSON) when given.  A missing directory of either
    raises :class:`IoFailure` right after the read; the report is opened
    first, so one that cannot be written stops the run before the log
    file is made.  Should the log or the report's write fail after that,
    a report that is a regular file is removed; a device is left alone.
    """
    config_sha256 = _sha256_config(config)
    if k is not None:
        config = replace(config, k=k)
    timings: dict[str, float] = {}

    started = time.perf_counter()
    log = _read_log(input_path, config.csv, config.wildcard)
    if output_path is not None:  # fail before the work, not at the write
        _written_attributes(log, output_path, config.csv)
    for path in (output_path, report_path):
        if path is not None and not Path(path).parent.is_dir():
            raise IoFailure(f"cannot write {path}: {str(Path(path).parent)!r} is not a directory")
    _check_attributes(log, config.quasi_identifiers)
    traces_read = len(log.traces)
    if config.drop_singletons:
        log = drop_singleton_variants(log)
    traces_kept = len(log.traces)
    if traces_kept < config.k:
        raise InsufficientTraces(
            f"{traces_kept} traces remain after preprocessing, need at least {config.k}"
        )
    variants_input = len(variants(log))
    timings["read_preprocess"] = time.perf_counter() - started

    started = time.perf_counter()
    vectorized = STRATEGIES[config.vectorization](log)
    del log  # its last reader was the vectorization
    timings["vectorize"] = time.perf_counter() - started

    started = time.perf_counter()
    activity_hierarchy, activity_record = _pick_hierarchy(
        vectorized, config.activity_hierarchies, None, config
    )
    attribute_hierarchies, attribute_records = {}, {}
    for attr in config.quasi_identifiers:
        attribute_hierarchies[attr], attribute_records[attr] = _pick_hierarchy(
            vectorized, config.attribute_hierarchies[attr], attr, config
        )
    chosen = {"activity": activity_record, "attributes": attribute_records}
    timings["select_hierarchies"] = time.perf_counter() - started

    started = time.perf_counter()
    result = search(
        vectorized, activity_hierarchy, attribute_hierarchies,
        config.quasi_identifiers, config.k,
    )
    timings["search"] = time.perf_counter() - started

    started = time.perf_counter()
    precision = {
        attr: round(
            handover_precision(
                vectorized, result.anonymized, attr, attribute_hierarchies[attr]
            ),
            9,
        )
        for attr in config.quasi_identifiers
    }
    variants_output = remaining_variants(result.anonymized)
    timings["metrics"] = time.perf_counter() - started

    # Hash the input before writing, in case the output overwrites it.
    input_sha256 = _sha256_file(input_path)
    # Open the report before the log is written: a report that cannot be
    # written stops the run before it makes the log file.  A path that is
    # not valid UTF-8 reaches the manifest as surrogates, written as their
    # JSON escapes.
    report = None
    if report_path is not None:
        with file_faults(report_path, "write"):
            report = open(report_path, "w", encoding="utf-8", errors="backslashreplace")
            regular = stat.S_ISREG(os.fstat(report.fileno()).st_mode)
    try:  # one failure path for the log, the manifest and the report
        if output_path is not None:
            started = time.perf_counter()
            write_log_csv(
                result.anonymized, output_path, config.csv, wildcard=config.wildcard
            )
            timings["write"] = time.perf_counter() - started

        histogram = Counter(result.class_sizes)
        manifest = RunManifest(
            tool_version=f"pmdg {__version__}",
            input_path=str(input_path),
            input_sha256=input_sha256,
            config_sha256=config_sha256,
            k=config.k,
            vectorization=config.vectorization,
            utility_notion=config.utility_notion,
            quasi_identifiers=tuple(config.quasi_identifiers),
            drop_singletons=config.drop_singletons,
            traces_read=traces_read,
            traces_kept=traces_kept,
            aligned_length=len(vectorized.traces[0]),
            chosen_hierarchies=chosen,
            levels=result.chosen.as_dict(),
            nodes_evaluated=result.nodes_evaluated,
            variants_input=variants_input,
            variants_output=variants_output,
            min_class_size=min(result.class_sizes),
            class_size_histogram=[
                [size, count] for size, count in sorted(histogram.items())
            ],
            handover_precision=precision,
            timings_s=timings,
        )
        if report is not None:
            with file_faults(report_path, "write"), report:
                report.write(manifest.to_json() + "\n")
                report.truncate()  # in case the log went to the same path
    except BaseException:
        if report is not None:  # leave no empty or partial report behind
            report.close()
            if regular:  # never a device such as ``/dev/null``
                Path(report_path).unlink()
        raise
    return manifest


def _csv_spec_from_args(args: argparse.Namespace) -> LogCsvSpec:
    columns = None
    if getattr(args, "columns", None):
        columns = tuple(c.strip() for c in args.columns.split(",") if c.strip())
    return LogCsvSpec(
        case_column=args.case_column,
        activity_column=args.activity_column,
        attribute_columns=columns,
        delimiter=args.delimiter,
    )


def _log_command(commands, name: str, about: str, **input_options) -> argparse.ArgumentParser:
    """A subcommand that reads a log: ``--in`` plus the CSV layout options."""
    parser = commands.add_parser(name, help=about)
    parser.add_argument("--in", dest="input", required=True, **input_options)
    parser.add_argument("--case-column", default="case")
    parser.add_argument("--activity-column", default="activity")
    parser.add_argument(
        "--columns", default=None,
        help="comma-separated attribute columns (default: all other columns)",
    )
    parser.add_argument("--delimiter", default=",")
    parser.add_argument(
        "--wildcard-literal", default=WILDCARD,
        help=f"literal standing for the wildcard in files (default: {WILDCARD})",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmdg",
        description="k-anonymize multi-perspective event logs by generalization",
    )
    parser.add_argument("--version", action="version", version=f"pmdg {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = _log_command(commands, "preprocess", "drop single-occurrence variants")
    p.add_argument("--out", dest="output", required=True)

    p = _log_command(commands, "vectorize", "pad traces to a uniform length")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="msa")

    p = _log_command(commands, "select-hierarchy", "score candidate hierarchies against a log")
    p.add_argument(
        "--perspective", required=True, type=_nfc,
        help='attribute name, or "activity" for the control-flow perspective',
    )
    p.add_argument(
        "--candidates", required=True, help="comma-separated hierarchy CSV paths"
    )
    p.add_argument("--notion", choices=UTILITY_NOTIONS, default="class_count")
    p.add_argument("--weights", default="1",
                   help="comma-separated per-level weights (default: 1)")

    p = commands.add_parser("anonymize", help="run the full pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--k", type=int, default=None, help="override the configured k")
    p.add_argument("--report", default=None, help="write the run manifest JSON here")

    p = _log_command(commands, "validate", "check k-anonymity of a log")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--attr", action="append", default=[], type=_nfc,
        help="quasi-identifier attribute (repeatable or comma-separated)",
    )

    metrics = commands.add_parser("metrics", help="utility metrics")
    sub = metrics.add_subparsers(dest="metric", required=True)

    _log_command(sub, "variants", "count remaining control-flow variants")

    p = _log_command(sub, "handover-graph", "export the handover-of-work graph")
    p.add_argument("--attr", required=True, type=_nfc)
    p.add_argument("--dot", default=None, help="write DOT to this path")

    p = _log_command(
        sub, "handover-precision", "how precise handovers remain after generalization",
        help="the original (pre-anonymization) log",
    )
    p.add_argument("--anonymized", required=True)
    p.add_argument("--attr", required=True, type=_nfc)
    p.add_argument("--hierarchy", required=True)
    p.add_argument(
        "--strategy", choices=STRATEGIES, default="msa",
        help="vectorization strategy the anonymized log was built with",
    )

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "anonymize":
        config = load_config(args.config)
        manifest = run_pipeline(
            config, args.input, output_path=args.output,
            report_path=args.report, k=args.k,
        )
        print(f"levels: {json.dumps(manifest.levels, sort_keys=True)}")
        print(f"classes: min size {manifest.min_class_size}, "
              f"variants {manifest.variants_input} -> {manifest.variants_output}")
        print(f"wrote {args.output}")
        return 0

    spec = _csv_spec_from_args(args)
    wildcard = args.wildcard_literal
    check_wildcard(wildcard, "--wildcard-literal")

    if args.command == "preprocess":
        log = _read_log(args.input, spec, wildcard)
        kept = drop_singleton_variants(log)
        write_log_csv(kept, args.output, spec, wildcard=wildcard)
        print(f"kept {len(kept.traces)} of {len(log.traces)} traces")
        return 0

    if args.command == "vectorize":
        log = _read_log(args.input, spec, wildcard)
        vectorized = STRATEGIES[args.strategy](log)
        write_log_csv(vectorized, args.output, spec, wildcard=wildcard)
        print(f"aligned {len(vectorized.traces)} traces to length "
              f"{len(vectorized.traces[0])}")
        return 0

    if args.command == "select-hierarchy":
        paths = [c.strip() for c in args.candidates.split(",") if c.strip()]
        if not paths:
            raise ConfigError("--candidates names no hierarchy file")
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError:
            raise ConfigError(
                f"--weights must be comma-separated numbers, got {args.weights!r}"
            ) from None
        weights = _check_weights(weights, "--weights", ConfigError)
        log = _read_log(args.input, spec, wildcard)
        attribute = None if args.perspective == "activity" else args.perspective
        candidates = [_load_hierarchy(path, attribute, wildcard) for path in paths]
        winner, profiles = select(log, candidates, weights, args.notion)
        for path, profile in zip(paths, profiles):
            levels = ", ".join(f"{u:g}" for u in profile.per_level)
            print(f"{path}: levels [{levels}] total {profile.total:g}")
        print(f"selected: {paths[candidates.index(winner)]}")
        return 0

    if args.command == "validate":
        _check_k(args.k, ConfigError)
        log = _read_log(args.input, spec, wildcard)
        selected = [a.strip() for chunk in args.attr for a in chunk.split(",") if a.strip()]
        report = validate_k(log, selected, args.k)
        if report.ok:
            print(f"OK: every class has at least {args.k} members "
                  f"(smallest: {min(report.class_sizes)})")
            return 0
        print(f"FAIL: {len(report.violations)} of {len(report.class_sizes)} classes "
              f"below k={args.k}")
        for signature, size in report.violations:
            print(f"  size {size}: {signature}")
        return 1

    if args.command == "metrics":
        log = _read_log(args.input, spec, wildcard)
        if args.metric == "variants":
            print(remaining_variants(log))
            return 0
        if args.metric == "handover-graph":
            graph = handover_graph(log, args.attr)
            if args.dot:
                export_dot(graph, args.dot)
                print(f"wrote {args.dot}")
            else:
                for (source, target), count in sorted(graph.edges.items()):
                    print(f"{source} -> {target}: {count}")
            return 0
        if args.metric == "handover-precision":
            anonymized = _read_log(args.anonymized, spec, wildcard)
            _check_attributes(log, (args.attr,), "original log")
            _check_attributes(anonymized, (args.attr,), "anonymized log")
            hierarchy = _load_hierarchy(args.hierarchy, args.attr, wildcard)
            # A re-read file turns fully masked events into padding, so
            # match by position against a fresh (deterministic)
            # vectorization of the log ``anonymize`` vectorized: the cases
            # it kept, if the anonymized log holds just those.
            kept = drop_singleton_variants(log)
            if {t.case_id for t in anonymized.traces} == {t.case_id for t in kept.traces}:
                log = kept
            vectorized = STRATEGIES[args.strategy](log)
            value = handover_precision(vectorized, anonymized, args.attr, hierarchy)
            print(f"{value:.1f}")
            return 0

    raise AssertionError(f"unhandled command {args.command!r}")


# Each failure's stderr prefix and exit code; the first matching class wins.
_FAILURES = (
    (ConfigError, "configuration error: ", 2),
    (ParseError, "parse error: ", 3),
    (DataError, "data error: ", 3),
    (InsufficientTraces, "", 4),
    (IoFailure, "i/o error: ", 5),
    (OSError, "i/o error: ", 5),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # For this call, the package's warnings are ``pmdg: warning: `` lines on
    # the current stderr, ahead of any error line.
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setFormatter(logging.Formatter("pmdg: warning: %(message)s"))
    logger = logging.getLogger("pmdg")
    logger.addHandler(warnings)
    try:
        return _dispatch(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        prefix, code = next((p, c) for kind, p, c in _FAILURES if isinstance(exc, kind))
        message = re.sub(r"\s*[\r\n]\s*", "; ", str(exc))
        print(f"pmdg: {prefix}{message}", file=sys.stderr)
        return code
    finally:
        logger.removeHandler(warnings)


if __name__ == "__main__":
    sys.exit(main())
