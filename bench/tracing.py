"""The traced run: the ``anonymize`` pipeline with spans at layer boundaries.

``traced_run`` calls each module's public functions in the order
``pmdg.cli.run_pipeline`` uses and records a span around every call.
Spans are kept in memory and written out when the run ends.  A layer's
time is the self time of its spans: duration minus the part covered by
child spans.

Three internal steps of ``search`` cannot be seen from outside the
package, so after the pipeline span the run repeats them on their own:
phase 1 (``search_control_flow``), materializing the chosen node
(``apply_to_log``) and the k re-check (``validate_k``).  The node walk
is then derived as search minus those three.

``count_run`` is a separate pass that counts work (``generalize`` calls,
distinct rows, alignment cells, handover pairs).  It wraps hierarchy
instances, so it runs apart from the timed spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from pmdg import (
    Hierarchy,
    apply_to_log,
    control_flow,
    drop_singleton_variants,
    handover_precision,
    load_config,
    read_hierarchy,
    read_log_csv,
    read_log_xes,
    remaining_variants,
    search,
    search_control_flow,
    select,
    validate_k,
    variants,
    vectorize_msa,
    vectorize_naive,
    write_log_csv,
)


class Tracer:
    """In-memory spans: name, start, end, parent span id and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> dict[str, float]:
        """Total duration per span name."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
        return totals

    def self_times(self) -> dict[str, float]:
        """Duration minus the time covered by child spans, per span name."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: str | Path) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s, sort_keys=True) + "\n")


def _read_log(path: str, config):
    if path.lower().endswith(".xes"):
        return read_log_xes(path, wildcard=config.wildcard)
    return read_log_csv(path, config.csv, wildcard=config.wildcard)


def _perspectives(config) -> list[tuple[str | None, tuple[str, ...]]]:
    return [(None, config.activity_hierarchies)] + [
        (attr, config.attribute_hierarchies[attr]) for attr in config.quasi_identifiers
    ]


def _load(paths, attribute, config) -> list[Hierarchy]:
    return [
        Hierarchy(read_hierarchy(path, wildcard=config.wildcard), attribute=attribute)
        for path in paths
    ]


def traced_run(tracer: Tracer, config_path: str, log_path: str, out_path: str,
               report_path: str) -> dict:
    """One traced ``anonymize``; returns what ``count_run`` needs."""
    with tracer.span("cli.pipeline"):
        with tracer.span("logio.config"):
            config = load_config(config_path)
        k = config.k
        with tracer.span("logio.read"):
            log = _read_log(log_path, config)
        raw_log = log
        with tracer.span("model.preprocess"):
            if config.drop_singletons:
                log = drop_singleton_variants(log)
        with tracer.span("vectorize"):
            if config.vectorization == "msa":
                vectorized = vectorize_msa(log)
            else:
                vectorized = vectorize_naive(log)
        chosen: dict[str | None, Hierarchy] = {}
        chosen_paths: dict[str | None, str] = {}
        with tracer.span("selection"):
            for attribute, paths in _perspectives(config):
                with tracer.span("logio.hierarchy_load"):
                    candidates = _load(paths, attribute, config)
                winner = candidates[0]
                if len(candidates) > 1:
                    winner, _ = select(vectorized, candidates, config.level_weights,
                                       config.utility_notion)
                chosen[attribute] = winner
                chosen_paths[attribute] = paths[candidates.index(winner)]
        activity_hierarchy = chosen.pop(None)
        with tracer.span("anonymize.search"):
            result = search(vectorized, activity_hierarchy, chosen,
                            config.quasi_identifiers, k)
        with tracer.span("metrics.handover"):
            precision = {
                attr: handover_precision(log, result.anonymized, attr, chosen[attr])
                for attr in config.quasi_identifiers
            }
        with tracer.span("metrics.variants"):
            variants_in = len(variants(log))
            variants_out = remaining_variants(result.anonymized)
        input_sha256 = hashlib.sha256(Path(log_path).read_bytes()).hexdigest()
        manifest = {
            "input_sha256": input_sha256,
            "levels": result.chosen.as_dict(),
            "nodes_evaluated": result.nodes_evaluated,
            "min_class_size": min(result.class_sizes),
            "variants_input": variants_in,
            "variants_output": variants_out,
            "handover_precision": precision,
        }
        with tracer.span("logio.write"):
            write_log_csv(result.anonymized, out_path, config.csv, wildcard=config.wildcard)
            Path(report_path).write_text(json.dumps(manifest, sort_keys=True) + "\n",
                                         encoding="utf-8")

    selected = sorted(config.quasi_identifiers)
    with tracer.span("anonymize.control_flow"):
        search_control_flow(vectorized, activity_hierarchy, k)
    with tracer.span("hierarchy.materialize"):
        anonymized = apply_to_log(vectorized, result.chosen, activity_hierarchy, chosen)
    with tracer.span("model.recheck"):
        report = validate_k(anonymized, selected, k)
    return {
        "config": config,
        "log": log,
        "vectorized": vectorized,
        "result": result,
        "chosen_paths": chosen_paths,
        "raw_log": raw_log,
        "classes": len(report.class_sizes),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer seconds (self times) of one traced run."""
    own = tracer.self_times()
    total = tracer.durations()
    metrics = {
        "logio.config_s": own["logio.config"],
        "logio.hierarchy_load_s": own["logio.hierarchy_load"],
        "logio.read_s": own["logio.read"],
        "logio.write_s": own["logio.write"],
        "model.preprocess_s": own["model.preprocess"],
        "model.recheck_s": own["model.recheck"],
        "vectorize.s": own["vectorize"],
        "selection.s": own["selection"],
        "hierarchy.materialize_s": own["hierarchy.materialize"],
        "anonymize.search_s": own["anonymize.search"],
        "anonymize.control_flow_s": own["anonymize.control_flow"],
        "metrics.handover_s": own["metrics.handover"],
        "metrics.variants_s": own["metrics.variants"],
        "cli.pipeline_s": total["cli.pipeline"],
    }
    # Derived, not measured: the node walk inside search.
    metrics["anonymize.lattice_s"] = (
        metrics["anonymize.search_s"] - metrics["anonymize.control_flow_s"]
        - metrics["hierarchy.materialize_s"] - metrics["model.recheck_s"]
    )
    return metrics


def _count_generalize(hierarchies, tally: list[int]) -> None:
    for hierarchy in hierarchies:
        inner = hierarchy.generalize

        def generalize(value, level, _inner=inner):
            tally[0] += 1
            return _inner(value, level)

        hierarchy.generalize = generalize


def count_run(state: dict, log_path: str, out_path: str) -> dict:
    """Work counts of the traced run, from the data and wrapped hierarchies."""
    config, log, vectorized = state["config"], state["log"], state["vectorized"]
    result = state["result"]
    qis = tuple(config.quasi_identifiers)

    selection_calls = [0]
    candidates = levels_scored = 0
    for attribute, paths in _perspectives(config):
        candidates += len(paths)
        if len(paths) > 1:
            loaded = _load(paths, attribute, config)
            _count_generalize(loaded, selection_calls)
            select(vectorized, loaded, config.level_weights, config.utility_notion)
            levels_scored += sum(h.depth for h in loaded)

    search_calls = [0]
    paths = state["chosen_paths"]
    activity_hierarchy = _load([paths[None]], None, config)[0]
    attribute_hierarchies = {a: _load([paths[a]], a, config)[0] for a in qis}
    _count_generalize([activity_hierarchy, *attribute_hierarchies.values()], search_calls)
    search(vectorized, activity_hierarchy, attribute_hierarchies, qis, config.k)

    flows = Counter(control_flow(trace) for trace in log.traces)
    lengths = [len(flow) for flow in flows]
    pairs = cells = 0
    if config.vectorization == "msa" and len(lengths) > 1:
        pairs = len(lengths) * (len(lengths) - 1) // 2
        cells = (sum(lengths) ** 2 - sum(n * n for n in lengths)) // 2
    width = len(vectorized.traces[0])
    padding = sum(1 for t in vectorized.traces for e in t.events if e.is_wildcard)
    rows = Counter(
        (control_flow(t), *(tuple(e.attributes[a] for e in t.events) for a in sorted(qis)))
        for t in vectorized.traces
    )
    # One handover per pair of consecutive real events, per QI.
    handovers = sum(
        max(0, sum(1 for e in t.events if not e.is_wildcard) - 1) for t in log.traces
    ) * len(qis)
    return {
        "logio.read_events": sum(len(t.events) for t in state["raw_log"].traces),
        "logio.read_bytes": os.path.getsize(log_path),
        "logio.write_bytes": os.path.getsize(out_path),
        "model.traces_dropped": len(state["raw_log"].traces) - len(log.traces),
        "model.classes": state["classes"],
        "vectorize.variants": len(flows),
        "vectorize.center_pairs": pairs,
        "vectorize.center_cells": cells,
        "vectorize.width": width,
        "vectorize.pad_frac": padding / (len(vectorized.traces) * width),
        "selection.candidates": candidates,
        "selection.levels_scored": levels_scored,
        "selection.generalize_calls": selection_calls[0],
        "hierarchy.generalize_calls": search_calls[0],
        "anonymize.nodes_evaluated": result.nodes_evaluated,
        "anonymize.rows": len(vectorized.traces),
        "anonymize.distinct_rows": len(rows),
        "anonymize.dup_ratio": len(vectorized.traces) / len(rows),
        "metrics.handover_pairs": handovers,
    }
