"""End-to-end property test: generated instances written to files and run
through ``run_pipeline`` give a k-anonymous output of minimal cost."""

import csv
import random

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmdg import (
    InsufficientTraces,
    drop_singleton_variants,
    read_log_csv,
    validate_k,
    write_log_csv,
)
from pmdg.cli import run_pipeline
from pmdg.logio import load_config
from pmdg.vectorize import STRATEGIES

from helpers import oracle_minimal_cost, random_hierarchy, random_instance


def _write_hierarchy(hierarchy, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(hierarchy.table.rows)


def _candidates(rng, hierarchy, prefix, count):
    """The instance's hierarchy, then ``count - 1`` others over its leaves."""
    return [hierarchy] + [
        random_hierarchy(
            rng, n_leaves=len(hierarchy.leaves), depth=rng.randint(1, 3),
            attribute=hierarchy.attribute, prefix=prefix,
        )
        for _ in range(count - 1)
    ]


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    vectorization=st.sampled_from(sorted(STRATEGIES)),
    drop_singletons=st.booleans(),
    data=st.data(),
)
def test_pipeline_output_is_k_anonymous_at_minimal_cost(
    tmp_path, seed, k, vectorization, drop_singletons, data
):
    rng = random.Random(seed)
    log, activity, attributes = random_instance(rng, attrs=rng.randint(1, 3))
    kept = drop_singleton_variants(log) if drop_singletons else log
    k = min(k, max(1, len(kept.traces)))
    qis = data.draw(st.lists(st.sampled_from(sorted(attributes)), unique=True))

    candidates = {None: _candidates(rng, activity, "a", rng.randint(1, 2))}
    for attr in qis:
        candidates[attr] = _candidates(
            rng, attributes[attr], f"{attr}x", rng.randint(1, 2)
        )
    by_path = {}
    paths = {}
    for perspective, hierarchies in candidates.items():
        paths[perspective] = []
        for i, hierarchy in enumerate(hierarchies):
            path = str(tmp_path / f"{perspective or 'activity'}_{i}.csv")
            _write_hierarchy(hierarchy, path)
            by_path[path] = hierarchy
            paths[perspective].append(path)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump({
            "k": k,
            "quasi_identifiers": qis,
            "activity_hierarchies": paths[None],
            "attribute_hierarchies": {attr: paths[attr] for attr in qis},
            "vectorization": vectorization,
            "drop_singletons": drop_singletons,
        }),
        encoding="utf-8",
    )
    log_path, out_path = tmp_path / "log.csv", tmp_path / "out.csv"
    write_log_csv(log, log_path)

    if not kept.traces:  # every variant was a singleton
        with pytest.raises(InsufficientTraces):
            run_pipeline(load_config(config_path), str(log_path), str(out_path))
        return
    manifest = run_pipeline(load_config(config_path), str(log_path), str(out_path))

    assert validate_k(read_log_csv(out_path), qis, k).ok
    chosen = manifest.chosen_hierarchies
    vectorized = STRATEGIES[vectorization](
        drop_singleton_variants(read_log_csv(log_path))
        if drop_singletons else read_log_csv(log_path)
    )
    cost, _ = oracle_minimal_cost(
        vectorized,
        manifest.levels["activity"],
        by_path[chosen["activity"]["path"]],
        {attr: by_path[chosen["attributes"][attr]["path"]] for attr in qis},
        qis,
        k,
    )
    assert manifest.levels["activity"] + sum(manifest.levels["attributes"].values()) == cost
