"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (straight to the
terminal, bypassing capture) and enforces the criterion's time budget.
The random suites are seeded, so failures reproduce exactly.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from pmdg import (
    WILDCARD,
    Event,
    EventLog,
    HandoverPair,
    Hierarchy,
    LevelVector,
    Trace,
    handover_precision,
    handover_preservation,
    remaining_variants,
    satisfies,
    search,
    search_control_flow,
    validate_k,
    vectorize_msa,
    vectorize_naive,
    write_log_csv,
)

from helpers import (
    clinic_hierarchies,
    clinic_log,
    country_hierarchy,
    oracle_minimal_cost,
    random_instance,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(number, description, budget_s):
        started = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - started
            assert elapsed < budget_s, (
                f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
            )
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] criterion {number}: {description}")
            raise
        with capsys.disabled():
            print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")

    return run


def test_criterion_1_output_is_k_anonymous(criterion):
    with criterion(1, "pipeline output is k-anonymous on 500 random logs", 60.0):
        rng = random.Random(101)
        for i in range(500):
            log, activity, attr_hs = random_instance(
                rng,
                attrs=rng.randint(1, 3),
                depth=4,
                n_variants=(2, 8),
                length=(1, 8),
                multiplicity=(1, 6),
            )
            vectorize = vectorize_msa if i % 2 == 0 else vectorize_naive
            vectorized = vectorize(log)
            selected = list(attr_hs)
            for k in (2, 5, 10):
                if k > len(log.traces):
                    continue
                result = search(vectorized, activity, attr_hs, selected, k)
                assert validate_k(result.anonymized, selected, k).ok
                assert min(result.class_sizes) >= k


def test_criterion_2_search_cost_is_minimal(criterion):
    with criterion(2, "search cost matches the brute-force minimum", 120.0):
        rng = random.Random(202)
        for _ in range(200):
            log, activity, attr_hs = random_instance(
                rng,
                attrs=rng.randint(1, 3),
                depth=3,
                n_variants=(2, 4),
                length=(1, 5),
                multiplicity=(1, 3),
            )
            k = min(2, len(log.traces))
            vectorized = vectorize_msa(log)
            selected = sorted(attr_hs)
            result = search(vectorized, activity, attr_hs, selected, k)
            frozen = result.chosen.activity_level
            assert frozen == search_control_flow(vectorized, activity, k)
            best = oracle_minimal_cost(
                vectorized, frozen, activity, attr_hs, selected, k
            )
            assert best is not None
            assert result.chosen.cost == best[0]


def test_criterion_3_vectorization_round_trip(criterion):
    with criterion(3, "padding projects back onto the original traces", 30.0):
        rng = random.Random(303)
        for _ in range(500):
            log, _, _ = random_instance(rng, attrs=rng.randint(0, 2))
            for vectorize in (vectorize_naive, vectorize_msa):
                vectorized = vectorize(log)
                lengths = {len(trace) for trace in vectorized.traces}
                assert len(lengths) == 1
                for original, padded in zip(log.traces, vectorized.traces):
                    assert padded.case_id == original.case_id
                    real = [e for e in padded.events if not e.is_wildcard]
                    assert [e.origin_index for e in real] == list(range(len(real)))
                    assert [
                        (e.activity, dict(e.attributes)) for e in real
                    ] == [
                        (e.activity, dict(e.attributes)) for e in original.events
                    ]


def test_criterion_4_clinic_walkthrough(criterion):
    with criterion(4, "two-case clinic log generalizes as worked out by hand", 1.0):
        activity, role, _ = clinic_hierarchies()
        vectorized = vectorize_msa(clinic_log())
        result = search(vectorized, activity, {"role": role}, ["role"], k=2)

        assert result.chosen == LevelVector(1, {"role": 1})
        assert result.class_sizes == (2,)
        expected = (
            ("Register", "Admin"),
            (WILDCARD, WILDCARD),
            ("Consultation", "Medical Staff"),
            ("Radiology Scan", "Medical Staff"),
        )
        for trace in result.anonymized.traces:
            rows = tuple(
                (e.activity, e.attributes["role"]) for e in trace.events
            )
            assert rows == expected
        case_08 = result.anonymized.traces[1]
        assert case_08.case_id == "08"
        assert case_08.events[1].is_wildcard  # the inserted padding event


def _suffix_family_log():
    """85 traces over 20 variants: variant i is P01..P0i plus the shared
    five-activity suffix.  The fifteen short variants occur five times
    each, the five longest only twice."""
    suffix = [f"S{j}" for j in range(1, 6)]
    traces = []
    for i in range(1, 21):
        flow = [f"P{j:02d}" for j in range(1, i + 1)] + suffix
        for copy in range(5 if i <= 15 else 2):
            events = tuple(Event(a, {}) for a in flow)
            traces.append(Trace(f"c{i:02d}_{copy}", events))
    return EventLog(schema=(), traces=tuple(traces))


def _suffix_family_hierarchy():
    """Collapses the rare long prefixes first: level 1 masks P17..P20,
    level 2 masks P12 and up, level 3 masks P07 and up, level 4 all
    prefix activities; the suffix survives until the root."""
    rows = []
    for j in range(1, 21):
        name = f"P{j:02d}"
        rows.append(
            (
                name,
                name if j < 17 else WILDCARD,
                name if j < 12 else WILDCARD,
                name if j < 7 else WILDCARD,
                WILDCARD,
                WILDCARD,
            )
        )
    for j in range(1, 6):
        name = f"S{j}"
        rows.append((name, name, name, name, name, WILDCARD))
    return Hierarchy.from_rows(rows)


def test_criterion_5_msa_beats_naive_on_shared_suffixes(criterion):
    with criterion(5, "aligned padding keeps more variants than tail padding", 10.0):
        log = _suffix_family_log()
        hierarchy = _suffix_family_hierarchy()
        counts = {}
        for name, vectorize in (("msa", vectorize_msa), ("naive", vectorize_naive)):
            result = search(vectorize(log), hierarchy, {}, [], k=5)
            counts[name] = remaining_variants(result.anonymized)
        assert counts["msa"] > counts["naive"]
        # The aligned suffix lets the five rare variants merge at level 1;
        # tail padding shifts the suffix around and loses everything.
        assert counts["msa"] == 16
        assert counts["naive"] == 1


def test_criterion_6_higher_k_never_adds_variants(criterion):
    with criterion(6, "remaining variants fall monotonically in k", 30.0):
        rng = random.Random(606)
        for _ in range(20):
            log, activity, attr_hs = random_instance(
                rng,
                attrs=rng.randint(1, 2),
                n_variants=(5, 8),
                multiplicity=(3, 6),
            )
            assert len(log.traces) >= 15
            vectorized = vectorize_msa(log)
            selected = list(attr_hs)
            previous = None
            for k in (2, 5, 10, 15):
                result = search(vectorized, activity, attr_hs, selected, k)
                count = remaining_variants(result.anonymized)
                if previous is not None:
                    assert count <= previous
                previous = count


def test_criterion_7_handover_arithmetic(criterion):
    with criterion(7, "handover preservation and precision arithmetic", 1.0):
        h = country_hierarchy()
        n = h.alpha(WILDCARD)
        assert n == 195

        untouched = HandoverPair(("Germany", "China"), ("Germany", "China"))
        assert abs(handover_preservation(untouched, h) - 1.0) < 1e-9

        half = HandoverPair(("Germany", "China"), ("Europe", "China"))
        expected = ((1 - 44 / n + 1 / n) + 1.0) / 2
        assert abs(handover_preservation(half, h) - expected) < 1e-9

        masked = HandoverPair(("Germany", "China"), (WILDCARD, WILDCARD))
        assert abs(handover_preservation(masked, h) - 1 / n) < 1e-9

        _, role, _ = clinic_hierarchies()
        vectorized = vectorize_msa(clinic_log())
        assert handover_precision(vectorized, vectorized, "role", role) == 100.0


def test_criterion_8_generalizing_further_stays_anonymous(criterion):
    with criterion(8, "satisfying nodes stay satisfying further up", 30.0):
        rng = random.Random(808)
        checked = 0
        for _ in range(100):
            log, activity, attr_hs = random_instance(rng, attrs=rng.randint(1, 3))
            vectorized = vectorize_msa(log)
            k = rng.randint(2, min(3, len(log.traces)))
            base = LevelVector(
                rng.randint(0, activity.depth),
                {a: rng.randint(0, h.depth) for a, h in attr_hs.items()},
            )
            if not satisfies(vectorized, base, activity, attr_hs, k):
                continue
            checked += 1
            for _ in range(5):
                above = LevelVector(
                    rng.randint(base.activity_level, activity.depth),
                    {
                        a: rng.randint(base.attribute_levels[a], h.depth)
                        for a, h in attr_hs.items()
                    },
                )
                assert satisfies(vectorized, above, activity, attr_hs, k)
        assert checked >= 20  # the implication must not hold vacuously


BPIC_ACTIVITIES = {
    "Accepted/In Progress": "Accepted",
    "Accepted/Wait": "Accepted",
    "Accepted/Assigned": "Accepted",
    "Queued/Awaiting Assignment": "Queued",
    "Completed/Resolved": "Completed",
    "Completed/Closed": "Completed",
    "Completed/Cancelled": "Completed",
    "Unmatched/Unmatched": "Unmatched",
}


def _write_incident_fixture(directory):
    """A small incident-management log in the shape of a help-desk
    system: status/sub-status activities, support group and impact as
    attributes, heavy-tailed variant frequencies."""
    rng = random.Random(20130814)
    groups = [f"G{i}" for i in range(1, 9)]
    impacts = ["Low", "Medium", "High", "Major"]
    activities = list(BPIC_ACTIVITIES)

    traces = []
    for variant in range(12):
        length = rng.randint(2, 6)
        flow = [rng.choice(activities) for _ in range(length)]
        for _ in range(rng.randint(2, 8)):
            events = tuple(
                Event(a, {"group": rng.choice(groups), "impact": rng.choice(impacts)})
                for a in flow
            )
            traces.append(Trace(f"inc{len(traces):04d}", events))
    log = EventLog(schema=("group", "impact"), traces=tuple(traces))
    write_log_csv(log, directory / "incidents.csv")

    act_rows = [
        f"{leaf},{status},{WILDCARD}" for leaf, status in BPIC_ACTIVITIES.items()
    ]
    (directory / "act.csv").write_text("\n".join(act_rows) + "\n", encoding="utf-8")
    group_rows = [
        f"{g},{'Line A' if int(g[1]) <= 4 else 'Line B'},{WILDCARD}" for g in groups
    ]
    (directory / "group.csv").write_text("\n".join(group_rows) + "\n", encoding="utf-8")
    impact_rows = [
        f"{v},{'Minor' if v in ('Low', 'Medium') else 'Severe'},{WILDCARD}"
        for v in impacts
    ]
    (directory / "impact.csv").write_text("\n".join(impact_rows) + "\n", encoding="utf-8")

    (directory / "config.yaml").write_text(
        "k: 5\n"
        "quasi_identifiers: [group, impact]\n"
        f"activity_hierarchies: [{directory / 'act.csv'}]\n"
        "attribute_hierarchies:\n"
        f"  group: [{directory / 'group.csv'}]\n"
        f"  impact: [{directory / 'impact.csv'}]\n"
        "vectorization: msa\n",
        encoding="utf-8",
    )


def _run_once(directory, tag, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = directory / f"anon_{tag}.csv"
    report = directory / f"manifest_{tag}.json"
    dot = directory / f"handover_{tag}.dot"
    for command in (
        [
            "anonymize", "--config", str(directory / "config.yaml"),
            "--in", str(directory / "incidents.csv"),
            "--out", str(out), "--report", str(report),
        ],
        ["metrics", "handover-graph", "--in", str(out), "--attr", "group",
         "--dot", str(dot)],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "pmdg", *command],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )
        assert done.returncode == 0, done.stderr
    manifest = json.loads(report.read_text(encoding="utf-8"))
    del manifest["timings_s"]
    return out.read_bytes(), dot.read_bytes(), manifest


def test_criterion_9_runs_are_deterministic(criterion, tmp_path):
    with criterion(9, "independent runs are byte-identical", 5.0):
        _write_incident_fixture(tmp_path)
        csv_a, dot_a, manifest_a = _run_once(tmp_path, "a", 0)
        csv_b, dot_b, manifest_b = _run_once(tmp_path, "b", 424242)
        assert csv_a == csv_b
        assert dot_a == dot_b
        assert manifest_a == manifest_b
