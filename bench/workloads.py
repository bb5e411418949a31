"""Seeded input generator for the pmdg benchmark.

Each workload is a synthetic, process-like event log plus the hierarchy
CSVs and the YAML config that ``pmdg anonymize`` needs.  The seed picks
every byte; the shape (trace count, variant count and multiplicities,
hierarchy depths) is fixed per workload, so two seeds cost the program
about the same and the chosen lattice node is the same on every seed.

Every quasi-identifier follows one rule: below a fixed "threshold" level
of its chosen hierarchy its values vary between traces of one variant,
and from that level up they are a function of the activity.  The
minimum-cost k-anonymous node is therefore exactly the threshold vector,
whatever the seed, and the lattice walk has a fixed length.

Usage: python3 bench/workloads.py --workload NAME --seed N --out DIR
       python3 bench/workloads.py --record     # rewrite bench/inputs.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

import yaml

WILDCARD = "⋆"
# Shapes and input digests of every workload at seed 1 (see ``record``).
RECORD = Path(__file__).resolve().parent / "inputs.json"

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "msa-variants": "160 distinct variants make quadratic MSA center selection"
    " and profile alignment the largest layer",
    "bulk-dup": "6k traces over 40 variants with duplicated rows make search,"
    " apply_to_log, handover pairing and CSV I/O carry the run",
    "wide-xes": "an XES log with unique rows, naive padding, singleton dropping"
    " and 3 candidates per QI exercises read, selection and a long lattice walk",
}


@dataclass(frozen=True)
class Inputs:
    """Paths (relative to ``root``) and facts about one generated input set."""

    workload: str
    seed: int
    root: Path
    log: str
    config: str
    k: int
    quasi_identifiers: tuple[str, ...]
    events: int
    traces_kept: int
    digests: dict
    shape: dict


def _counts(total: int, n: int, floor: int, exponent: float) -> list[int]:
    """``n`` multiplicities summing to ``total``, each at least ``floor``,
    Zipf-shaped by rank.  Depends on no seed, so the shape is fixed."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    spare = total - floor * n
    raw = [spare * w / sum(weights) for w in weights]
    counts = [floor + int(x) for x in raw]
    by_remainder = sorted(range(n), key=lambda r: (int(raw[r]) - raw[r], r))
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def _edited(rng: random.Random, backbone: list[str], edits: int, alphabet) -> tuple:
    """The backbone with ``edits`` insertions and deletions, as many of each as
    can be (one more insertion when odd), so the length depends only on
    ``edits``."""
    moves = ["insert"] * ((edits + 1) // 2) + ["delete"] * (edits // 2)
    rng.shuffle(moves)
    sequence = list(backbone)
    for move in moves:
        if move == "delete":
            del sequence[rng.randrange(len(sequence))]
        else:
            sequence.insert(rng.randrange(len(sequence) + 1), rng.choice(alphabet))
    return tuple(sequence)


def _backbone_variants(rng, alphabet, length, n, max_edits) -> list[tuple]:
    """``n`` distinct variants: one backbone plus 1..max_edits edits, the
    i-th with ``1 + i % max_edits``."""
    backbone = rng.choices(alphabet, k=length)
    found: list[tuple] = []
    seen: set[tuple] = set()
    while len(found) < n:
        variant = _edited(rng, backbone, 1 + len(found) % max_edits, alphabet)
        if variant not in seen:
            seen.add(variant)
            found.append(variant)
    return found


def _activities(n: int) -> list[str]:
    return [f"a{i:02d}" for i in range(n)]


def _activity_rows(alphabet: list[str]) -> list[tuple]:
    return [(a, f"g{i // 5}", WILDCARD) for i, a in enumerate(alphabet)]


def _expand(rng, variants: list[tuple], counts: list[int]) -> list[tuple]:
    """One control flow per trace: variant i repeated counts[i] times, shuffled.
    Lengths and counts both follow the generation index, so the number of
    events does not depend on the seed."""
    flows = [flow for flow, count in zip(variants, counts) for _ in range(count)]
    rng.shuffle(flows)
    return flows


def _msa_variants(rng: random.Random, scale: float):
    k = 4
    n_variants = max(2, round(160 * scale))
    n_traces = max(k * n_variants, round(2400 * scale))
    alphabet = _activities(40)
    variants = _backbone_variants(rng, alphabet, 20, n_variants, 6)
    flows = _expand(rng, variants, _counts(n_traces, n_variants, k, 0.8))
    # role: 12 roles, 3 per department; the activity fixes the department,
    # and one event in ten takes another role of that department.
    roles = [f"r{i:02d}" for i in range(12)]
    traces = []
    for flow in flows:
        events = []
        for activity in flow:
            default = int(activity[1:]) % 12
            role = default
            if rng.random() < 0.1:
                role = 3 * (default // 3) + rng.randrange(3)
            events.append((activity, {"role": roles[role]}))
        traces.append(events)
    hierarchies = {
        "activity.csv": _activity_rows(alphabet),
        "role.csv": [(r, f"dept{i // 3}", WILDCARD) for i, r in enumerate(roles)],
    }
    config = {
        "k": k,
        "quasi_identifiers": ["role"],
        "activity_hierarchies": ["activity.csv"],
        "attribute_hierarchies": {"role": ["role.csv"]},
        "vectorization": "msa",
    }
    shape = {
        "format": "csv", "traces": n_traces, "variants": n_variants,
        "backbone_length": 20, "max_edits": 6, "k": k, "qis": {"role": 12},
        "vectorization": "msa", "expected_levels": {"activity": 0, "role": 1},
    }
    return traces, hierarchies, config, shape, len(traces)


# bulk-dup quasi-identifiers: name -> (leaves, leaves per group, activity stride).
_BULK_QIS = {"role": (12, 3, 1), "unit": (8, 2, 5), "shift": (6, 2, 7)}


def _bulk_dup(rng: random.Random, scale: float):
    k = 10
    n_variants = max(2, round(40 * scale))
    n_traces = max(k * n_variants, round(6000 * scale))
    alphabet = _activities(30)
    variants = _backbone_variants(rng, alphabet, 15, n_variants, 4)
    flows = _expand(rng, variants, _counts(n_traces, n_variants, k, 1.0))
    traces = []
    for flow in flows:
        columns = {}
        for name, (leaves, fan, stride) in _BULK_QIS.items():
            values = [(int(a[1:]) * stride) % leaves for a in flow]
            # One trace in five has one event with a sibling value.
            if rng.random() < 0.2:
                position = rng.randrange(len(values))
                group = values[position] // fan
                siblings = [v for v in range(group * fan, group * fan + fan)
                            if v != values[position]]
                values[position] = rng.choice(siblings)
            columns[name] = [f"{name}{v:02d}" for v in values]
        traces.append([
            (activity, {name: columns[name][j] for name in _BULK_QIS})
            for j, activity in enumerate(flow)
        ])
    hierarchies = {"activity.csv": _activity_rows(alphabet)}
    for name, (leaves, fan, _) in _BULK_QIS.items():
        hierarchies[f"{name}.csv"] = [
            (f"{name}{v:02d}", f"{name}-grp{v // fan}", WILDCARD) for v in range(leaves)
        ]
    qis = sorted(_BULK_QIS)
    config = {
        "k": k,
        "quasi_identifiers": qis,
        "activity_hierarchies": ["activity.csv"],
        "attribute_hierarchies": {q: [f"{q}.csv"] for q in qis},
        "vectorization": "msa",
    }
    shape = {
        "format": "csv", "traces": n_traces, "variants": n_variants,
        "backbone_length": 15, "max_edits": 4, "zipf_exponent": 1.0, "k": k,
        "qis": {q: _BULK_QIS[q][0] for q in qis}, "vectorization": "msa",
        "expected_levels": {"activity": 0, **{q: 1 for q in qis}},
    }
    return traces, hierarchies, config, shape, len(traces)


def _wide_xes(rng: random.Random, scale: float):
    k = 5
    n_variants = max(2, round(30 * scale))
    n_traces = max(k * n_variants, round(3600 * scale))
    n_singletons = max(1, round(36 * scale))
    alphabet = _activities(36)
    lengths = [18 + i % 5 for i in range(n_variants + n_singletons)]
    seen: set[tuple] = set()
    distinct: list[tuple] = []
    for length in lengths:
        flow = tuple(rng.choices(alphabet, k=length))
        while flow in seen:
            flow = tuple(rng.choices(alphabet, k=length))
        seen.add(flow)
        distinct.append(flow)
    variants, singletons = distinct[:n_variants], distinct[n_variants:]
    flows = _expand(rng, variants, _counts(n_traces, n_variants, k, 0.0)) + singletons
    rng.shuffle(flows)

    # clerk: 300 clerks, 5 per team, 5 teams per unit, 3 units per division;
    # the activity fixes the division (threshold level 3 of clerk_org).
    # site: 24 sites, 3 per city, 2 cities per region, 2 regions per zone;
    # the activity fixes the region (threshold level 2 of site_geo).
    # channel: 8 channels, 2 per medium, 2 media per group; the activity
    # fixes the group (threshold level 2 of channel_kind).
    traces = []
    for flow in flows:
        events = []
        for activity in flow:
            a = int(activity[1:])
            values = {
                "clerk": f"clerk{75 * (a % 4) + rng.randrange(75):03d}",
                "site": f"site{6 * ((a // 4) % 4) + rng.randrange(6):02d}",
                "channel": f"ch{4 * ((a // 16) % 2) + rng.randrange(4)}",
            }
            events.append((activity, values))
        traces.append(events)

    clerks = [f"clerk{i:03d}" for i in range(300)]
    sites = [f"site{i:02d}" for i in range(24)]
    channels = [f"ch{i}" for i in range(8)]
    hierarchies = {
        "activity.csv": _activity_rows(alphabet),
        "clerk_org.csv": [(c, f"team{i // 5:02d}", f"unit{i // 25:02d}", f"div{i // 75}",
                           WILDCARD) for i, c in enumerate(clerks)],
        "clerk_unit.csv": [(c, f"unit{i // 25:02d}", WILDCARD) for i, c in enumerate(clerks)],
        "clerk_flat.csv": [(c, WILDCARD) for c in clerks],
        "site_geo.csv": [(s, f"city{i // 3}", f"region{i // 6}", f"zone{i // 12}", WILDCARD)
                         for i, s in enumerate(sites)],
        "site_region.csv": [(s, f"region{i // 6}", WILDCARD) for i, s in enumerate(sites)],
        "site_flat.csv": [(s, WILDCARD) for s in sites],
        "channel_kind.csv": [(c, f"medium{i // 2}", f"group{i // 4}", WILDCARD)
                             for i, c in enumerate(channels)],
        "channel_group.csv": [(c, f"group{i // 4}", WILDCARD) for i, c in enumerate(channels)],
        "channel_flat.csv": [(c, WILDCARD) for c in channels],
    }
    qis = ["channel", "clerk", "site"]
    candidates = {
        "channel": ["channel_flat.csv", "channel_kind.csv", "channel_group.csv"],
        "clerk": ["clerk_unit.csv", "clerk_flat.csv", "clerk_org.csv"],
        "site": ["site_region.csv", "site_geo.csv", "site_flat.csv"],
    }
    config = {
        "k": k,
        "quasi_identifiers": qis,
        "activity_hierarchies": ["activity.csv"],
        "attribute_hierarchies": candidates,
        "vectorization": "naive",
        "drop_singletons": True,
    }
    shape = {
        "format": "xes", "traces": n_traces + n_singletons, "variants": n_variants,
        "singletons_dropped": n_singletons, "lengths": "18-22", "k": k,
        "qis": {"channel": 8, "clerk": 300, "site": 24}, "candidates_per_qi": 3,
        "vectorization": "naive",
        "expected_levels": {"activity": 0, "channel": 2, "clerk": 3, "site": 2},
    }
    return traces, hierarchies, config, shape, n_traces


_GENERATORS = {"msa-variants": _msa_variants, "bulk-dup": _bulk_dup, "wide-xes": _wide_xes}


def _write_csv_log(path: Path, traces: list, attributes: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["case", "activity", *attributes])
        for number, events in enumerate(traces):
            case = f"c{number:05d}"
            for activity, values in events:
                writer.writerow([case, activity, *(values[a] for a in attributes)])


def _write_xes_log(path: Path, traces: list, attributes: list[str]) -> None:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
    ]
    for number, events in enumerate(traces):
        lines.append(f'<trace><string key="concept:name" value="c{number:05d}"/>')
        for position, (activity, values) in enumerate(events):
            cells = "".join(
                f"<string key={quoteattr(a)} value={quoteattr(values[a])}/>"
                for a in attributes
            )
            stamp = f"2024-01-01T{position // 60:02d}:{position % 60:02d}:00"
            lines.append(
                f'<event><string key="concept:name" value={quoteattr(activity)}/>'
                f'{cells}<date key="time:timestamp" value="{stamp}"/></event>'
            )
        lines.append("</trace>")
    lines.append("</log>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Write the workload's log, hierarchies and config into ``out_dir``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(_GENERATORS)}")
    rng = random.Random(f"{workload}/{seed}")
    traces, hierarchies, config, shape, kept = _GENERATORS[workload](rng, scale)
    out_dir.mkdir(parents=True, exist_ok=True)
    attributes = list(traces[0][0][1])
    log_name = "log.xes" if shape["format"] == "xes" else "log.csv"
    if shape["format"] == "xes":
        _write_xes_log(out_dir / log_name, traces, attributes)
    else:
        _write_csv_log(out_dir / log_name, traces, attributes)
    for name, rows in hierarchies.items():
        with open(out_dir / name, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    (out_dir / "config.yaml").write_text(
        yaml.safe_dump(config, sort_keys=True, allow_unicode=True), encoding="utf-8"
    )
    names = [log_name, "config.yaml", *hierarchies]
    return Inputs(
        workload=workload,
        seed=seed,
        root=out_dir,
        log=log_name,
        config="config.yaml",
        k=config["k"],
        quasi_identifiers=tuple(config["quasi_identifiers"]),
        events=sum(len(events) for events in traces),
        traces_kept=kept,
        digests={name: _sha256(out_dir / name) for name in names},
        shape=shape,
    )


def record(seed: int = 1) -> dict:
    """Every workload's shape, event count and input digests at ``seed``."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WHY:
            inputs = generate(name, seed, Path(tmp) / name)
            found[name] = {"seed": seed, "why": WHY[name], "shape": inputs.shape,
                           "events": inputs.events, "sha256": inputs.digests}
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(_GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {RECORD.name} from every workload at --seed")
    args = parser.parse_args(argv)
    if args.record:
        RECORD.write_text(json.dumps(record(args.seed), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required")
    inputs = generate(args.workload, args.seed, args.out, args.scale)
    for name, digest in inputs.digests.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
