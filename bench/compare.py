"""Run two sets of benchmark runs and say whether they agree.

    python3 bench/compare.py [--workload NAME ...] [--seeds N] [--base DIR]
                             [--seconds S] [--json PATH]

Set A and set B each make N end-to-end runs per workload (``--trace 0``)
and one traced run (``--trace 1``), alternating which set goes first.
Without ``--base`` both sets run this tree, set A on seeds 1..N and set B
on seeds N+1..2N: a steadiness check.  With ``--base DIR`` set A runs the
benchmark of another checkout (for example the parent commit) on the
same seeds as set B, and output digests are compared seed by seed.

For every metric of BENCHMARK.json it prints the name, unit, median,
quartiles and sample count of each set.  An end-to-end metric agrees
when each set's quartile spread (q3 - q1, as a share of the median) is
within the metric's bound and set B's median is not worse than set A's
by more than the bound.  The exit code is 0 when every metric agrees
and no run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its result object with the detail line merged in."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"error": proc.stderr.strip()[-500:]}}
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _verdict(metric: dict, a: dict, b: dict) -> str:
    bound = metric["bound"]
    if a["spread"] > bound or b["spread"] > bound:
        return "unresolved"
    if _worse_by(a["median"], b["median"], metric["better"]) > bound:
        return "WORSE"
    return "agree"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--base", type=Path, help="checkout whose benchmark is set A")
    parser.add_argument("--json", type=Path, help="write every sample here")
    args = parser.parse_args(argv)

    base = args.base.resolve() if args.base else ROOT
    seeds_a = list(range(1, args.seeds + 1))
    seeds_b = seeds_a if args.base else [s + args.seeds for s in seeds_a]
    everything: dict = {}
    ok = True
    for workload in args.workload or names:
        runs: dict[str, list[dict]] = {"A": [], "B": []}
        for i, (seed_a, seed_b) in enumerate(zip(seeds_a, seeds_b)):
            order = [("A", base, seed_a), ("B", ROOT, seed_b)]
            for side, tree, seed in order if i % 2 == 0 else order[::-1]:
                runs[side].append(_run(tree, workload, seed, args.seconds, 0))
        traced = {"A": _run(base, workload, seeds_a[0], args.seconds, 1),
                  "B": _run(ROOT, workload, seeds_b[0], args.seconds, 1)}
        everything[workload] = {"runs": runs, "traced": traced}

        print(f"== {workload}  (A: {base}, seeds {seeds_a}; B: {ROOT}, seeds {seeds_b})")
        for side in "AB":
            attempted = sum(r["attempted"] for r in runs[side] + [traced[side]])
            failed = sum(r["failed"] for r in runs[side] + [traced[side]])
            ok &= failed == 0 and all(r["correct"] for r in runs[side] + [traced[side]])
            print(f"   set {side}: {failed} of {attempted} runs failed")
            for r in runs[side] + [traced[side]]:
                if r["detail"].get("problems") or r["detail"].get("error"):
                    print(f"     {r['detail'].get('problems') or r['detail'].get('error')}")
        if args.base:
            same = [ra["detail"].get("output_sha256") == rb["detail"].get("output_sha256")
                    for ra, rb in zip(runs["A"], runs["B"])]
            print(f"   byte-identical output on {sum(same)} of {len(same)} seeds")
            ok &= all(same)
        print(f"   {'metric':<26}{'unit':<10}{'A median [q1, q3] n':<38}"
              f"{'B median [q1, q3] n':<38}verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            for side in "AB":
                values = [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
                cells.append(_stats(values) if values else None)
            if None in cells:
                print(f"   {name:<26}{metric['unit']:<10}missing")
                ok = False
                continue
            verdict = _verdict(metric, *cells)
            ok &= verdict == "agree"
            shown = [f"{_fmt(c['median'])} [{_fmt(c['q1'])}, {_fmt(c['q3'])}] {c['n']}"
                     for c in cells]
            print(f"   {name:<26}{metric['unit']:<10}{shown[0]:<38}{shown[1]:<38}{verdict}"
                  f" (spread {cells[0]['spread']:.3f}/{cells[1]['spread']:.3f},"
                  f" bound {metric['bound']})")
        print(f"   {'per-layer metric':<30}{'unit':<10}{'A':<24}B")
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [traced[side]["metrics"].get(name, {}).get("value") for side in "AB"]
            shown = ["missing" if v is None else _fmt(v) for v in values]
            print(f"   {name:<30}{metric['unit']:<10}{shown[0]:<24}{shown[1]}")
        for side in "AB":
            print(f"   purpose ({side}): {traced[side]['detail'].get('purpose')}")

    if args.json:
        args.json.write_text(json.dumps(everything, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print("all metrics agree" if ok else "some metrics disagree or runs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
