"""Benchmark of ``pmdg anonymize`` on a seeded synthetic workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the inputs (``bench/workloads.py``); the program only
receives the generated files.  Every measurement runs in a fresh child
process, one at a time.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
of several set-up children, and ``pmdg.cli.main(["anonymize", ...])`` is
run at least three times and for about S seconds.  ``--trace 1``
alternates untraced runs with traced ones (``bench/tracing.py``) and
reports the per-layer metrics.

Every run passes a correctness gate: exit code 0, the manifest's
``min_class_size`` at least k, the chosen levels equal to the minimum
the generator built in, the output re-read and k-checked by this file's
own grouping, and output bytes and manifest identical to the first run.  The second-to-last line of standard output holds the
samples and digests; the last line is the result object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WHY, Inputs, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"

SETUPS_PER_RUN = 2
MIN_RUNS = 3
# Every child is stopped, and no new run starts, this long after start-up.
HARD_LIMIT_S = 160
STARTED = time.monotonic()


class ChildFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(args: list[str], cwd: Path) -> tuple[dict, float]:
    """Run child.py in a fresh process; its JSON result and peak RSS in MB."""
    stdout, stderr = cwd / ".child.out", cwd / ".child.err"
    with open(stdout, "w") as out, open(stderr, "w") as err:
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd,
                                env=_env(), stdout=out, stderr=err)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - STARTED > HARD_LIMIT_S:
                    raise ChildFailed(f"{args[0]} child still running after {HARD_LIMIT_S} s")
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        raise ChildFailed(f"{args[0]} child exited {proc.returncode}: {' | '.join(tail)}")
    lines = stdout.read_text(encoding="utf-8").strip().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _own_k_check(path: Path, qis: tuple[str, ...]) -> tuple[int, int]:
    """Cases and smallest class of a re-read output, grouped here rather than
    by ``pmdg.validate_k``: a case's identity is its sequence of
    (activity, quasi-identifier values) rows."""
    cases: dict[str, list[tuple]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        case, activity = header.index("case"), header.index("activity")
        columns = [header.index(q) for q in qis]
        for row in reader:
            cases.setdefault(row[case], []).append(
                (row[activity], *(row[c] for c in columns)))
    classes = Counter(tuple(rows) for rows in cases.values())
    return len(cases), min(classes.values())


class Gate:
    """The correctness gate applied to every run of one invocation."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.digest: str | None = None
        self.manifest: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: Path, manifest: dict | None) -> str | None:
        """Problems with one finished run, or None.  The first run's output
        digest and manifest are what later runs must match."""
        k = self.inputs.k
        found = []
        if manifest is not None:
            manifest = {key: v for key, v in manifest.items() if key != "timings_s"}
            if manifest["min_class_size"] < k:
                found.append(f"manifest min_class_size {manifest['min_class_size']} < k={k}")
            expected = self.inputs.shape["expected_levels"]
            chosen = {"activity": manifest["levels"]["activity"],
                      **manifest["levels"]["attributes"]}
            if chosen != expected:
                found.append(f"chosen levels {chosen}, not the minimum {expected}")
            if self.manifest is None:
                self.manifest = manifest
            elif manifest != self.manifest:
                found.append("manifest differs from the first run")
        cases, smallest = _own_k_check(out, self.inputs.quasi_identifiers)
        if cases != self.inputs.traces_kept:
            found.append(f"output has {cases} cases, expected {self.inputs.traces_kept}")
        if smallest < k:
            found.append(f"re-read output has a class of size {smallest} < k={k}")
        digest = _sha256(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            found.append("output bytes differ from the first run")
        return "; ".join(found) or None

    def attempt(self, action) -> object | None:
        """Run ``action``; count it, and count it failed if its child fails,
        its output cannot be read back, or the gate rejects it."""
        self.attempted += 1
        try:
            result = action()
            problem = result[-1]
        except (ChildFailed, OSError, ValueError, KeyError, StopIteration) as exc:
            result, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.problems.append(problem)
            return None
        return result


def _anonymize(inputs: Inputs, work: Path, gate: Gate):
    out, report = work / "out.csv", work / "run.json"
    values, rss = _child(["run", inputs.config, inputs.log, str(out), str(report)],
                         inputs.root)
    manifest = json.loads(report.read_text(encoding="utf-8"))
    return values["wall_s"], rss, manifest, gate.check(out, manifest)


def _traced(inputs: Inputs, work: Path, gate: Gate, spans: Path, counts: bool):
    out, report = work / "traced.csv", work / "traced.json"
    values, _ = _child(["trace", inputs.config, inputs.log, str(out), str(report),
                        str(spans), "1" if counts else "0"], inputs.root)
    return values, gate.check(out, None)


def _keep_going(started: float, iterations: list[float], seconds: float,
                min_runs: int) -> bool:
    """Start another iteration only if it is expected to end within the budget."""
    if time.monotonic() - STARTED > HARD_LIMIT_S:
        return False
    if len(iterations) < min_runs:
        return True
    return time.monotonic() - started + statistics.median(iterations) <= seconds


def _setup(inputs: Inputs) -> float:
    return _child(["setup", inputs.config], inputs.root)[0]["setup_s"]


def _measure(inputs: Inputs, work: Path, gate: Gate, seconds: float) -> tuple[dict, dict]:
    _setup(inputs)  # warm the bytecode cache
    setups, walls, rss, manifests, iterations = [], [], [], [], []
    started = time.monotonic()
    while _keep_going(started, iterations, seconds, MIN_RUNS):
        began = time.monotonic()
        result = gate.attempt(lambda: _anonymize(inputs, work, gate))
        if result is not None:
            walls.append(result[0])
            rss.append(result[1])
            manifests.append(result[2])
        # Set-up samples are spread over the run, like the timed runs.
        setups.extend(_setup(inputs) for _ in range(SETUPS_PER_RUN))
        iterations.append(time.monotonic() - began)
    if not walls:
        raise ChildFailed("no anonymize run succeeded: " + "; ".join(gate.problems[:3]))
    manifest = manifests[0]
    precision = manifest["handover_precision"]
    levels = manifest["levels"]
    metrics = {
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(inputs.events / w for w in walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "variants_out": manifest["variants_output"],
        "handover_precision_pct": sum(precision.values()) / len(precision),
        "generalization_cost": levels["activity"] + sum(levels["attributes"].values()),
    }
    samples = {
        "wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
        "levels": levels, "nodes_evaluated": manifest["nodes_evaluated"],
        "min_class_size": manifest["min_class_size"],
    }
    return metrics, samples


def _purpose(workload: str, seconds: dict, counts: dict) -> dict:
    """Does the trace show what the workload was built to stress?"""
    total = seconds["cli.pipeline_s"]
    layers = {n: v for n, v in seconds.items() if not n.startswith("cli.")}
    if workload == "msa-variants":
        largest = max(layers, key=layers.get)
        return {"largest_layer": largest, "holds": largest == "vectorize.s"}
    if workload == "bulk-dup":
        share = (seconds["anonymize.search_s"] + seconds["metrics.handover_s"]) / total
        return {"search_plus_handover_share": share, "dup_ratio": counts["anonymize.dup_ratio"],
                "holds": share > 0.5 and counts["anonymize.dup_ratio"] >= 3}
    selection, read = seconds["selection.s"] / total, seconds["logio.read_s"] / total
    return {"selection_share": selection, "read_share": read,
            "dup_ratio": counts["anonymize.dup_ratio"],
            "holds": selection > 0.05 and read > 0.05 and counts["anonymize.dup_ratio"] < 1.1}


def _measure_traced(inputs: Inputs, work: Path, gate: Gate, seconds: float,
                    spans: Path) -> tuple[dict, dict]:
    walls, traced, iterations = [], [], []
    counts: dict = {}
    started = time.monotonic()
    while _keep_going(started, iterations, seconds, 1):
        began = time.monotonic()
        result = gate.attempt(lambda: _anonymize(inputs, work, gate))
        if result is not None:
            walls.append(result[0])
        layers = gate.attempt(lambda: _traced(inputs, work, gate, spans, not counts))
        if layers is not None:
            traced.append(layers[0]["seconds"])
            counts = counts or layers[0]["counts"]
        iterations.append(time.monotonic() - began)
    if not walls or not traced:
        raise ChildFailed("no traced run succeeded: " + "; ".join(gate.problems[:3]))
    medians = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    medians["cli.trace_overhead_s"] = medians["cli.pipeline_s"] - statistics.median(walls)
    samples = {"wall_s": walls, "traced_runs": len(traced),
               "purpose": _purpose(inputs.workload, medians, counts)}
    return {**medians, **counts}, samples


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (smoke tests only)")
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "pmdg" / "__init__.py").is_file():
        print(f"bench: no pmdg sources at {SRC}", file=sys.stderr)
        return 2
    units = _declared(bool(args.trace))

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = generate(args.workload, args.seed, work / "in", args.scale)
        gate = Gate(inputs)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            spans.unlink(missing_ok=True)
            metrics, samples = _measure_traced(inputs, work, gate, args.seconds, spans)
        else:
            metrics, samples = _measure(inputs, work, gate, args.seconds)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "shape": inputs.shape, "input_sha256": inputs.digests,
        "output_sha256": gate.digest,
        "problems": gate.problems, **samples,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
