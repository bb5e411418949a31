"""One measurement in a fresh process; run by ``bench/run.py``.

    child.py setup CONFIG                    -> {"setup_s": ...}
    child.py run CONFIG LOG OUT REPORT       -> {"wall_s": ...}
    child.py trace CONFIG LOG OUT REPORT SPANS 0|1   -> {"seconds": ..., "counts": ...}

The working directory is the generated input directory and ``src/`` is
on ``PYTHONPATH``.  The last line of standard output is a JSON object;
an exception escapes as a non-zero exit code.  Nothing imports pmdg at
module level, so ``setup`` times the first import.
"""

from __future__ import annotations

import json
import os
import sys
import time


def setup(config_path: str) -> dict:
    """``import pmdg``, load the config, then read, validate and build every
    candidate hierarchy: everything before the log is opened."""
    started = time.perf_counter()
    from pmdg import Hierarchy, load_config, read_hierarchy

    config = load_config(config_path)
    built = [
        Hierarchy(read_hierarchy(path, wildcard=config.wildcard), attribute=attribute)
        for attribute, paths in [(None, config.activity_hierarchies)]
        + [(a, config.attribute_hierarchies[a]) for a in config.quasi_identifiers]
        for path in paths
    ]
    return {"setup_s": time.perf_counter() - started, "hierarchies": len(built)}


def run(config_path: str, log_path: str, out_path: str, report_path: str) -> dict:
    """One untraced ``pmdg anonymize`` through the command-line entry point."""
    from pmdg.cli import main

    argv = ["anonymize", "--config", config_path, "--in", log_path,
            "--out", out_path, "--report", report_path]
    started = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - started
    if code != 0:
        raise SystemExit(code)
    return {"wall_s": wall}


def trace(config_path, log_path, out_path, report_path, spans_path, counts) -> dict:
    """One traced ``anonymize``: per-layer seconds, and work counts when
    ``counts`` is "1"."""
    from tracing import Tracer, count_run, layer_metrics, traced_run

    tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    state = traced_run(tracer, config_path, log_path, out_path, report_path)
    tracer.write(spans_path)
    return {
        "seconds": layer_metrics(tracer),
        "counts": count_run(state, log_path, out_path) if counts == "1" else {},
    }


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    handlers = {"setup": setup, "run": run, "trace": trace}
    print(json.dumps(handlers[mode](*args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
