#!/usr/bin/env python3
"""hypercone benchmark runner.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics of one workload; with --trace 1 it runs every round twice, untraced
and traced, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Spans of a traced run are
written to .perfbench_out/ under the root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9

IMPORT_PROBE = ("import time; t = time.process_time(); import hypercone; "
                "print(time.process_time() - t); print(hypercone.__file__)")


def import_program():
    """Import hypercone from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import hypercone
    import hypercone.cli  # noqa: F401  (the cli workload calls cli.main)
    where = os.path.abspath(hypercone.__file__)
    if not where.startswith(SRC + os.sep):
        raise RuntimeError(f"hypercone imported from {where}, not from {SRC}")
    return hypercone


def setup_seconds() -> float:
    """Median CPU time of `import hypercone` in fresh interpreters, each
    scaled to reference machine speed (speed.py).

    The first interpreter, which may compile bytecode, is not timed.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    speed = Speed()
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True, check=True)
        seconds, where = out.stdout.split("\n")[:2]
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise RuntimeError(f"fresh interpreter imported {where}")
        ns = float(seconds) * 1e9
        factor = speed.factor(ns)
        if i:
            times.append(ns * factor / 1e9)
    return statistics.median(times)


def layer_metrics(table: dict, extra: dict, layers) -> dict:
    metrics = {}
    for name in layers:
        row = table.get(name, {"calls": 0, "self_ns": 0, "failed": 0})
        calls = row["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (row["self_ns"] / calls / 1e6 if calls else 0.0,
                                      "ms")
        metrics[f"{name}.failed"] = (row["failed"], "count")
    metrics.update(extra)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["decide", "certify", "search", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    hc = import_program()
    # Stay on one CPU, with every child, so the reference kernel (speed.py)
    # is timed where the work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[args.workload](hc, args.seed, ROOT)
    try:
        wl.warmup()
        if args.trace:
            tr = workloads.Tracer()
            overhead = wl.traced_phase(args.seconds, tr)
            extra = {name: (tr.counts.get(name, 0), "count")
                     for name in workloads.COUNTS}
            extra.update(wl.extra_layers())
            extra["trace.overhead_share"] = (overhead, "share")
            metrics = layer_metrics(tr.layer_table(), extra, workloads.LAYERS)
            path = os.path.join(ROOT, ".perfbench_out",
                                f"spans-{args.workload}-{args.seed}.jsonl")
            tr.write(path)
            print(f"spans: {len(tr.spans)} written to {path}", file=sys.stderr)
        else:
            wl.phase(args.seconds)
            metrics = dict(wl.end_to_end(), setup_s=(setup_seconds(), "s"))
    finally:
        wl.close()

    for err in wl.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not wl.errors, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
