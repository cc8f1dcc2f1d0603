#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, written as a BENCH_<n>.json file.

Each pair runs `perfbench/run.py` once in the base checkout and once in the
head checkout, with the same workload, seed and run length, alternating
which side runs first.  The last line of each run's standard output (the
runner's JSON result) is kept as it is.  With --tier1 the tier-1 suite's
wall time is taken once per side as well.  Results are appended to the
output file, so several workloads can share one file.  A run reporting
"correct": false, or a pair whose sides fail different numbers of
operations, stops the script with a non-zero exit before anything is written.

Usage:
  python3 scripts/bench_compare.py BASE HEAD --workload certify \\
      --seeds 11-20 [--seconds 20] [--trace 0] [--tier1] --out BENCH_6.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("base", "head")


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def perfbench(root: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tier1_seconds(root: str) -> float:
    """Wall time of the tier-1 suite; on a failing run, the tail of its
    output goes to stderr and the script exits with pytest's code."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                          "no:cacheprovider", "--continue-on-collection-errors"],
                         cwd=root, env=env, capture_output=True, text=True)
    if run.returncode:
        tail = (run.stdout + run.stderr).splitlines()[-40:]
        print(f"tier-1 failed in {root} (exit {run.returncode}):",
              *tail, sep="\n", file=sys.stderr)
        sys.exit(run.returncode)
    return time.perf_counter() - t0


def check_pair(workload: str, pair: dict) -> None:
    """Exit non-zero, naming the seed and side, on an incorrect run or on
    sides that fail different numbers of operations."""
    seed = pair["seed"]
    for side in SIDES:
        if not pair[side]["correct"]:
            sys.exit(f"{workload} seed {seed} {side}: the run reports correct: false")
    if pair["base"]["failed"] != pair["head"]["failed"]:
        sys.exit(f"{workload} seed {seed}: {pair['base']['failed']} failed on base, "
                 f"{pair['head']['failed']} on head")


def summary(pairs: list[dict], end_to_end: dict) -> dict:
    """Per metric: each side's median and quartiles, and, for the metrics of
    end_to_end (name -> its BENCHMARK.json entry), the pairs the head wins
    by the metric's better direction (ties count for neither).
    claim_met: at least ten pairs, the head wins nine tenths of them, and
    the medians differ its way by more than the base's quartile spread.
    within_bound: the head's median is not worse than the base's by more
    than the metric's relative bound times the base's median; "unresolved"
    when the base's quartile spread exceeds that amount and not every head
    run beats every base run."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        row = {}
        for s in SIDES:
            v = sorted(vals[s])
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            row[s] = {"median": statistics.median(v), "quartiles": [q[0], q[2]]}
        if name in end_to_end:
            sign = 1 if end_to_end[name]["better"] == "higher" else -1
            row["head_wins"] = sum(sign * (h - b) > 0 for b, h in
                                   zip(vals["base"], vals["head"]))
            row["pairs"] = len(pairs)
            lo, hi = row["base"]["quartiles"]
            gain = sign * (row["head"]["median"] - row["base"]["median"])
            row["claim_met"] = (len(pairs) >= 10 and gain > hi - lo
                                and 10 * row["head_wins"] >= 9 * len(pairs))
            allowed = end_to_end[name]["bound"] * abs(row["base"]["median"])
            clear = (min(sign * h for h in vals["head"])
                     > max(sign * b for b in vals["base"]))
            row["within_bound"] = ("unresolved" if hi - lo > allowed and not clear
                                   else -gain <= allowed)
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True,
                    choices=["decide", "certify", "search", "cli"])
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--labels", nargs=2, default=["base", "head"],
                    help="what the base and head checkouts are, for the file")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    roots = {"base": args.base, "head": args.head}
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}
    doc = {"sides": dict(zip(SIDES, args.labels)), "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    if args.tier1:
        doc["tier1_wall_s"] = {s: tier1_seconds(roots[s]) for s in SIDES}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = perfbench(roots[side], args.workload, seed,
                                   args.seconds, args.trace)
            res = pair[side]
            print(f"{args.workload} seed {seed} {side}: "
                  f"{res['attempted']}/{res['failed']} throughput "
                  f"{res['metrics'].get('throughput_per_s', {}).get('value')}",
                  file=sys.stderr)
        check_pair(args.workload, pair)
        pairs.append(pair)
    key = f"{args.workload}{'.trace' if args.trace else ''}"
    runs = doc["runs"].setdefault(key, {"seconds": args.seconds, "pairs": []})
    runs["pairs"].extend(pairs)
    if not args.trace:
        runs["summary"] = summary(runs["pairs"], end_to_end)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
