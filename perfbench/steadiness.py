#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs one build repeatedly, alternating
workloads, one seed per run, at BENCHMARK.json's run_seconds, and prints for
every end-to-end metric its median, quartiles and spread (interquartile
distance over the median) next to the metric's bound. A spread below a third
of the bound is steady; above the bound the metric cannot gate a regression.

With --sets=2 it runs a second set on the next seeds and also prints each
metric's median shift, set 2 against set 1, in the metric's worse direction.
The verdict fails if any spread or worse-direction shift exceeds its bound, or
if the share of failed operations differs between runs.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds=10 --sets=2   # seeds 1-10, 11-20
    python3 perfbench/steadiness.py --seeds=5 --workloads=serve-stream
    python3 perfbench/steadiness.py --raw=runs.jsonl      # keep every result

Seeds start at 1 unless --first-seed moves them.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: every workload)")
    parser.add_argument("--raw", default="", help="append every result here as JSON lines")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    raw = open(args.raw, "a") if args.raw else None
    for s in range(args.sets):
        first = args.first_seed + s * args.seeds
        for seed in range(first, first + args.seeds):
            for workload in workloads:
                result = run_once(spec, workload, seed)
                results[s][workload].append(result)
                if raw:
                    raw.write(json.dumps({"set": s + 1, "workload": workload, "seed": seed,
                                          "result": result}) + "\n")
                    raw.flush()
                print(f"  set {s + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr)
    if raw:
        raw.close()

    steady = True
    for workload in workloads:
        sets = [results[s][workload] for s in range(args.sets)]
        runs = [r for runs in sets for r in runs]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        steady = steady and correct and len(shares) == 1
        print(f"{workload}: {len(runs)} runs, failed share {shares}, all correct: {correct}")
        header = f"  {'metric':<16} {'bound':>5}"
        for s in range(args.sets):
            header += f" | {'median':>11} {'q1':>11} {'q3':>11} {'spread':>6}"
        if args.sets == 2:
            header += f" | {'shift':>6}"
        print(header)
        for m in metrics:
            line = f"  {m['name']:<16} {m['bound']:>5.2f}"
            medians, spreads = [], []
            for runs_of_set in sets:
                med, q1, q3, spread = summary(runs_of_set, m["name"])
                medians.append(med)
                spreads.append(spread)
                line += f" | {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>6.3f}"
            widest = max(spreads)
            steady = steady and widest <= m["bound"]
            flag = ("ok" if widest < m["bound"] / 3 else
                    "WIDE" if widest <= m["bound"] else "OVER")
            if args.sets == 2:
                shift = medians[1] / medians[0] - 1 if medians[0] else float("inf")
                worse = shift if m["better"] == "lower" else -shift
                steady = steady and worse <= m["bound"]
                line += f" | {shift:>+6.3f}"
                if worse > m["bound"]:
                    flag = "OVER"
            print(f"{line} {flag}")
    print("verdict:", "steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
