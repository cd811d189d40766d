#!/usr/bin/env python3
"""Runs the benchmark several times and prints each metric's spread.

    python3 blinkbench/repeat.py --workload train_mix --runs 10 [--trace 0]
                                 [--first-seed 1] [--seconds S]

One run per seed (first-seed, first-seed + 1, ...), each through run.py.
For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and
the metric's bound from BENCHMARK.json when it has one, so the bounds can be
derived again. It also prints the share of failed operations of each run.
Exits non-zero when a run fails or reports correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values, shares, ok = {}, [], True
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])

    print(f"\n{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, (unit, vals) in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, "") if args.trace == 0 else ""
        print(f"{name:32} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {bound!s:>6}")
    print(f"\nfailed share per run: {sorted(set(shares))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
