#!/usr/bin/env python3
"""Runs each workload N times on distinct seeds and prints the spread.

    python3 paperbench/steadiness.py [--runs 10] [--verbose] [workload ...]

Run from the repository root.  Run i uses seed i and BENCHMARK.json's
run_seconds.  For every metric it prints the median, the first and third
quartiles (statistics.quantiles(n=4)), and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json.  The bounds there were set from this script's output; see
README.md for the figures it gave.  Exits non-zero if a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.stdout.reconfigure(line_buffering=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        values = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        failed = {f"{f}/{a}" for f, a in shares}
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"failed {sorted(failed)}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}")
            if args.verbose:
                print("      " + " ".join(f"{x:.4g}" for x in v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
