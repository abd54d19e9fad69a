#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark, one seed per run.

Run from the root of a wde checkout:

    python3 e2ebench/spread.py --workload wcv-read --runs 10 --seconds 20

Runs e2ebench/run.py once per seed (first-seed, first-seed + 1, ...), one
run at a time, and prints for every metric its median, first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
with the metric's bound from BENCHMARK.json when it has one. Exits non-zero
when a run fails.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write every run's metric values here (JSON)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d failed (exit %d)" % (seed, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect answers" % seed, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d done" % seed, file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "first_seed": args.first_seed,
                       "values": values, "units": units}, f, indent=1)

    print("%-40s %-6s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        v = values[name]
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        median = statistics.median(v)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-40s %-6s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, units[name], median, q1, q3, spread,
               "" if bound is None else "%g" % bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
