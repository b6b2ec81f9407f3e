#!/usr/bin/env python3
"""Steadiness report: run every workload on several seeds and show how much
each end-to-end metric spreads.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--seconds S]
                                [--workloads hot-eval,cold-plan]
                                [--out results.json]

For each workload and metric it prints the median, the quartiles and the
quartile distance as a share of the median, and flags (!) any metric whose
spread uses more than half of its bound in BENCHMARK.json. The raw values
are written to --out as a result set that compare.py reads. Run from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def report(results, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    print(f"{'workload':<10} {'metric':<22} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, metrics in results.items():
        for name, values in metrics.items():
            q1, med, q3 = (statistics.quantiles(values, n=4)
                           if len(values) > 1 else (values[0],) * 3)
            s = spread(values)
            bound = bounds.get(name, 0.0)
            flag = " !" if name != "setup_s" and s > bound / 2 else ""
            flagged += bool(flag)
            print(f"{workload:<10} {name:<22} {med:>11.4g} {q1:>11.4g} "
                  f"{q3:>11.4g} {s:>7.3f} {bound:>6.2f}{flag}")
    return flagged


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = {}
        for seed in range(args.seed0, args.seed0 + args.runs):
            for name, value in run_once(workload, seed, args.seconds).items():
                results[workload].setdefault(name, []).append(value)
            print(f"  {workload} seed {seed} done", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": [args.seed0, args.seed0 + args.runs - 1],
                       "seconds": args.seconds, "results": results}, f, indent=1)
    flagged = report(results, bench)
    if flagged:
        print(f"{flagged} metric(s) spread over half of their bound")


if __name__ == "__main__":
    main()
