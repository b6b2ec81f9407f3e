#!/usr/bin/env python3
"""Compare two result sets (parent and change) written by steady.py --out.

    python3 perfbench/compare.py OLD.json NEW.json

For every workload and end-to-end metric it prints both medians, the change
as a share of the old median (positive is worse, by the metric's "better"
direction in BENCHMARK.json) and a verdict:

  worse       the new median is worse by more than the metric's bound
  better      the new median is better by more than the old runs' spread
  same        neither
  unresolved  the spread of either side is wider than the bound, so the
              runs cannot tell; unless every new run beats every old run

Exits 1 when any metric is worse. Run from the repository root.
"""

import json
import statistics
import sys


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def verdict(old, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    change = sign * (m_new - m_old) / m_old if m_old else 0.0
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if all_better and change < 0:
        return change, "better"
    if max(spread(old), spread(new)) > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if -change > spread(old):
        return change, "better"
    return change, "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    old, new = (json.load(open(p))["results"] for p in sys.argv[1:])
    worse = 0
    print(f"{'workload':<10} {'metric':<22} {'old':>11} {'new':>11} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in old:
        if workload not in new:
            print(f"{workload:<10} missing from {sys.argv[2]}")
            continue
        for name, old_values in old[workload].items():
            m = metrics.get(name)
            if m is None or name not in new[workload]:
                continue
            new_values = new[workload][name]
            change, v = verdict(old_values, new_values, m["better"], m["bound"])
            worse += v == "worse"
            print(f"{workload:<10} {name:<22} "
                  f"{statistics.median(old_values):>11.4g} "
                  f"{statistics.median(new_values):>11.4g} "
                  f"{change:>+8.3f} {m['bound']:>6.2f}  {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
