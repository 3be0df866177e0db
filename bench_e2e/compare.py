#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, metric by metric.

    python3 bench_e2e/compare.py [--layers] A.json... -- B.json...

A is the parent commit, B the change. Each file holds the JSON lines
`bench_e2e --json OUT` appends (one per workload run). Runs pair up by
(workload, seed), so run both sides over the same seeds. Bounds and
directions come from BENCHMARK.json next to this directory.

Each (workload, metric) row gets one verdict:
  better      B wins at least 9 of every 10 pairs and the medians
              differ by more than A's interquartile range
  worse       B's median is worse than A's by more than the bound
  unresolved  A's spread (IQR / median) is wider than the bound, and
              not every B run beats every A run
  unchanged   none of the above
Per-layer metrics (--layers) have no bound: only better, worse (the
win rule in the other direction) or unchanged. A claim needs at least
10 pairs; with fewer, "better" is never reported. Exit status 1 when
any row is worse or unresolved, or any run failed a check.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS_FOR_CLAIM = 10


def load(paths):
    runs = {}
    bad = 0
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            run = json.loads(line)
            result = run["result"]
            if not result["correct"] or result["failed"]:
                bad += 1
                print(f"warning: {path}: {run['workload']} seed "
                      f"{run['seed']} failed its checks", file=sys.stderr)
            key = (run["workload"], run["seed"])
            runs.setdefault(run["workload"], {})[key] = result["metrics"]
    return runs, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, higher_is_better, bound):
    """a, b: paired value lists (same order)."""
    sign = 1.0 if higher_is_better else -1.0
    med_a = statistics.median(a)
    med_b = statistics.median(b)
    q1, q3 = quartiles(a)
    iqr = q3 - q1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    n = len(a)
    if a == b:  # a deterministic value that repeated exactly
        return "unchanged", wins, n
    claim = n >= MIN_PAIRS_FOR_CLAIM and abs(med_b - med_a) > iqr
    if claim and wins >= 0.9 * n and sign * (med_b - med_a) > 0:
        return "better", wins, n
    if bound is None:
        if claim and losses >= 0.9 * n:
            return "worse", wins, n
        return "unchanged", wins, n
    scale = abs(med_a) if med_a else 1.0
    if iqr / scale > bound:
        every = all(sign * (y - x) > 0 for x in a for y in b)
        return ("unchanged" if every else "unresolved"), wins, n
    if sign * (med_a - med_b) > bound * scale:
        return "worse", wins, n
    return "unchanged", wins, n


def main(argv):
    layers = "--layers" in argv
    argv = [arg for arg in argv if arg != "--layers"]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent, parent_bad = load(argv[:split])
    change, change_bad = load(argv[split + 1:])
    spec = json.loads(BENCHMARK.read_text())
    metrics = [(m["name"], m["better"] == "higher", m["bound"])
               for m in spec["end_to_end"]]
    if layers:
        metrics += [(m["name"], m["better"] == "higher", None)
                    for m in spec["per_layer"]]

    failing = parent_bad + change_bad > 0
    print(f"{'workload':14s} {'metric':26s} {'A median [q1, q3]':>34s} "
          f"{'B median':>12s} {'delta':>8s} {'wins':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        keys = sorted(set(parent[workload]) & set(change[workload]))
        for name, higher, bound in metrics:
            pairs = [(parent[workload][k][name]["value"],
                      change[workload][k][name]["value"])
                     for k in keys
                     if name in parent[workload][k]
                     and name in change[workload][k]]
            if not pairs:
                continue
            a = [x for x, _ in pairs]
            b = [y for _, y in pairs]
            result, wins, n = verdict(a, b, higher, bound)
            failing = failing or result in ("worse", "unresolved")
            med_a = statistics.median(a)
            med_b = statistics.median(b)
            q1, q3 = quartiles(a)
            delta = (med_b - med_a) / abs(med_a) * 100 if med_a else 0.0
            print(f"{workload:14s} {name:26s} "
                  f"{med_a:12.5g} [{q1:9.5g}, {q3:9.5g}] {med_b:12.5g} "
                  f"{delta:+7.2f}% {wins:2d}/{n:<3d} {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
