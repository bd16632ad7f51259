#!/usr/bin/env python3
"""Compare two benchmark result sets, one verdict per (workload, metric).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RUNS.jsonl          # spread of one set

Each file holds the lines ``run.py --results FILE`` appends; only untraced
runs (``--trace 0``) are read.  Bounds and directions come from
BENCHMARK.json.  Verdicts follow the rule for landing a change:

- unresolved: the parent's own spread (distance between its quartiles, as a
  share of its median) exceeds the bound, unless every change run is better
  than every parent run;
- worse: the change median is worse than the parent median by more than the
  bound;
- better: the change wins at least 9 of 10 seed-paired runs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance, or every change run beats every parent run;
- within bound: anything else.

A workload whose change runs fail more cases than the parent's is also
reported as worse on ``failed_cases``.  With one file the tool prints each
metric's median and spread against its bound instead; a spread above a
third of the bound is flagged as not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """(workload, metric) -> {seed: value}; plus workload -> failed counts."""
    values = defaultdict(dict)
    failed = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            failed[rec["workload"]].append(rec["result"]["failed"])
            for metric, m in rec["result"]["metrics"].items():
                values[(rec["workload"], metric)][rec["seed"]] = m["value"]
    return values, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: dict, change: dict, bound: float, lower_is_better: bool) -> str:
    a, b = list(parent.values()), list(change.values())
    sign = -1.0 if lower_is_better else 1.0   # sign * value: larger is better

    def better(x, y):
        return sign * x > sign * y

    all_better = all(better(y, x) for y in b for x in a)
    med_a, med_b = statistics.median(a), statistics.median(b)
    if spread(a) > bound and not all_better:
        return "unresolved"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse"
    paired = [s for s in parent if s in change]
    wins = sum(better(change[s], parent[s]) for s in paired)
    q1, _, q3 = quartiles(a)
    if all_better or (paired and wins >= WIN_SHARE * len(paired) and abs(med_b - med_a) > q3 - q1):
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    parent, parent_failed = load_runs(args.parent)
    if args.change is None:
        steady = True
        print(f"{'workload':16s} {'metric':14s} {'runs':>4s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for (wl, metric), runs in sorted(parent.items()):
            s = spread(list(runs.values()))
            bound = spec[metric]["bound"]
            flag = "" if s <= bound / 3 or metric == "setup_s" else "  NOT STEADY"
            steady = steady and not flag
            print(f"{wl:16s} {metric:14s} {len(runs):4d} {statistics.median(runs.values()):12.6g} "
                  f"{s:8.4f} {bound:6.3f}{flag}")
        for wl, counts in sorted(parent_failed.items()):
            print(f"{wl:16s} failed cases per run: {counts}")
        return 0 if steady else 1

    change, change_failed = load_runs(args.change)
    worse = False
    print(f"{'workload':16s} {'metric':14s} {'parent':>12s} {'change':>12s} {'delta':>8s}  verdict")
    for key in sorted(set(parent) | set(change)):
        wl, metric = key
        if key not in parent or key not in change:
            print(f"{wl:16s} {metric:14s} missing from {'parent' if key not in parent else 'change'}")
            worse = True
            continue
        m = spec[metric]
        med_a = statistics.median(parent[key].values())
        med_b = statistics.median(change[key].values())
        v = verdict(parent[key], change[key], m["bound"], m["better"] == "lower")
        worse = worse or v == "worse"
        print(f"{wl:16s} {metric:14s} {med_a:12.6g} {med_b:12.6g} {(med_b - med_a) / med_a:+8.2%}  {v}")
    for wl in sorted(set(parent_failed) | set(change_failed)):
        if sum(change_failed.get(wl, [])) > sum(parent_failed.get(wl, [])):
            print(f"{wl:16s} failed_cases   {sum(parent_failed.get(wl, [])):12d} "
                  f"{sum(change_failed.get(wl, [])):12d}           worse")
            worse = True
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
