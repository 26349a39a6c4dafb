#!/usr/bin/env python3
"""Compare two result sets (parent vs change) collected by collect.py.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Per workload and end-to-end metric: both sides' medians and quartiles, the
pairwise win share (run i of the change against run i of the parent, ties
counting for neither), and a verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's spread exceeds the bound, and not every change
              run beats every parent run
  same        none of the above

Then, from the traced runs (<workload>.trace1.jsonl), a per-layer table of
median deltas, so a change can show where its saving sits.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory, workload, trace):
    path = os.path.join(directory, "%s.trace%d.jsonl" % (workload, trace))
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) >= 2 else [v[0]] * 3


def verdict(parent, change, bound, lower_is_better):
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    if pm and worse_by > bound:
        return win_share, "regression"
    if win_share >= 0.9 and abs(cm - pm) > (p3 - p1) and better(cm, pm):
        return win_share, "gain"
    all_better = all(better(c, p) for c in change for p in parent)
    if pm and (p3 - p1) / pm > bound and not all_better:
        return win_share, "unresolved"
    return win_share, "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    print("%-17s %-17s %11s %23s %11s %23s %5s  %s" %
          ("workload", "metric", "parent", "parent q1..q3", "change",
           "change q1..q3", "wins", "verdict"))
    regressions = 0
    for w in (x["name"] for x in bench["workloads"]):
        parent, change = load(parent_dir, w, 0), load(change_dir, w, 0)
        if not parent or not change:
            print("%-17s (missing runs)" % w)
            continue
        for m in bench["end_to_end"]:
            pv, cv = values(parent, m["name"]), values(change, m["name"])
            share, v = verdict(pv, cv, m["bound"], m["better"] == "lower")
            regressions += v == "regression"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("%-17s %-17s %11.5g %11.5g..%-11.5g %11.5g %11.5g..%-11.5g %5.2f  %s" %
                  (w, m["name"], pm, p1, p3, cm, c1, c3, share, v))

    print("\nper-layer medians (traced runs)")
    print("%-17s %-30s %12s %12s %8s" % ("workload", "metric", "parent", "change", "delta"))
    for w in (x["name"] for x in bench["workloads"]):
        parent, change = load(parent_dir, w, 1), load(change_dir, w, 1)
        if not parent or not change:
            continue
        for m in bench["per_layer"]:
            pv, cv = values(parent, m["name"]), values(change, m["name"])
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            delta = "%+7.1f%%" % (100.0 * (cm - pm) / abs(pm)) if pm else "      -"
            print("%-17s %-30s %12.5g %12.5g %s" % (w, m["name"], pm, cm, delta))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
