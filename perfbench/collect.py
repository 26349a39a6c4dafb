#!/usr/bin/env python3
"""Run every workload at several seeds and keep the result lines.

    python3 perfbench/collect.py --out DIR [--seeds 1-10] [--trace 0|1]
                                 [--workloads deploy_global,...]

Appends each run's result line to DIR/<workload>.trace<T>.jsonl, then
prints, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4), and the spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json. Run it from the repository root; compare
two such directories with perfbench/compare.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread_table(bench, out_dir, workloads):
    print("%-17s %-17s %12s %12s %12s %7s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for w in workloads:
        runs = load(os.path.join(out_dir, "%s.trace0.jsonl" % w))
        if len(runs) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("%-17s %-17s %12.5g %12.5g %12.5g %7.3f %6.2f" %
                  (w, m["name"], med, q1, q3, spread, m["bound"]))
    print("largest spread / bound (setup_s excluded): %.2f" % worst)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for w in workloads:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print("%s seed %d: exit %d" % (w, seed, proc.returncode), file=sys.stderr)
                continue
            with open(os.path.join(args.out, "%s.trace%d.jsonl" % (w, args.trace)), "a") as f:
                f.write(lines[-1] + "\n")
    if args.trace == 0:
        spread_table(bench, args.out, workloads)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
