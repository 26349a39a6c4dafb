#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest          # all workloads, tiny sizes
    python3 perfbench/run.py --record-golden     # rewrite perfbench/golden.json
                                                 # (~2 min: verifies the campaign pool)

Run from the repository root. The benchmark binary is built from source into
.bench_build/perfbench (CMake, Release) on first use. The result line is
{"correct", "attempted", "failed", "metrics"}; its metric names and units are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1) and the golden digests the binary prints against golden.json.
Exit status: 0 when the run is correct, 1 when a correctness gate failed
(the result line is still printed), 2 when nothing could be measured.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ["deploy_global", "deploy_localized", "campaign_matrix"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build; cmake output to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            return False
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(workload, seed, seconds, trace, tiny, extra=()):
    """Returns (exit code, digests, result dict) or None when nothing ran."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--data-dir", HERE]
    if tiny:
        cmd.append("--tiny")
    cmd.extend(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("%s exited %d without a result" % (workload, proc.returncode))
        return None
    digests = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "digest":
            digests[parts[1]] = parts[2]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("%s printed no JSON result line" % workload)
        return None
    return proc.returncode, digests, result


def check(result, digests, expected_units, golden):
    """Problems with a result: schema, units, digests. Empty when sound."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        missing = sorted(set(expected_units) - set(metrics))
        extra = sorted(set(metrics) - set(expected_units))
        problems.append("metric names differ: missing %s, unexpected %s" % (missing, extra))
    for name, m in metrics.items():
        if name in expected_units and m.get("unit") != expected_units[name]:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), expected_units[name]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
    if not digests:
        problems.append("no golden digest printed")
    for name, value in digests.items():
        if golden.get(name) != value:
            problems.append("golden digest %s is %s, recorded %s"
                            % (name, value, golden.get(name)))
    return problems


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def measure(workload, seed, seconds, trace, tiny):
    """One run, validated; returns (exit status, result or None)."""
    ran = run_binary(workload, seed, seconds, trace, tiny)
    if ran is None:
        return 2, None
    rc, digests, result = ran
    e2e, layers = schema()
    problems = check(result, digests, layers if trace else e2e, load_golden())
    for p in problems:
        log("%s: %s" % (workload, p))
    if problems and isinstance(result, dict):
        result["correct"] = False
    ok = rc == 0 and not problems and result.get("correct") is True
    return (0 if ok else 1), result


def selftest():
    """Every workload at tiny sizes, untraced and traced: schema, names,
    units, correctness gates, golden digests, zero failed operations."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status, result = measure(workload, 1, 1, trace, tiny=True)
            ok = status == 0 and result is not None and result["failed"] == 0
            failures += 0 if ok else 1
            print("%-17s trace=%d  %s" % (workload, trace, "ok" if ok else "FAILED"))
    print("selftest: %s" % ("passed" if failures == 0 else "%d failures" % failures))
    return 0 if failures == 0 else 1


def record_golden():
    """Digests of every tiny run, untraced and traced (the serving-layer
    golden session runs in traced runs), and of every full-size campaign of
    the campaign_matrix pool, each verified; runs must agree on shared
    names."""
    golden = {}
    runs = [(w, t, True, ()) for w in WORKLOADS for t in (0, 1)]
    runs.append(("campaign_matrix", 0, False, ("--record-pool",)))
    for workload, trace, tiny, extra in runs:
        ran = run_binary(workload, 1, 1, trace, tiny, extra)
        if ran is None or ran[0] != 0:
            log("cannot record %s: the run failed" % workload)
            return 1
        for name, value in ran[1].items():
            if golden.setdefault(name, value) != value:
                log("digest %s differs between runs" % name)
                return 1
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded %d digests in %s" % (len(golden), GOLDEN))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not build():
        return 2
    if args.selftest:
        return selftest()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")
    status, result = measure(args.workload, args.seed, args.seconds, args.trace, tiny=False)
    if result is not None:
        print(json.dumps(result, separators=(",", ":")), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
