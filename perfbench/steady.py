#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of one build agree.

    python3 perfbench/steady.py [--workload <name>|all] [--runs 10]

Runs perfbench/run.py (untraced, run_seconds from BENCHMARK.json) for two sets
of --runs runs each, interleaved run by run (A1 B1 A2 B2 ...) so that a drift
in the host's speed lands on both sets. Set A uses seeds 1 .. runs, set B
seeds runs+1 .. 2*runs. For every end-to-end metric it prints each set's
median, quartiles and spread (interquartile range over median), and whether

  * each set's spread is within the metric's bound,
  * the two medians differ by no more than the bound, |B - A| / A,
  * the share of failed operations is the same in both sets.

Each run's machine descriptor is printed once per workload. Raw results are
kept under .bench_build/steady/. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("run failed: %s" % " ".join(cmd))
    machine = json.loads(lines[-2])["machine"]
    result = json.loads(lines[-1])
    with open(os.path.join(out_dir, "%s-seed%d.json" % (workload, seed)),
              "w") as f:
        json.dump({"machine": machine, "result": result}, f)
    return machine, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def check_workload(spec, workload, runs, out_dir):
    sets = ([], [])
    for i in range(runs):
        for s in (0, 1):
            seed = 1 + s * runs + i
            machine, result = run_once(workload, seed, spec["run_seconds"],
                                       out_dir)
            sets[s].append(result)
            if i == 0 and s == 0:
                print("%s machine: %s" % (workload, json.dumps(machine)))
            print("  %s seed %-4d %s" % ("AB"[s], seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    ok = True
    for s in (0, 1):
        bad = [r for r in sets[s] if not r["correct"]]
        if bad:
            print("  set %s: %d runs reported correct=false" % ("AB"[s],
                                                               len(bad)))
            ok = False
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in sets]
    same_share = shares[0] == shares[1]
    ok &= same_share
    print("  failed share: A %.6g  B %.6g  %s" %
          (shares[0], shares[1], "same" if same_share else "DIFFERENT"))
    print("  %-16s %12s %12s %12s %8s | %12s %12s %12s %8s | %6s %s" %
          ("metric", "A median", "A q1", "A q3", "A sprd", "B median",
           "B q1", "B q3", "B sprd", "bound", "verdict"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = [summarize([r["metrics"][name]["value"] for r in runs])
                 for runs in sets]
        verdicts = []
        for s in (0, 1):
            if stats[s][3] > bound:
                verdicts.append("spread %s > bound" % "AB"[s])
            elif stats[s][3] > bound / 3:
                verdicts.append("spread %s > bound/3" % "AB"[s])
        a, b = stats[0][0], stats[1][0]
        if abs(b - a) / a > bound:
            verdicts.append("medians differ by %.1f%%" % (100 * (b - a) / a))
        hard = [v for v in verdicts if "bound/3" not in v]
        ok &= not hard
        print("  %-16s %12.6g %12.6g %12.6g %8.4f | %12.6g %12.6g %12.6g "
              "%8.4f | %6.3f %s" %
              (name, *stats[0], *stats[1], bound,
               "; ".join(verdicts) if verdicts else "ok"), flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for w in workloads:
        if w not in names:
            raise SystemExit("unknown workload %s" % w)
        ok &= check_workload(spec, w, args.runs, out_dir)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
