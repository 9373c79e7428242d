#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark program
(perfbench/CMakeLists.txt, against the checkout's src/) into
.bench_build/perfbench, runs it once, checks its output against BENCHMARK.json
and prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.
The line before it describes the machine and the source tree. Build logs and
diagnostics go to standard error.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("train-plan", "serve-hot", "serve-cold")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = load_spec()
    build()
    run_dir = os.path.join(BUILD_ROOT, "run")
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(run_dir, ROOT)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("perfbench exited with code %d" % done.returncode)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("perfbench printed no result")
    machine = json.loads(lines[-2])["machine"]
    result = json.loads(lines[-1])

    # Every metric the program reports must be declared, with its unit. In a
    # traced run a declared layer metric the workload does not exercise is
    # reported as 0.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            fail("undeclared metric %s" % name)
        if m["unit"] != units[name]:
            fail("metric %s has unit %s, declared %s" %
                 (name, m["unit"], units[name]))
    ordered = {}
    for m in declared:
        if m["name"] in metrics:
            ordered[m["name"]] = metrics[m["name"]]
        elif args.trace:
            ordered[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail("end-to-end metric %s missing" % m["name"])
        if not args.trace and not ordered[m["name"]]["value"] > 0:
            fail("end-to-end metric %s is not positive" % m["name"])
    result["metrics"] = ordered

    machine["source"] = source_id()
    machine["workload"] = args.workload
    machine["seed"] = args.seed
    print(json.dumps({"machine": machine}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": ordered}))


if __name__ == "__main__":
    main()
