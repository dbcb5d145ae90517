#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload cold-file --seed 1 --seconds 30 --trace 0

Run from the repository root. The harness (perfbench/harness) and the
cqbounds library (src/) are compiled into .bench_build/perfbench with
CMake; a repeat build is a no-op. The harness's report goes to standard
output, ending in one JSON line with the metrics; build logs go to
standard error. Exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
HARNESS = os.path.join(BUILD_DIR, "cqb_perfbench")
WORKLOADS = ("cold-file", "warm-mutate", "warm-read")
BUILD_TIMEOUT_S = 850
# The harness stops by itself within twice --seconds plus set-up.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "relation", "evaluate.h")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return os.path.isfile(HARNESS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the harness did not finish in time", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = done.returncode == 0 and set(result) == {
            "correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        sys.stderr.write(done.stdout)
        print(f"run.py: the harness exited {done.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
