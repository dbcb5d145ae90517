#!/usr/bin/env python3
"""The benchmark's own test: its inputs are a pure function of the seed.

    python3 perfbench/test_inputs.py

Builds the harness (as run.py does), dumps every workload's inputs -- the
cold-file text files, the warm-mutate base and mutation script, the
warm-read base and the query mixes -- twice for one seed and once for
another, and checks that the same seed gives byte-identical files and a
different seed gives different data.
"""

import filecmp
import os
import shutil
import subprocess
import sys

import run


def dump(seed, name):
    out = os.path.join(run.BUILD_DIR, "inputs-test", name)
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([run.HARNESS, "--dump-inputs", out, "--seed", str(seed)],
                   check=True)
    return out


def main():
    if not run.build():
        return 1
    first, again, other = dump(7, "a"), dump(7, "b"), dump(8, "c")
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again)), "dumps list different files"
    assert len(names) >= 7, names
    failures = []
    for name in names:
        if not filecmp.cmp(os.path.join(first, name), os.path.join(again, name),
                           shallow=False):
            failures.append(f"{name}: differs between two dumps of seed 7")
        seeded = name != "queries.txt"
        if seeded and filecmp.cmp(os.path.join(first, name),
                                  os.path.join(other, name), shallow=False):
            failures.append(f"{name}: identical for seeds 7 and 8")
    shutil.rmtree(os.path.join(run.BUILD_DIR, "inputs-test"))
    for failure in failures:
        print("FAIL", failure)
    print(f"{len(names)} input files checked, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
