#!/usr/bin/env python3
"""Diff fresh bench --json dumps against the checked-in BENCH_baseline.json.

The experiment tables every bench prints are deterministic (all randomness
goes through util/rng.h), so a table that differs from the baseline is a
behaviour change and must be explained -- the script exits non-zero on any
table diff. Timer sections are machine-dependent wall times: they are
reported (with a slowdown threshold) but only fail the run with
--fail-on-timers. A timer is compared by its median rep when both sides
carry one ("median_seconds"), else by its mean ("seconds_per_rep").

Usage:
  scripts/bench_diff.py [--baseline BENCH_baseline.json]
                        [--timer-factor 2.0] [--fail-on-timers] [--strict]
                        dump1.json [dump2.json ...]

Typical flows:
  # CI: compare the --quick dumps of the baseline benches.
  python3 scripts/bench_diff.py --baseline BENCH_baseline.json bench-json/*.json

  # Local, after an intentional change: inspect the report, then refresh the
  # baseline per docs/BENCHMARKS.md.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def diff_tables(name, base_tables, new_tables):
    """Returns a list of human-readable table regressions."""
    problems = []
    if len(base_tables) != len(new_tables):
        problems.append(
            f"{name}: table count changed "
            f"{len(base_tables)} -> {len(new_tables)}")
    for i, (bt, nt) in enumerate(zip(base_tables, new_tables)):
        label = f"{name} table[{i}]"
        if bt["headers"] != nt["headers"]:
            problems.append(
                f"{label}: headers changed {bt['headers']} -> {nt['headers']}")
            continue
        base_rows = [tuple(r) for r in bt["rows"]]
        new_rows = [tuple(r) for r in nt["rows"]]
        if base_rows == new_rows:
            continue
        removed = [r for r in base_rows if r not in new_rows]
        added = [r for r in new_rows if r not in base_rows]
        problems.append(
            f"{label} ({' | '.join(bt['headers'])}): "
            f"{len(removed)} row(s) changed/removed, {len(added)} added")
        for r in removed[:5]:
            problems.append(f"  - {list(r)}")
        for r in added[:5]:
            problems.append(f"  + {list(r)}")
    return problems


def diff_timers(name, base_timers, new_timers, factor):
    """Returns (slowdowns, notes): threshold breaches and coverage changes."""
    base_by_name = {t["name"]: t for t in base_timers}
    new_by_name = {t["name"]: t for t in new_timers}
    slowdowns, notes = [], []
    for tname, bt in base_by_name.items():
        nt = new_by_name.get(tname)
        if nt is None:
            notes.append(f"{name}: timer '{tname}' missing from dump")
            continue
        key = ("median_seconds"
               if "median_seconds" in bt and "median_seconds" in nt
               else "seconds_per_rep")
        base_s = bt[key]
        new_s = nt[key]
        if base_s > 0 and new_s > base_s * factor:
            slowdowns.append(
                f"{name}: timer '{tname}' {base_s * 1e3:.3f} -> "
                f"{new_s * 1e3:.3f} ms/rep ({new_s / base_s:.1f}x "
                f"{'median' if key == 'median_seconds' else 'mean'}, "
                f"threshold {factor}x)")
    for tname in new_by_name:
        if tname not in base_by_name:
            notes.append(f"{name}: new timer '{tname}' (not in baseline)")
    return slowdowns, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--timer-factor", type=float, default=2.0,
                        help="report timers slower than baseline * factor")
    parser.add_argument("--fail-on-timers", action="store_true",
                        help="exit non-zero on timer slowdowns too")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a dump has no baseline entry -- a "
                             "newly baselined bench (e.g. E12) silently "
                             "skipping the table guard is itself a "
                             "regression")
    parser.add_argument("dumps", nargs="+", help="fresh --json dump files")
    args = parser.parse_args()

    baseline = load(args.baseline)
    if baseline.get("schema") != "cqbounds-bench-baseline-v2":
        print(f"error: unexpected baseline schema in {args.baseline}",
              file=sys.stderr)
        return 2
    benches = baseline["benches"]

    table_problems, slowdowns, notes = [], [], []
    compared = 0
    seen = set()
    for path in args.dumps:
        dump = load(path)
        name = dump.get("bench", path)
        seen.add(name)
        base = benches.get(name)
        if base is None:
            message = f"{name}: not in baseline (add per docs/BENCHMARKS.md)"
            if args.strict:
                table_problems.append(message)
            else:
                notes.append(message)
            continue
        compared += 1
        table_problems += diff_tables(name, base["tables"], dump["tables"])
        s, n = diff_timers(name, base.get("timers", []),
                           dump.get("timers", []), args.timer_factor)
        slowdowns += s
        notes += n

    # The symmetric strict guard: a baselined bench with no fresh dump means
    # its table guard silently stopped running (bench dropped from the CI
    # dump loop? binary renamed?) -- just as much a regression as a dump
    # with no baseline.
    if args.strict:
        for name in sorted(set(benches) - seen):
            table_problems.append(
                f"{name}: in baseline but no dump supplied -- its table "
                f"guard did not run")

    print(f"bench_diff: compared {compared}/{len(args.dumps)} dump(s) "
          f"against {args.baseline}")
    for line in notes:
        print(f"  note: {line}")
    if compared == 0:
        print("error: no dump matched a baseline bench -- the table guard "
              "checked nothing (bench renamed? baseline stale?)")
        return 1
    if slowdowns:
        print(f"{len(slowdowns)} timer slowdown(s) past "
              f"{args.timer_factor}x (machine-dependent; "
              f"{'fatal' if args.fail_on_timers else 'informational'}):")
        for line in slowdowns:
            print(f"  slow: {line}")
    if table_problems:
        print(f"{len(table_problems)} table regression line(s) -- tables are "
              "deterministic, so this needs a correctness explanation or a "
              "baseline refresh (docs/BENCHMARKS.md):")
        for line in table_problems:
            print(f"  {line}")
        return 1
    if slowdowns and args.fail_on_timers:
        return 1
    print("tables match the baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
