#!/usr/bin/env python3
"""Diff fresh bench --json dumps against the checked-in BENCH_baseline.json.

The experiment tables every bench prints are deterministic (all randomness
goes through util/rng.h), so a table that differs from the baseline is a
behaviour change and must be explained -- the script exits non-zero on any
table diff. Timer sections are machine-dependent wall times: they are
reported (with a slowdown threshold) but only fail the run with
--fail-on-timers. A timer is compared by its median rep when both sides
carry one ("median_seconds"), else by its mean ("seconds_per_rep"). A
--quick dump's timers are single reps, first-rep noise next to the
baseline's full-mode medians, so they are not compared at all (one note
per such dump), and --fail-on-timers refuses a --quick dump (exit 2).

Usage:
  scripts/bench_diff.py [--baseline BENCH_baseline.json]
                        [--timer-factor 2.0] [--fail-on-timers] [--strict]
                        dump1.json [dump2.json ...]
  scripts/bench_diff.py --self-test

Typical flows:
  # CI: compare the tables of the baseline benches' --quick dumps.
  python3 scripts/bench_diff.py --baseline BENCH_baseline.json bench-json/*.json

  # Local, after an intentional change: inspect the report, then refresh the
  # baseline per docs/BENCHMARKS.md.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile


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


def main(argv=None):
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
    parser.add_argument("--self-test", action="store_true",
                        help="run the script against its inline fixtures")
    parser.add_argument("dumps", nargs="*", help="fresh --json dump files")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.dumps:
        parser.error("at least one dump file is required")

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
        if dump.get("quick"):
            if args.fail_on_timers:
                print(f"error: {path} is a --quick dump; its single-rep "
                      "timers cannot be held to --fail-on-timers",
                      file=sys.stderr)
                return 2
            notes.append(f"{name}: --quick dump, timers not compared "
                         "(single reps against full-mode medians)")
            continue
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


def self_test():
    """Runs main() over inline fixtures; returns 0 iff every case holds."""

    def table(rows):
        return [{"headers": ["n", "size"], "rows": rows}]

    def timer(median_s):
        return [{"name": "t", "seconds_per_rep": median_s,
                 "median_seconds": median_s}]

    baseline = {
        "schema": "cqbounds-bench-baseline-v2",
        "benches": {
            "a": {"bench": "a", "quick": False,
                  "tables": table([["1", "2"]]), "timers": timer(1e-3)},
            "b": {"bench": "b", "quick": False,
                  "tables": table([["3", "4"]]), "timers": []},
        },
    }

    def dump(bench, rows, timers, quick=False):
        return {"bench": bench, "quick": quick, "tables": table(rows),
                "timers": timers}

    good_b = dump("b", [["3", "4"]], [])
    # (label, flags, dumps, expected exit code, expected output substrings,
    #  forbidden output substrings)
    cases = [
        ("unchanged tables pass", ["--strict"],
         [dump("a", [["1", "2"]], timer(1e-3)), good_b], 0,
         ["tables match"], ["slow:"]),
        ("a changed table row fails", [],
         [dump("a", [["1", "5"]], timer(1e-3))], 1,
         ["table regression", "+ ['1', '5']"], []),
        ("strict: a dump with no baseline entry fails", ["--strict"],
         [dump("a", [["1", "2"]], timer(1e-3)), good_b,
          dump("c", [], [])], 1, ["c: not in baseline"], []),
        ("strict: a baselined bench with no dump fails", ["--strict"],
         [dump("a", [["1", "2"]], timer(1e-3))], 1,
         ["b: in baseline but no dump supplied"], []),
        ("a quick dump's timers are not compared", [],
         [dump("a", [["1", "2"]], timer(10e-3), quick=True)], 0,
         ["timers not compared"], ["slow:"]),
        ("--fail-on-timers refuses a quick dump", ["--fail-on-timers"],
         [dump("a", [["1", "2"]], timer(1e-3), quick=True)], 2, [], []),
        ("a full dump's 3x median slowdown is reported", [],
         [dump("a", [["1", "2"]], timer(3e-3))], 0,
         ["slow: a: timer 't' 1.000 -> 3.000 ms/rep (3.0x median"], []),
        ("--fail-on-timers fails that slowdown", ["--fail-on-timers"],
         [dump("a", [["1", "2"]], timer(3e-3))], 1, ["slow:"], []),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        with open(base_path, "w") as f:
            json.dump(baseline, f)
        for label, flags, dumps, want_code, wanted, forbidden in cases:
            paths = []
            for i, d in enumerate(dumps):
                paths.append(os.path.join(tmp, f"dump{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(d, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = main(["--baseline", base_path] + flags + paths)
            text = out.getvalue()
            bad = [f"exit {code}, want {want_code}"] if code != want_code \
                else []
            bad += [f"missing {w!r}" for w in wanted if w not in text]
            bad += [f"unexpected {w!r}" for w in forbidden if w in text]
            if bad:
                failures += 1
                print(f"FAIL {label}: {'; '.join(bad)}")
                print("  " + text.replace("\n", "\n  "))
            else:
                print(f"PASS {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
