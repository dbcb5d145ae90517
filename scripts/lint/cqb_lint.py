#!/usr/bin/env python3
"""cqb_lint: repo-specific static checks for cqbounds.

Seven rule classes, each encoding an invariant the general-purpose toolchain
cannot see (run `--explain <rule>` for the full rationale and the fix):

  include-guard       header guards spell CQBOUNDS_<PATH>_H_ exactly
  naked-mutex         annotated files use util::Mutex, and every Mutex
                      member is referenced by a thread-safety annotation
  discarded-status    a Status/Result return is never a bare statement
  stats-reset-on-error functions with an `EvalStats* stats` out-param clear
                      it before any error return can leave it stale
  bench-table-dump    every bench::Table a bench builds is Print()ed (and
                      therefore lands in the --json dump)
  raw-row-access      library code outside src/relation/ reads rows through
                      ColumnStore, never the materializing tuples() accessor
  one-hash-index      src/relation/ hashes through relation/flat_index.h
                      only: no std hash containers, no hand-rolled probe

Stdlib-only and offline by design: it must run in the bare CI lint job and
in the network-less dev container. Regex-grade parsing, not a compiler --
each rule is scoped narrowly enough (see the per-rule class docs) that the
approximation is sound in practice, and `scripts/lint/lint_allowlist.txt`
absorbs deliberate exceptions with a written justification.

Usage:
  cqb_lint.py [--root DIR]          lint the tree (exit 1 on findings)
  cqb_lint.py --self-test           run every rule against its fixtures
  cqb_lint.py --explain [RULE]      print the rationale + fix for a rule
  cqb_lint.py --list-rules          one-line summary per rule

Wired into ctest as CqbLintSelfTest / CqbLintTree (tests/CMakeLists.txt)
and into scripts/check.sh --lint; see docs/STATIC_ANALYSIS.md.
"""

import argparse
import pathlib
import re
import sys

# Directories scanned when linting a tree, relative to --root.
SCAN_DIRS = ("src", "tests", "bench", "examples")
# Path components that end a walk: vendored code, build trees, fixtures.
PRUNE_PARTS = {"third_party", "testdata", ".git"}
SOURCE_SUFFIXES = {".h", ".cc"}


def _pruned(path):
    return any(
        part in PRUNE_PARTS or part.startswith("build")
        for part in path.parts
    )


def strip_code(text):
    """Returns `text` with comment and string/char-literal contents blanked.

    Offsets and newlines are preserved (every replaced character becomes a
    space), so line numbers computed on the result map 1:1 onto the file.
    Handles //, /* */, "..." with escapes, '...', and R"delim(...)delim".
    """
    out = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
            elif c == '"' and text[max(0, i - 1):i] == "R":
                # Raw string: R"delim( ... )delim"
                m = re.match(r'"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    delim = m.group(1)
                    end = text.find(")" + delim + '"', i + m.end())
                    stop = n if end < 0 else end + len(delim) + 2
                    out.append(
                        "".join("\n" if ch == "\n" else " "
                                for ch in text[i:stop]))
                    i = stop
                else:
                    state = STR
                    out.append(" ")
                    i += 1
            elif c == '"':
                state = STR
                out.append(" ")
                i += 1
            elif c == "'":
                state = CHR
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # STR or CHR
            quote = '"' if state == STR else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = NORMAL
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


class LintFile:
    """One source file: repo-relative path, raw text, comment-free view."""

    def __init__(self, relpath, text):
        self.relpath = relpath  # posix-style, relative to the lint root
        self.text = text
        self.lines = text.splitlines()
        self.code = strip_code(text)
        self.code_lines = self.code.splitlines()

    def line_of(self, offset):
        """1-based line number of a character offset into text/code."""
        return self.code.count("\n", 0, offset) + 1


class Finding:
    def __init__(self, rule, relpath, line, message):
        self.rule = rule
        self.relpath = relpath
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.relpath}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rules


class Rule:
    """Base: subclasses set NAME/SUMMARY/EXPLAIN and implement check()."""

    NAME = ""
    SUMMARY = ""
    EXPLAIN = ""

    def check(self, files):
        """Yields Finding objects for the given list of LintFiles."""
        raise NotImplementedError

    def finding(self, lf, line, message):
        return Finding(self.NAME, lf.relpath, line, message)


class IncludeGuardRule(Rule):
    NAME = "include-guard"
    SUMMARY = "header guards must spell CQBOUNDS_<PATH>_H_ exactly"
    EXPLAIN = """\
Every header's guard is derived from its repo path: uppercase it, strip a
leading `src/` (library headers are included as `relation/foo.h`, so the
src prefix is not part of their identity; tests/ and bench/ keep theirs),
map [/.-] to `_`, append `_`. `src/relation/evaluate.h` guards with
CQBOUNDS_RELATION_EVALUATE_H_; `bench/bench_util.h` with
CQBOUNDS_BENCH_BENCH_UTIL_H_.

Why: a guard that survives a file rename or copy-paste now collides with
the header it was copied from, and the second include silently vanishes --
the resulting errors point at the include site, never at the stale guard.
Deriving the guard from the path makes collisions impossible and the check
mechanical.

Fix: rename the #ifndef/#define pair (and the `#endif  // GUARD` comment)
to the derived name. The expected name is printed in the finding."""

    def check(self, files):
        for lf in files:
            if not lf.relpath.endswith(".h"):
                continue
            rel = lf.relpath
            if rel.startswith("src/"):
                rel = rel[len("src/"):]
            guard = "CQBOUNDS_" + re.sub(r"[/.\-]", "_", rel).upper() + "_"
            ifndef_line = None
            ifndef_name = None
            for idx, line in enumerate(lf.lines, 1):
                m = re.match(r"\s*#ifndef\s+(\S+)", line)
                if m:
                    ifndef_line, ifndef_name = idx, m.group(1)
                    break
                if line.strip() and not line.lstrip().startswith("//"):
                    break  # real code before any guard
            if ifndef_name != guard:
                got = ifndef_name if ifndef_name else "no #ifndef guard"
                yield self.finding(
                    lf, ifndef_line or 1,
                    f"expected include guard {guard}, found {got}")
                continue
            define = lf.lines[ifndef_line] if ifndef_line < len(lf.lines) else ""
            if not re.match(r"\s*#define\s+" + re.escape(guard) + r"\s*$",
                            define):
                yield self.finding(
                    lf, ifndef_line + 1,
                    f"#ifndef {guard} is not followed by #define {guard}")
            for idx in range(len(lf.lines) - 1, -1, -1):
                line = lf.lines[idx].strip()
                if not line:
                    continue
                if not re.match(r"#endif\s*//\s*" + re.escape(guard) + r"$",
                                line):
                    yield self.finding(
                        lf, idx + 1,
                        f"header must end with '#endif  // {guard}'")
                break


class NakedMutexRule(Rule):
    NAME = "naked-mutex"
    SUMMARY = ("annotated files use util::Mutex, and every Mutex member is "
               "referenced by an annotation")
    EXPLAIN = """\
Clang's thread-safety analysis only tracks locks acquired through annotated
lock functions. libstdc++'s std::mutex / std::lock_guard / std::unique_lock
/ std::condition_variable carry no annotations, so a std::mutex smuggled
into an annotated file is a hole: code "locks" it, the analysis sees
nothing, and every CQB_GUARDED_BY in the file silently stops meaning
anything on the members it guards. Hence two sub-checks, applied to files
that participate in the annotation system (those that include util/mutex.h
or util/thread_annotations.h, or use a CQB_* annotation):

  1. no std::mutex-family type may appear (std::once_flag/std::call_once
     are fine: a call_once-filled member is immutable afterwards and needs
     no capability, as eval_context.h's probe_once documents);
  2. every `Mutex foo;` member must be named inside at least one CQB_*
     annotation argument list in the same file -- a Mutex nothing is
     GUARDED_BY isn't protecting anything the analysis can check, which
     usually means the guard annotation was forgotten, not the lock.

Fix: (1) swap the std:: primitive for util::Mutex / MutexLock / CondVar
(src/util/mutex.h wraps all three); (2) add the missing CQB_GUARDED_BY /
CQB_REQUIRES / CQB_EXCLUDES referencing the mutex -- or delete the mutex.
src/util/mutex.h itself is the one place std::mutex may appear and is
exempted in lint_allowlist.txt with that justification."""

    BANNED = re.compile(
        r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
        r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
        r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
    MEMBER = re.compile(r"^\s*(?:mutable\s+)?(?:cqbounds::)?Mutex\s+(\w+)")
    ANNOTATION = re.compile(
        r"CQB_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES(?:_SHARED)?|"
        r"ACQUIRE(?:_SHARED)?|RELEASE(?:_SHARED)?|TRY_ACQUIRE|EXCLUDES|"
        r"ACQUIRED_(?:BEFORE|AFTER)|RETURN_CAPABILITY)\s*\(([^)]*)\)")

    def _in_scope(self, lf):
        # Raw text, not the comment/string-stripped view: #include paths are
        # string literals, which strip_code() blanks out.
        return (
            "util/mutex.h" in lf.text
            or "util/thread_annotations.h" in lf.text
            or "CQB_GUARDED_BY" in lf.code
        )

    def check(self, files):
        for lf in files:
            if not self._in_scope(lf):
                continue
            annotated = set()
            for m in self.ANNOTATION.finditer(lf.code):
                annotated.update(re.findall(r"\w+", m.group(1)))
            for idx, line in enumerate(lf.code_lines, 1):
                m = self.BANNED.search(line)
                if m:
                    yield self.finding(
                        lf, idx,
                        f"std::{m.group(1)} in an annotated file escapes the "
                        "thread-safety analysis; use util::Mutex / MutexLock "
                        "/ CondVar (src/util/mutex.h)")
                m = self.MEMBER.match(line)
                if m and m.group(1) not in annotated:
                    yield self.finding(
                        lf, idx,
                        f"Mutex '{m.group(1)}' is not referenced by any "
                        "CQB_* annotation in this file; guard something "
                        "with it (CQB_GUARDED_BY/CQB_REQUIRES/...) or "
                        "remove it")


class DiscardedStatusRule(Rule):
    NAME = "discarded-status"
    SUMMARY = "a util::Status / Result<T> return must never be a bare statement"
    EXPLAIN = """\
Status and Result<T> are already [[nodiscard]] (src/util/status.h), so the
compiler warns on ignored returns -- but only in builds that run with
warnings on, and plain `-w` or a stray pragma can mute it. This rule is the
build-independent backstop: it harvests the name of every function the
library declares with a Status/Result return type (src/**/*.h and
src/**/*.cc), then flags any statement anywhere in the tree that calls one
of them and does nothing with the value. A dropped Status is how a partial
database write or a swallowed parse error ships.

A deliberately discarded status must be spelled `(void)Foo();` with a
comment saying why the failure is ignorable -- the cast documents intent
and silences both the compiler warning and this rule.

Scope notes (why the regex approximation is sound here): only statements
that *begin* at a statement position are matched (continuation lines are
skipped), so a call wrapped in CQB_RETURN_NOT_OK(...), EXPECT_TRUE(...),
an assignment, a return, or an if-condition never triggers. Name
collisions with unrelated void functions are possible in principle; none
exist today, and lint_allowlist.txt is the escape hatch if one appears."""

    DECL = re.compile(
        r"(?:^|\n)\s*(?:template\s*<[^<>]*>\s*)?"
        r"(?:static\s+|inline\s+|virtual\s+|constexpr\s+|explicit\s+)*"
        r"(?:cqbounds::)?(?:Status|Result<[^;{}()]+>)\s+"
        r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")
    # Status factory methods: OK()/Internal(...)/... return Status but a bare
    # `Internal("x");` is constructing-and-dropping a value, which the
    # nodiscard attribute already flags and which no real code writes; more
    # importantly these names ARE the error-code vocabulary and collide with
    # nothing, so keeping them harvested is harmless -- except OK(), which
    # minigtest also defines. Excluded for that collision.
    EXCLUDED_NAMES = {"OK"}

    def harvest(self, files):
        names = set()
        for lf in files:
            if not lf.relpath.startswith("src/"):
                continue
            for m in self.DECL.finditer(lf.code):
                names.add(m.group(1))
        return names - self.EXCLUDED_NAMES

    def check(self, files):
        names = self.harvest(files)
        if not names:
            return
        call = re.compile(
            r"(?m)^[ \t]*(?:[A-Za-z_]\w*(?:::|\.|->))*("
            + "|".join(sorted(re.escape(n) for n in names))
            + r")\s*\(")
        for lf in files:
            if not lf.relpath.endswith(".cc"):
                continue
            code = lf.code
            for m in call.finditer(code):
                line_no = lf.line_of(m.start(1))
                # Skip continuation lines: a statement starts after ; { } :
                # or at the top of the file, never mid-expression.
                prev = code.rfind("\n", 0, m.start())
                prefix = code[:prev if prev >= 0 else 0].rstrip()
                if prefix and prefix[-1] not in ";{}:":
                    continue
                # The match must be the whole statement: balanced call
                # parens followed directly by ';'.
                depth = 0
                i = m.end() - 1
                while i < len(code):
                    if code[i] == "(":
                        depth += 1
                    elif code[i] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                rest = code[i + 1:].lstrip()
                if not rest.startswith(";"):
                    continue
                yield self.finding(
                    lf, line_no,
                    f"result of {m.group(1)}() (a Status/Result) is "
                    "discarded; handle it, propagate it "
                    "(CQB_RETURN_NOT_OK), or cast to (void) with a comment")


class StatsResetRule(Rule):
    NAME = "stats-reset-on-error"
    SUMMARY = ("functions with an `EvalStats* stats` out-param must clear it "
               "before any error return")
    EXPLAIN = """\
The evaluators' contract (relation/evaluate.h) is that `*stats` never holds
stale numbers from a previous call: every public entry point starts with
`if (stats != nullptr) *stats = EvalStats{};` and publishes real counters
only on success. An error return taken *before* the clear leaves the
caller's EvalStats holding the previous evaluation's counters -- the
nastiest kind of wrong, since the numbers are plausible.

The rule finds every function *definition* in src/**/*.cc whose parameter
list contains `EvalStats* stats` and checks that the first error exit --
CQB_RETURN_NOT_OK(...), CQB_ASSIGN_OR_RETURN(...), or `return Status::...`
-- is preceded by a `*stats = EvalStats{}` clear. Functions with no error
exits pass vacuously; that covers the forwarding overloads, whose single
`return OtherEvaluator(..., stats);` delegates the contract to the callee.
Internal helpers deliberately name the parameter something else (e.g.
GenericJoinImpl's `local`, which the caller already cleared) and are out of
scope by that naming convention.

Fix: hoist `if (stats != nullptr) *stats = EvalStats{};` above the first
validation that can fail, as relation/evaluate.cc's entry points do."""

    SIG = re.compile(
        r"([A-Za-z_]\w*)\s*\(([^{};()]*?EvalStats\s*\*\s*stats\b[^{};()]*?)\)"
        r"\s*(?:const\s*)?\{")
    ERROR_EXIT = re.compile(
        r"CQB_RETURN_NOT_OK|CQB_ASSIGN_OR_RETURN|return\s+Status::")
    CLEAR = re.compile(r"\*\s*stats\s*=\s*EvalStats\s*\{\s*\}")

    def check(self, files):
        for lf in files:
            if not (lf.relpath.startswith("src/")
                    and lf.relpath.endswith(".cc")):
                continue
            code = lf.code
            for m in self.SIG.finditer(code):
                body_start = m.end() - 1
                depth = 0
                i = body_start
                while i < len(code):
                    if code[i] == "{":
                        depth += 1
                    elif code[i] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                body = code[body_start:i + 1]
                err = self.ERROR_EXIT.search(body)
                if not err:
                    continue
                clear = self.CLEAR.search(body)
                if clear and clear.start() < err.start():
                    continue
                yield self.finding(
                    lf, lf.line_of(m.start(1)),
                    f"{m.group(1)}() can take an error return before "
                    "clearing *stats; hoist `if (stats != nullptr) *stats "
                    "= EvalStats{};` above the first fallible check")


class BenchTableDumpRule(Rule):
    NAME = "bench-table-dump"
    SUMMARY = "every bench::Table a bench constructs must be Print()ed"
    EXPLAIN = """\
bench_util.h's Table::Print() is what registers a table in the process-wide
dump registry behind --json; scripts/bench_diff.py then diffs that JSON
against BENCH_baseline.json with --strict, which fails on *missing* tables.
A Table that is built, filled, and never printed is therefore invisible
twice over: absent from the human-readable run AND silently absent from
the regression baseline -- the bench looks green while measuring nothing.

The rule matches every `bench::Table <var>(...)` declaration in bench/*.cc
and requires a `<var>.Print(` call somewhere in the same file. Helpers
taking `bench::Table*` parameters fill a caller-owned table and are not
declarations, so they do not trigger.

Fix: call table.Print() once the table is final (typically last statement
of the experiment), or delete the dead table."""

    DECL = re.compile(r"\b(?:bench::)?Table\s+([A-Za-z_]\w*)\s*[({]")

    def check(self, files):
        for lf in files:
            if not (lf.relpath.startswith("bench/")
                    and lf.relpath.endswith(".cc")):
                continue
            for m in self.DECL.finditer(lf.code):
                var = m.group(1)
                if not re.search(r"\b" + re.escape(var) + r"\s*\.\s*Print\s*\(",
                                 lf.code):
                    yield self.finding(
                        lf, lf.line_of(m.start(1)),
                        f"bench::Table '{var}' is never Print()ed, so it "
                        "reaches neither stdout nor the --json dump "
                        "scripts/bench_diff.py checks")


class RawRowAccessRule(Rule):
    NAME = "raw-row-access"
    SUMMARY = ("library code outside src/relation/ must read rows through "
               "ColumnStore, not the materializing tuples() accessor or "
               "the store's tombstone internals (dead_/dead_count_)")
    EXPLAIN = """\
Since the columnar rewrite (relation/column_store.h) there is no row vector
behind Relation::tuples(): the accessor *materializes*, decoding the whole
relation into a fresh vector<Tuple> at O(size * arity) cost on every call,
and the returned vector is a temporary -- so the once-idiomatic
`const Tuple& t = rel.tuples()[i]` now binds a reference into an object
that is destroyed at the end of the statement, and a stored `const Tuple*`
dangles immediately. Both compile clean and corrupt silently.

Inside src/relation/ the storage module may touch its own representation
(and tuples() itself lives there). Everywhere else in src/ the contract is
columns: per-cell reads via store().ValueAt()/CodeAt(), whole rows via
CopyRow()/Row(), filtered row sets as row-id RowViews, row identity as a
std::size_t row id -- never a Tuple pointer. tuples() stays available to
tests and tooling, where an O(n) copy per assertion is deliberate
simplicity, not a hot path.

Since the tombstone-deletion rewrite the same fence covers the store's
liveness representation: `dead_` (the lazy tombstone bitmap) and
`dead_count_` are private bookkeeping whose meaning shifts at every
deferred compaction -- code keying off them would silently break when the
store compacts under it. Liveness is part of the public column contract:
per-row via store().IsLive(row), in aggregate via store().live_size() vs
store().size() (physical).

The rule flags, in src/**/*.{h,cc} outside src/relation/: any call spelled
`.tuples(` / `->tuples(`, any mention of the old `tuples_` member, and any
mention of the tombstone members `dead_` / `dead_count_`. Identifiers that
merely contain the substrings (num_tuples(), delta_tuples_processed,
tuples_per_relation, dead_ends) do not match.

Fix: read through the relation's store() -- or, for code that genuinely
needs mutable row objects (rare; see core/elimination_transform.cc's
widening rounds), materialize explicitly with store().Row(row) so the copy
is visible at the call site. For liveness, use IsLive()/live_size()."""

    ACCESS = re.compile(
        r"(?:\.|->)\s*tuples\s*\(|\btuples_\b|\bdead_\b|\bdead_count_\b")

    def check(self, files):
        for lf in files:
            if (not lf.relpath.startswith("src/")
                    or lf.relpath.startswith("src/relation/")):
                continue
            for m in self.ACCESS.finditer(lf.code):
                if "dead" in m.group(0):
                    message = (
                        "tombstone internals outside src/relation/: "
                        "dead_/dead_count_ are the store's private liveness "
                        "bookkeeping (reset by deferred compaction) -- use "
                        "store().IsLive(row) / live_size() instead")
                else:
                    message = (
                        "raw row access outside src/relation/: tuples() "
                        "materializes a temporary (references into it "
                        "dangle) -- read columns via store() "
                        "(ValueAt/CopyRow/Row/RowView) instead")
                yield self.finding(lf, lf.line_of(m.start()), message)


class OneHashIndexRule(Rule):
    NAME = "one-hash-index"
    SUMMARY = ("src/relation/ hashes through relation/flat_index.h only: no "
               "std::unordered_map/unordered_set, no hand-rolled "
               "`(slot + 1) & mask` probe")
    EXPLAIN = """\
The storage and evaluation layers have one hash index: FlatIndex in
src/relation/flat_index.h (a power-of-two slot table of dense uint32_t ids,
linear probing, load at most 1/2, the 2^32 - 1 id cap checked in one place)
and the KeyedIndex built on it (Value-tuple keys with a support count and a
chain of rows per key). The value pool, the store dictionaries, the row
index, the semi-join books and the binary joins' indexes all sit on it, each
with its own hash function, so a probe sequence or a capacity rule is
written once.

A std::unordered_map/unordered_set allocates a node per key and hides its
probe behind an opaque hash; a second hand-rolled slot table re-grows the
copies of the probe/grow/rehash code and the capacity check that
flat_index.h exists to keep single.

The rule flags, in src/relation/**/*.{h,cc} other than flat_index.h, any
mention of std::unordered_map or std::unordered_set (the <unordered_*>
includes too) and any linear-probe step spelled `(slot + 1) & mask` (any
spacing). Comments and strings are ignored.

Fix: key the lookup through FlatIndex (ids into your own dense arrays, with
your hash and key test) or KeyedIndex (Value-tuple keys with row chains)."""

    PATTERN = re.compile(
        r"\bunordered_(?:map|set)\b"
        r"|\(\s*slot\s*\+\s*1\s*\)\s*&\s*mask\b")

    def check(self, files):
        for lf in files:
            if (not lf.relpath.startswith("src/relation/")
                    or lf.relpath == "src/relation/flat_index.h"):
                continue
            for m in self.PATTERN.finditer(lf.code):
                if "unordered" in m.group(0):
                    message = ("std hash container in src/relation/: key it "
                               "through FlatIndex or KeyedIndex "
                               "(relation/flat_index.h)")
                else:
                    message = ("hand-rolled linear probe in src/relation/: "
                               "FlatIndex::Probe (relation/flat_index.h) is "
                               "the one probe loop")
                yield self.finding(lf, lf.line_of(m.start()), message)


RULES = [
    IncludeGuardRule(),
    NakedMutexRule(),
    DiscardedStatusRule(),
    StatsResetRule(),
    BenchTableDumpRule(),
    RawRowAccessRule(),
    OneHashIndexRule(),
]


# ---------------------------------------------------------------------------
# Tree collection, allowlist, self-test


def collect_files(root, subdirs=SCAN_DIRS):
    files = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root)
            if _pruned(rel):
                continue
            files.append(
                LintFile(rel.as_posix(),
                         path.read_text(encoding="utf-8", errors="replace")))
    return files


def load_allowlist(path):
    """Allowlist lines: `rule|path-substring[|message-substring]  # why`."""
    entries = []
    if path is None or not path.is_file():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) < 2:
            print(f"warning: malformed allowlist line ignored: {raw!r}",
                  file=sys.stderr)
            continue
        entries.append((parts[0], parts[1],
                        parts[2] if len(parts) > 2 else ""))
    return entries


def allowed(finding, entries):
    for rule, path_sub, msg_sub in entries:
        if (rule in (finding.rule, "*")
                and path_sub in finding.relpath
                and msg_sub in finding.message):
            return True
    return False


def run_rules(files, rules, allow_entries):
    findings = []
    for rule in rules:
        for f in rule.check(files):
            if not allowed(f, allow_entries):
                findings.append(f)
    findings.sort(key=lambda f: (f.relpath, f.line, f.rule))
    return findings


EXPECT = re.compile(r"LINT-EXPECT:\s*([\w-]+)")


def self_test(testdata_root):
    """Runs each rule over its fixture tree; asserts exact finding sets.

    Layout: testdata/<rule-name>/{src,tests,bench,examples}/... mirrors the
    real tree. A `// LINT-EXPECT: <rule>` marker on a line means the rule
    must report that exact (file, line); files without markers must be
    clean. Both directions are checked, so a rule that goes blind *or*
    noisy fails the self-test.
    """
    failures = 0
    for rule in RULES:
        fixture_root = testdata_root / rule.NAME
        if not fixture_root.is_dir():
            print(f"FAIL [{rule.NAME}] no fixtures at {fixture_root}")
            failures += 1
            continue
        files = collect_files(fixture_root)
        expected = set()
        for lf in files:
            for idx, line in enumerate(lf.lines, 1):
                m = EXPECT.search(line)
                if m and m.group(1) == rule.NAME:
                    expected.add((lf.relpath, idx))
        actual = {(f.relpath, f.line) for f in rule.check(files)}
        missed = expected - actual
        spurious = actual - expected
        if missed or spurious:
            failures += 1
            print(f"FAIL [{rule.NAME}]")
            for relpath, line in sorted(missed):
                print(f"  missed expected finding at {relpath}:{line}")
            for relpath, line in sorted(spurious):
                print(f"  spurious finding at {relpath}:{line}")
        else:
            print(f"PASS [{rule.NAME}] "
                  f"{len(expected)} expected findings, good twins clean")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cqb_lint.py",
        description="repo-specific static checks for cqbounds")
    script_dir = pathlib.Path(__file__).resolve().parent
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=script_dir.parent.parent,
        help="tree to lint (default: the repo this script lives in)")
    parser.add_argument(
        "--allowlist", type=pathlib.Path,
        default=script_dir / "lint_allowlist.txt",
        help="exceptions file (rule|path-substring[|message-substring])")
    parser.add_argument(
        "--rules", metavar="R1,R2",
        help="comma-separated subset of rules to run")
    parser.add_argument(
        "--explain", nargs="?", const="*", metavar="RULE",
        help="print the rationale and fix for RULE (all rules if omitted)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="one-line summary per rule")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run every rule against scripts/lint/testdata fixtures")
    args = parser.parse_args(argv)

    by_name = {r.NAME: r for r in RULES}

    if args.list_rules:
        for r in RULES:
            print(f"{r.NAME:22} {r.SUMMARY}")
        return 0

    if args.explain:
        targets = RULES if args.explain == "*" else None
        if targets is None:
            if args.explain not in by_name:
                print(f"unknown rule: {args.explain} "
                      f"(try --list-rules)", file=sys.stderr)
                return 2
            targets = [by_name[args.explain]]
        for r in targets:
            print(f"== {r.NAME}: {r.SUMMARY}\n")
            print(r.EXPLAIN)
            print()
        return 0

    if args.self_test:
        return self_test(script_dir / "testdata")

    rules = RULES
    if args.rules:
        unknown = [n for n in args.rules.split(",") if n not in by_name]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)} (try --list-rules)",
                  file=sys.stderr)
            return 2
        rules = [by_name[n] for n in args.rules.split(",")]

    root = args.root.resolve()
    if not root.is_dir():
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    files = collect_files(root)
    findings = run_rules(files, rules, load_allowlist(args.allowlist))
    for f in findings:
        print(f)
    if findings:
        rules_hit = sorted({f.rule for f in findings})
        print(f"\n{len(findings)} finding(s). "
              f"Run --explain {rules_hit[0]} for the rationale and fix; "
              "deliberate exceptions go in scripts/lint/lint_allowlist.txt "
              "with a justification comment.")
        return 1
    print(f"cqb_lint: {len(files)} files clean under "
          f"{len(rules)} rule(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
