#ifndef CQBOUNDS_BENCH_BENCH_UTIL_H_
#define CQBOUNDS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace cqbounds::bench {

/// Minimal aligned-table printer for the paper-shaped result tables each
/// bench emits before running its google-benchmark timers. Every printed
/// table is also recorded in a process-wide registry so `--json out.json`
/// can dump the full experiment output for perf tracking (see CQB_BENCH_MAIN).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print(std::ostream& os = std::cout);

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  bool recorded_ = false;
};

/// Registry of every table printed so far, in print order.
inline std::vector<Table>& PrintedTables() {
  static std::vector<Table> tables;
  return tables;
}

inline void Table::Print(std::ostream& os) {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
         << row[c];
    }
    os << "\n";
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
  // Record for --json exactly once, even if the table is printed to several
  // streams.
  if (!recorded_) {
    recorded_ = true;
    PrintedTables().push_back(*this);
  }
}

inline std::string Num(std::size_t v) { return std::to_string(v); }
inline std::string Num(std::int64_t v) { return std::to_string(v); }
inline std::string Num(int v) { return std::to_string(v); }

/// A named timed section registered with CQB_BENCH_TIMED. Unlike the
/// google-benchmark timer loops (which `--quick` skips entirely), timed
/// sections run in *every* mode -- once under `--quick`, at least
/// kMinTimerReps reps otherwise -- so `--json` dumps always carry a
/// "timers" section and the perf trajectory (BENCH_baseline.json,
/// docs/BENCHMARKS.md) tracks wall times, not just result tables.
struct TimerCase {
  std::string name;
  std::function<void()> fn;
  /// Optional untimed step run before every rep (e.g. the mutation whose
  /// maintenance `fn` times), so a section can isolate one phase.
  std::function<void()> setup;
};

/// Registry of timed sections, in registration order.
inline std::vector<TimerCase>& TimerCases() {
  static std::vector<TimerCase> cases;
  return cases;
}

/// One executed timed section: `reps` runs totalling `total_seconds`,
/// each rep's own time kept in `rep_seconds` (in run order).
struct TimerResult {
  std::string name;
  int reps = 0;
  double total_seconds = 0.0;
  std::vector<double> rep_seconds;

  double MinSeconds() const {
    return *std::min_element(rep_seconds.begin(), rep_seconds.end());
  }
  /// The middle rep's time (the mean of the two middle ones for an even
  /// count): unlike the mean, one rep disturbed by the machine does not
  /// move it.
  double MedianSeconds() const {
    std::vector<double> sorted = rep_seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 == 1 ? sorted[mid]
                                  : (sorted[mid - 1] + sorted[mid]) / 2;
  }
};

/// Results of RunRegisteredTimers, in execution order.
inline std::vector<TimerResult>& TimerResults() {
  static std::vector<TimerResult> results;
  return results;
}

/// Registers a timed section at namespace scope (static initialization).
struct TimerRegistrar {
  TimerRegistrar(std::string name, std::function<void()> fn,
                 std::function<void()> setup = nullptr) {
    TimerCases().push_back({std::move(name), std::move(fn), std::move(setup)});
  }
};

#define CQB_BENCH_TIMED_CONCAT_INNER(a, b) a##b
#define CQB_BENCH_TIMED_CONCAT(a, b) CQB_BENCH_TIMED_CONCAT_INNER(a, b)
/// CQB_BENCH_TIMED("name", [] { ... }) -- registers a timed section.
#define CQB_BENCH_TIMED(name, ...)                          \
  static const ::cqbounds::bench::TimerRegistrar            \
      CQB_BENCH_TIMED_CONCAT(cqb_timer_registrar_, __LINE__){name,         \
                                                             __VA_ARGS__};
/// CQB_BENCH_TIMED_SETUP("name", [] { setup }, [] { timed }) -- as above,
/// running `setup` untimed before every rep. `setup` is one macro argument,
/// so any comma in it must sit inside parentheses.
#define CQB_BENCH_TIMED_SETUP(name, setup, ...)                          \
  static const ::cqbounds::bench::TimerRegistrar                        \
      CQB_BENCH_TIMED_CONCAT(cqb_timer_registrar_, __LINE__){           \
          name, __VA_ARGS__, setup};

/// Rep bounds of a timed section outside `--quick`: reps accumulate until
/// ~0.2 s have passed and at least kMinTimerReps ran, or kMaxTimerReps did
/// -- so even a slow section's median rests on several samples.
constexpr int kMinTimerReps = 7;
constexpr int kMaxTimerReps = 64;

/// Runs every registered timed section and prints a per-section summary
/// (mean, min and median per rep). Under `--quick` each section runs
/// exactly once (cheap smoke + JSON coverage).
inline void RunRegisteredTimers(bool quick, std::ostream& os = std::cout) {
  if (TimerCases().empty()) return;
  os << "Timed sections" << (quick ? " (--quick: single rep)" : "") << ":\n";
  for (const TimerCase& c : TimerCases()) {
    TimerResult result;
    result.name = c.name;
    do {
      if (c.setup) c.setup();
      const auto t0 = std::chrono::steady_clock::now();
      c.fn();
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      result.rep_seconds.push_back(seconds);
      result.total_seconds += seconds;
      ++result.reps;
    } while (!quick && result.reps < kMaxTimerReps &&
             (result.reps < kMinTimerReps || result.total_seconds < 0.2));
    os << "  " << c.name << ": "
       << result.total_seconds / result.reps * 1e3 << " ms/rep (min "
       << result.MinSeconds() * 1e3 << ", median "
       << result.MedianSeconds() * 1e3 << "; " << result.reps
       << (result.reps == 1 ? " rep" : " reps") << ")\n";
    TimerResults().push_back(std::move(result));
  }
  os << "\n";
}

namespace internal {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline void WriteStringArray(std::ostream& os,
                             const std::vector<std::string>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << JsonEscape(values[i]) << '"';
  }
  os << "]";
}

/// Dumps every table printed and every timed section run so far as JSON:
///   {"bench": ..., "quick": ..., "table_seconds": ...,
///    "tables": [{"headers": [...], "rows": [[...], ...]}, ...],
///    "timers": [{"name": ..., "reps": ..., "total_seconds": ...,
///                "seconds_per_rep": ..., "min_seconds": ...,
///                "median_seconds": ...}, ...]}
/// The "timers" section is present in --quick mode too (sections run once
/// there), so baseline refreshes always capture wall times.
inline bool WriteTablesJson(const std::string& path, const std::string& bench,
                            bool quick, double table_seconds) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot open --json output file: " << path << "\n";
    return false;
  }
  os << "{\n  \"bench\": \"" << JsonEscape(bench) << "\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"table_seconds\": " << table_seconds << ",\n"
     << "  \"tables\": [\n";
  const auto& tables = PrintedTables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    os << "    {\"headers\": ";
    WriteStringArray(os, tables[t].headers());
    os << ",\n     \"rows\": [\n";
    const auto& rows = tables[t].rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      os << "       ";
      WriteStringArray(os, rows[r]);
      os << (r + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "     ]}" << (t + 1 < tables.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"timers\": [\n";
  const auto& timers = TimerResults();
  for (std::size_t t = 0; t < timers.size(); ++t) {
    os << "    {\"name\": \"" << JsonEscape(timers[t].name)
       << "\", \"reps\": " << timers[t].reps
       << ", \"total_seconds\": " << timers[t].total_seconds
       << ", \"seconds_per_rep\": "
       << timers[t].total_seconds / timers[t].reps
       << ", \"min_seconds\": " << timers[t].MinSeconds()
       << ", \"median_seconds\": " << timers[t].MedianSeconds() << "}"
       << (t + 1 < timers.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.good();
}

struct BenchOptions {
  bool quick = false;
  bool error = false;
  std::string json_path;
};

/// Strips the shared cqbounds flags (--quick, --json <path>, --json=<path>)
/// from argv before google-benchmark sees the remainder.
inline BenchOptions ParseSharedFlags(int* argc, char** argv) {
  BenchOptions opts;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--json") {
      if (i + 1 >= *argc) {
        std::cerr << "error: --json requires an output path\n";
        opts.error = true;
        break;
      }
      opts.json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = arg.substr(std::strlen("--json="));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return opts;
}

inline std::string Basename(const char* argv0) {
  std::string name = argv0 ? argv0 : "bench";
  std::size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name;
}

}  // namespace internal

/// Shared main: print the experiment table(s) via `print_tables`, run the
/// CQB_BENCH_TIMED sections (single rep under --quick, rep-adaptive
/// otherwise), then run the registered google-benchmark timers. `--quick`
/// skips only the google-benchmark loops (the tables + timed sections
/// exercise every code path end to end -- this is what the bench smoke
/// test runs); `--json out.json` dumps all printed tables and all timed
/// sections.
#define CQB_BENCH_MAIN(print_tables)                                        \
  int main(int argc, char** argv) {                                         \
    const auto cqb_opts =                                                   \
        ::cqbounds::bench::internal::ParseSharedFlags(&argc, argv);         \
    if (cqb_opts.error) return 2;                                           \
    const auto cqb_t0 = std::chrono::steady_clock::now();                   \
    print_tables();                                                         \
    const double cqb_table_seconds =                                        \
        std::chrono::duration<double>(std::chrono::steady_clock::now() -    \
                                      cqb_t0)                               \
            .count();                                                       \
    ::cqbounds::bench::RunRegisteredTimers(cqb_opts.quick);                 \
    if (!cqb_opts.json_path.empty() &&                                      \
        !::cqbounds::bench::internal::WriteTablesJson(                      \
            cqb_opts.json_path,                                             \
            ::cqbounds::bench::internal::Basename(argv[0]), cqb_opts.quick, \
            cqb_table_seconds)) {                                           \
      return 1;                                                             \
    }                                                                       \
    if (cqb_opts.quick) {                                                   \
      std::cout << "\n[--quick] skipping google-benchmark timer loops\n";   \
      return 0;                                                             \
    }                                                                       \
    ::benchmark::Initialize(&argc, argv);                                   \
    ::benchmark::RunSpecifiedBenchmarks();                                  \
    ::benchmark::Shutdown();                                                \
    return 0;                                                               \
  }

}  // namespace cqbounds::bench

#endif  // CQBOUNDS_BENCH_BENCH_UTIL_H_
