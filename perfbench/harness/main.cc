// Closed-loop, single-client benchmark harness for the cqbounds engine.
//
//   cqb_perfbench --workload <cold-file|warm-mutate|warm-read> --seed N
//                 --seconds S --trace <0|1> --workdir DIR
//   cqb_perfbench --dump-inputs DIR --seed N
//
// One client thread issues the next op as soon as the previous one returns.
// --trace 0 measures the end-to-end metrics for S seconds; --trace 1 traces
// every other op -- spans around every call into a layer -- and reports the
// per-layer metrics plus the tracing overhead (traced against untraced ops).
// The last line of standard output is one JSON object with the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/inputs.h"
#include "harness/trace.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;
/// A run keeps going past its time budget until it has this many ops (so
/// at least ten lie beyond p90), up to kHardStopFactor times the budget.
constexpr std::size_t kMinOps = 100;
constexpr double kHardStopFactor = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
  std::string dump_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--dump-inputs") {
      args->dump_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cumulative CPU time the hypervisor took from this (virtual) machine, in
/// USER_HZ ticks: the steal field of /proc/stat's "cpu" line. 0 where the
/// file is absent, which turns the steal filter below off.
std::uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  in >> label;
  for (std::uint64_t& f : fields) in >> f;
  return in ? fields[7] : 0;
}

/// One timed op.
struct Sample {
  double ms = 0;
  std::uint32_t kind = 0;  // Workload::OpKind
  bool stolen = false;     // the hypervisor stole CPU time during the op
};

/// The ops of one phase of a run, and its failures.
struct Phase {
  std::vector<Sample> ops;
  std::size_t unstolen = 0;
  std::size_t failed = 0;
};

/// (latency, weight) pairs, sorted by latency, that stand for `ops` with
/// the steal-disturbed ops dropped. On a shared virtual machine steal comes
/// in episodes that slow every op by tens of percent and say nothing about
/// the program; but long ops are disturbed more often than short ones, so
/// dropping them alone would skew the mix. Each kind of op therefore keeps
/// its share: its undisturbed ops are weighted up to its op count, and a
/// kind with no undisturbed op keeps all its ops.
std::vector<std::pair<double, double>> Weighted(const std::vector<Sample>& ops) {
  std::map<std::uint32_t, std::pair<double, double>> counts;  // all, unstolen
  for (const Sample& s : ops) {
    ++counts[s.kind].first;
    if (!s.stolen) ++counts[s.kind].second;
  }
  std::vector<std::pair<double, double>> out;
  for (const Sample& s : ops) {
    const auto [all, unstolen] = counts[s.kind];
    if (unstolen == 0) {
      out.emplace_back(s.ms, 1.0);
    } else if (!s.stolen) {
      out.emplace_back(s.ms, all / unstolen);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The smallest latency whose cumulative weight reaches q of the total.
double Quantile(const std::vector<std::pair<double, double>>& weighted,
                double q) {
  double total = 0;
  for (const auto& [ms, w] : weighted) total += w;
  double cumulative = 0;
  for (const auto& [ms, w] : weighted) {
    cumulative += w;
    if (cumulative >= q * total) return ms;
  }
  return weighted.empty() ? 0 : weighted.back().first;
}

double Mean(const std::vector<std::pair<double, double>>& weighted) {
  double sum = 0, total = 0;
  for (const auto& [ms, w] : weighted) {
    sum += ms * w;
    total += w;
  }
  return total > 0 ? sum / total : 0;
}

/// Runs ops until `seconds` have passed and at least kMinOps ran, within
/// the hard stop. With a tracer, every other op is traced: traced and
/// untraced ops then share the same stretch of time, so drift in the
/// machine's speed does not leak into the overhead estimate.
void RunLoop(Workload* workload, Tracer* tracer, double seconds, Phase* plain,
             Phase* traced) {
  const std::int64_t start = NowNs();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t hard_stop =
      static_cast<std::int64_t>(seconds * kHardStopFactor * 1e9);
  for (std::uint32_t op = 0;; ++op) {
    const std::int64_t elapsed = NowNs() - start;
    if (elapsed >= hard_stop) break;
    if (elapsed >= budget && op >= kMinOps) break;
    Tracer* op_tracer = op % 2 == 1 ? tracer : nullptr;
    Phase* phase = op_tracer != nullptr ? traced : plain;
    workload->PrepareOp(op);
    const std::uint64_t steal = StealTicks();
    const std::int64_t t0 = NowNs();
    std::size_t root = 0;
    if (op_tracer != nullptr) root = op_tracer->OpenOp(op);
    cqbounds::Status status = workload->RunOp(op, op_tracer);
    if (op_tracer != nullptr) {
      op_tracer->at(root).cached_tries = workload->CachedTries();
      op_tracer->Close(root);
    }
    const std::int64_t t1 = NowNs();
    Sample sample;
    sample.ms = static_cast<double>(t1 - t0) / 1e6;
    sample.kind = workload->OpKind(op);
    sample.stolen = StealTicks() != steal;
    if (!sample.stolen) ++phase->unstolen;
    phase->ops.push_back(sample);
    if (status.ok()) status = workload->CheckOp(op);
    if (!status.ok()) {
      if (phase->failed < 5) {
        std::cerr << "op " << op << " failed: " << status.ToString() << "\n";
      }
      ++phase->failed;
    }
  }
}

void PrintMetric(const std::string& workload, const std::string& name,
                 double value, const std::string& unit,
                 const std::string& note = "") {
  std::printf("%-12s %-42s %16.6f %-8s %s\n", workload.c_str(), name.c_str(),
              value, unit.c_str(), note.c_str());
}

int Run(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.workdir << ": " << ec.message()
              << "\n";
    return 2;
  }

  // Set-up, several times; the last instance runs the ops.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    workload = MakeWorkload(args.workload, args.seed, args.workdir);
    if (workload == nullptr) {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
    const std::int64_t t0 = NowNs();
    const cqbounds::Status status = workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!status.ok()) {
      std::cerr << "set-up failed: " << status.ToString() << "\n";
      return 2;
    }
  }
  const cqbounds::Status refs = workload->PrepareReferences();
  if (!refs.ok()) {
    std::cerr << "reference answers failed: " << refs.ToString() << "\n";
    return 2;
  }

  Phase plain, traced;
  Tracer tracer;
  RunLoop(workload.get(), args.trace ? &tracer : nullptr, args.seconds, &plain,
          &traced);
  const std::size_t attempted = plain.ops.size() + traced.ops.size();
  std::size_t failed = plain.failed + traced.failed;
  const cqbounds::Status finish = workload->Finish();
  if (!finish.ok()) {
    std::cerr << "end-of-run check failed: " << finish.ToString() << "\n";
    failed = std::min(attempted, failed + 1);
  }
  const std::string& w = args.workload;
  const auto plain_ms = Weighted(plain.ops);

  std::map<std::string, Metric> metrics;
  if (args.trace) {
    const std::string spans_path = args.workdir + "/spans-" + w + "-" +
                                   std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(spans_path)) {
      std::cerr << "cannot write " << spans_path << "\n";
      return 2;
    }
    metrics = LayerMetrics(tracer);
    const double traced_mean = Mean(Weighted(traced.ops));
    metrics["trace.overhead_share"] = {traced_mean / Mean(plain_ms) - 1.0,
                                       "share"};
    std::printf("%-12s traced %zu ops, interleaved with %zu untraced; %zu "
                "spans in %s\n",
                w.c_str(), traced.ops.size(), plain.ops.size(),
                tracer.spans().size(), spans_path.c_str());
    std::printf("%-12s self time by layer, per traced op (mean %.3f ms):\n",
                w.c_str(), traced_mean);
    for (const std::string& layer : LayerNames()) {
      const double share = metrics[layer + ".self_share"].value;
      std::printf("%-12s   %-14s %6.2f%% %10.3f ms\n", w.c_str(),
                  layer.c_str(), 100.0 * share, share * traced_mean);
    }
  } else {
    metrics["op_ms_p50"] = {Quantile(plain_ms, 0.5), "ms"};
    metrics["op_ms_p90"] = {Quantile(plain_ms, 0.9), "ms"};
    metrics["ops_per_s"] = {1e3 / Mean(plain_ms), "1/s"};
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  const std::string samples = "n=" + std::to_string(plain.unstolen) + " of " +
                              std::to_string(plain.ops.size()) +
                              " ops undisturbed by steal";
  for (const auto& [name, entry] : metrics) {
    PrintMetric(w, name, entry.value, entry.unit,
                name.rfind("op_ms_", 0) == 0 ? samples : "");
  }
  PrintMetric(w, "failed_ops_share",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "share",
              std::to_string(failed) + " of " + std::to_string(attempted));

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, entry] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), entry.value, entry.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: cqb_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] | --dump-inputs DIR --seed N\n";
    return 2;
  }
  if (!args.dump_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.dump_dir, ec);
    return perfbench::DumpInputs(args.seed, args.dump_dir) ? 0 : 1;
  }
  return perfbench::Run(args);
}
