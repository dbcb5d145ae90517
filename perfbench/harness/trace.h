#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// One call into a layer's public function, as the benchmark sees it from
/// outside the engine. The layer is the prefix of the span's name.
enum class SpanKind : std::uint8_t {
  kOp,        // bench: one whole op; the root of that op's spans
  kRead,      // text_io: ReadDatabaseText
  kWrite,     // text_io: WriteDatabaseText of the answer
  kParse,     // parser: ParseQuery
  kChoose,    // join_plan: ChooseGenericJoinOrder
  kGetPlan,   // eval_context: EvalContext::GetPlan
  kGetTrie,   // eval_context: EvalContext::GetTrie
  kMutate,    // relation: one relation's InsertBatch plus its Removes
  kReduce,    // evaluate: the hybrid's semi-join pass, run through a
              //   boolean-head EvaluateQuery that shares the plan entry
  kEvaluate,  // evaluate: EvaluateQuery
};

const char* SpanName(SpanKind kind);

/// A span with the counters read at its boundaries. Counter fields are
/// deltas across the call; fields a span kind does not use stay zero.
struct Span {
  SpanKind kind = SpanKind::kOp;
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t rows = 0;        // rows read, written or mutated
  std::uint64_t keys = 0;        // keys of the trie a get_trie served
  std::uint64_t delta_rows = 0;  // delta rows merged by a patch or unpatch
  std::uint64_t trie_hits = 0;   // EvalContext::hits() delta
  std::uint64_t trie_misses = 0;
  std::uint64_t trie_patches = 0;
  std::uint64_t trie_unpatches = 0;
  std::uint64_t trie_rebuilds = 0;
  std::uint64_t compactions = 0;
  std::uint64_t probe_runs = 0;
  std::uint64_t bindings = 0;  // EvalStats::total_intermediate
  std::uint64_t seeks = 0;
  std::uint64_t output = 0;
  std::uint64_t parallel_workers = 0;
  std::uint64_t cached_tries = 0;  // op spans: EvalContext::size() at op end
  bool pass_ran = false;
  bool delta_pass = false;
};

/// In-memory span recorder. Spans nest: a span opened while another is open
/// becomes its child. Nothing is written until WriteJsonLines.
class Tracer {
 public:
  std::size_t Open(SpanKind kind);
  void Close(std::size_t index);
  Span& at(std::size_t index) { return spans_[index]; }

  /// Starts op `op`: every span opened until the matching Close belongs to
  /// it.
  std::size_t OpenOp(std::uint32_t op);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t op_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), index_(tracer ? tracer->Open(kind) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  explicit operator bool() const { return tracer_ != nullptr; }
  /// The open span. Re-fetch after opening a child: the span vector may
  /// have grown.
  Span* get() { return &tracer_->at(index_); }
  Span* operator->() { return get(); }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// A measured value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// The per-layer metrics of one traced run, by name (see README.md).
std::map<std::string, Metric> LayerMetrics(const Tracer& tracer);

/// Names of the layers whose self-time shares LayerMetrics reports.
const std::vector<std::string>& LayerNames();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
