#include "harness/trace.h"

#include <chrono>
#include <fstream>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "bench.op";
    case SpanKind::kRead: return "text_io.read";
    case SpanKind::kWrite: return "text_io.write";
    case SpanKind::kParse: return "parser.parse";
    case SpanKind::kChoose: return "join_plan.choose";
    case SpanKind::kGetPlan: return "eval_context.get_plan";
    case SpanKind::kGetTrie: return "eval_context.get_trie";
    case SpanKind::kMutate: return "relation.mutate";
    case SpanKind::kReduce: return "evaluate.reduce";
    case SpanKind::kEvaluate: return "evaluate.evaluate";
  }
  return "unknown";
}

std::size_t Tracer::Open(SpanKind kind) {
  Span span;
  span.kind = kind;
  span.op = op_;
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(std::size_t index) {
  spans_[index].end_ns = NowNs();
  // Scopes close innermost first, so the span is the top of the stack.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::size_t Tracer::OpenOp(std::uint32_t op) {
  op_ = op;
  return Open(SpanKind::kOp);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << SpanName(s.kind) << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"rows\":" << s.rows
        << ",\"keys\":" << s.keys << ",\"delta_rows\":" << s.delta_rows
        << ",\"trie_hits\":" << s.trie_hits
        << ",\"trie_misses\":" << s.trie_misses
        << ",\"trie_patches\":" << s.trie_patches
        << ",\"trie_unpatches\":" << s.trie_unpatches
        << ",\"trie_rebuilds\":" << s.trie_rebuilds
        << ",\"compactions\":" << s.compactions
        << ",\"probe_runs\":" << s.probe_runs
        << ",\"bindings\":" << s.bindings << ",\"seeks\":" << s.seeks
        << ",\"output\":" << s.output
        << ",\"parallel_workers\":" << s.parallel_workers
        << ",\"cached_tries\":" << s.cached_tries
        << ",\"pass_ran\":" << (s.pass_ran ? "true" : "false")
        << ",\"delta_pass\":" << (s.delta_pass ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

/// Layer of a span kind: the prefix of its name.
std::string LayerOf(SpanKind kind) {
  const std::string name = SpanName(kind);
  return name.substr(0, name.find('.'));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sums over the spans of one kind.
struct KindTotals {
  std::uint64_t calls = 0;
  double ns = 0;
  Span sum;  // counter fields summed
};

}  // namespace

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> kNames = {
      "bench", "text_io", "parser", "join_plan",
      "eval_context", "relation", "evaluate"};
  return kNames;
}

std::map<std::string, Metric> LayerMetrics(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::map<SpanKind, KindTotals> kinds;
  std::map<std::string, double> self_ns;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  // Trie builds split by how the miss was served.
  double rebuild_ns = 0, rebuild_keys = 0;
  double maintain_ns = 0, maintain_delta_rows = 0, maintain_base_keys = 0;
  std::uint64_t fanned_out = 0, passes = 0, delta_passes = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[LayerOf(s.kind)] += ns - child_ns[i];
    KindTotals& k = kinds[s.kind];
    ++k.calls;
    k.ns += ns;
    k.sum.rows += s.rows;
    k.sum.keys += s.keys;
    k.sum.trie_hits += s.trie_hits;
    k.sum.trie_misses += s.trie_misses;
    k.sum.trie_patches += s.trie_patches;
    k.sum.trie_unpatches += s.trie_unpatches;
    k.sum.compactions += s.compactions;
    k.sum.probe_runs += s.probe_runs;
    k.sum.bindings += s.bindings;
    k.sum.seeks += s.seeks;
    k.sum.output += s.output;
    k.sum.cached_tries += s.cached_tries;
    if (s.kind == SpanKind::kGetTrie && s.trie_rebuilds > 0) {
      rebuild_ns += ns;
      rebuild_keys += static_cast<double>(s.keys);
    }
    if (s.kind == SpanKind::kGetTrie &&
        s.trie_patches + s.trie_unpatches > 0) {
      maintain_ns += ns;
      maintain_delta_rows += static_cast<double>(s.delta_rows);
      maintain_base_keys += static_cast<double>(s.keys);
    }
    if (s.kind == SpanKind::kEvaluate && s.parallel_workers > 1) ++fanned_out;
    if (s.kind == SpanKind::kReduce && s.pass_ran) {
      ++passes;
      if (s.delta_pass) ++delta_passes;
    }
  }

  const KindTotals& op = kinds[SpanKind::kOp];
  const double ops = static_cast<double>(op.calls);
  const KindTotals& read = kinds[SpanKind::kRead];
  const KindTotals& write = kinds[SpanKind::kWrite];
  const KindTotals& parse = kinds[SpanKind::kParse];
  const KindTotals& choose = kinds[SpanKind::kChoose];
  const KindTotals& get_plan = kinds[SpanKind::kGetPlan];
  const KindTotals& get_trie = kinds[SpanKind::kGetTrie];
  const KindTotals& mutate = kinds[SpanKind::kMutate];
  const KindTotals& reduce = kinds[SpanKind::kReduce];
  const KindTotals& evaluate = kinds[SpanKind::kEvaluate];

  // GetTrie calls happen in the pre-call spans and, for any layout the
  // pre-calls did not cover, inside reduce and evaluate.
  const double hits = static_cast<double>(
      get_trie.sum.trie_hits + reduce.sum.trie_hits + evaluate.sum.trie_hits);
  const double misses =
      static_cast<double>(get_trie.sum.trie_misses + reduce.sum.trie_misses +
                          evaluate.sum.trie_misses);
  const double delta_served = static_cast<double>(
      get_trie.sum.trie_patches + get_trie.sum.trie_unpatches +
      reduce.sum.trie_patches + reduce.sum.trie_unpatches +
      evaluate.sum.trie_patches + evaluate.sum.trie_unpatches);

  std::map<std::string, Metric> m;
  m["parser.parse_us"] = {Ratio(parse.ns, parse.calls) / 1e3, "us"};
  m["text_io.read_ns_per_row"] = {Ratio(read.ns, read.sum.rows), "ns/row"};
  m["text_io.write_ns_per_row"] = {Ratio(write.ns, write.sum.rows), "ns/row"};
  m["join_plan.plan_us"] = {Ratio(choose.ns, choose.calls) / 1e3, "us"};
  m["join_plan.probe_runs"] = {Ratio(choose.sum.probe_runs + get_plan.sum.probe_runs, ops), "count/op"};
  m["trie_index.build_ns_per_key"] = {Ratio(rebuild_ns, rebuild_keys), "ns/key"};
  m["trie_index.keys_built"] = {Ratio(rebuild_keys, ops), "keys/op"};
  m["relation.mutate_ns_per_row"] = {Ratio(mutate.ns, mutate.sum.rows), "ns/row"};
  m["column_store.compactions"] = {Ratio(mutate.sum.compactions, ops), "count/op"};
  m["eval_context.trie_hit_rate"] = {Ratio(hits, hits + misses), "share"};
  m["eval_context.delta_share"] = {Ratio(delta_served, misses), "share"};
  m["eval_context.maintain_ns_per_delta_row"] = {Ratio(maintain_ns, maintain_delta_rows), "ns/row"};
  m["eval_context.maintain_ns_per_base_key"] = {Ratio(maintain_ns, maintain_base_keys), "ns/key"};
  m["eval_context.cached_tries"] = {Ratio(op.sum.cached_tries, ops), "count"};
  m["evaluate.reduce_us"] = {Ratio(reduce.ns, reduce.calls) / 1e3, "us"};
  m["evaluate.semijoin_delta_share"] = {Ratio(delta_passes, passes), "share"};
  m["evaluate.enumerate_ns_per_binding"] = {Ratio(evaluate.ns, evaluate.sum.bindings), "ns/binding"};
  m["evaluate.seeks_per_binding"] = {Ratio(evaluate.sum.seeks, evaluate.sum.bindings), "seeks/binding"};
  m["evaluate.output_per_binding"] = {Ratio(evaluate.sum.output, evaluate.sum.bindings), "share"};
  m["thread_pool.fanout_share"] = {Ratio(fanned_out, evaluate.calls), "share"};
  for (const std::string& layer : LayerNames()) {
    m[layer + ".self_share"] = {Ratio(self_ns[layer], op.ns), "share"};
  }
  return m;
}

}  // namespace perfbench
