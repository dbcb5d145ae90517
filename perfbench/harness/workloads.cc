#include "harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "harness/inputs.h"
#include "relation/database.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/text_io.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace perfbench {

using cqbounds::Atom;
using cqbounds::Database;
using cqbounds::EvalContext;
using cqbounds::EvalStats;
using cqbounds::PlanKind;
using cqbounds::Query;
using cqbounds::Relation;
using cqbounds::Result;
using cqbounds::Status;
using cqbounds::ThreadPool;

namespace {

// ---- answers ---------------------------------------------------------------

/// Size plus an order-independent hash of a relation's live tuples.
struct Digest {
  std::size_t rows = 0;
  std::uint64_t hash = 0;

  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  std::string ToString() const {
    return std::to_string(rows) + " rows, hash " + std::to_string(hash);
  }
};

std::uint64_t Mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Digest DigestOf(const Relation& rel) {
  Digest d;
  const cqbounds::ColumnStore& store = rel.store();
  for (std::size_t row = 0; row < store.size(); ++row) {
    if (!store.IsLive(row)) continue;
    std::uint64_t h = 1469598103934665603ull;
    for (int c = 0; c < rel.arity(); ++c) {
      h = Mix(h ^ static_cast<std::uint64_t>(store.ValueAt(row, c)));
    }
    d.hash += Mix(h);
    ++d.rows;
  }
  return d;
}

/// A query of a mix, parsed once.
struct PreparedQuery {
  QuerySpec spec;
  Query query;
  /// rho*: the AGM envelope exponent of the full join.
  double rho = 0;
  Digest reference;
};

Status Prepare(const QuerySpec& spec, PreparedQuery* out) {
  auto query = cqbounds::ParseQuery(spec.text);
  if (!query.ok()) return query.status();
  auto order = cqbounds::ChooseGenericJoinOrder(*query);
  if (!order.ok()) return order.status();
  out->spec = spec;
  out->query = query.MoveValueOrDie();
  out->rho = order->envelope_exponent.ToDouble();
  if (spec.use_recommended) out->spec.plan = order->recommended_plan;
  return Status::OK();
}

/// The oracle's answer for `spec`, computed without a context by its
/// reference plan.
Result<Digest> ReferenceDigest(const PreparedQuery& q, const Database& db) {
  Result<Relation> answer = Status::Internal("no reference plan");
  if (q.spec.reference == ReferencePlan::kJoinProject) {
    answer = cqbounds::EvaluateQuery(q.query, db, PlanKind::kJoinProject);
  } else {
    std::vector<int> order = cqbounds::DefaultGenericJoinOrder(q.query);
    std::reverse(order.begin(), order.end());
    answer = cqbounds::EvaluateGenericJoin(q.query, db, order);
  }
  if (!answer.ok()) return answer.status();
  return DigestOf(*answer);
}

/// One evaluation of an op, kept for the untimed check.
struct Evaluated {
  const PreparedQuery* query = nullptr;
  Relation answer;
  EvalStats stats;
  /// rmax^{rho*} over the database the op evaluated.
  double envelope = 0;
};

Status CheckEnvelope(const Evaluated& e) {
  if (static_cast<double>(e.stats.max_intermediate) >
      e.envelope * (1 + 1e-9) + 0.5) {
    return Status::Internal(
        e.query->spec.name + ": intermediate " +
        std::to_string(e.stats.max_intermediate) +
        " exceeds the AGM envelope " + std::to_string(e.envelope));
  }
  return Status::OK();
}

Result<double> Envelope(const Query& query, const Database& db, double rho) {
  auto rmax = db.RMax(query);
  if (!rmax.ok()) return rmax.status();
  return std::pow(static_cast<double>(*rmax), rho);
}

Status CheckReference(const Evaluated& e, const Digest& reference) {
  const Digest got = DigestOf(e.answer);
  if (got == reference) return Status::OK();
  return Status::Internal(e.query->spec.name + ": answer " + got.ToString() +
                          ", reference " + reference.ToString());
}

Status Load(const std::vector<FlatRelation>& relations, Database* db) {
  for (const FlatRelation& rel : relations) {
    Relation* r = db->AddRelation(rel.name, rel.arity);
    if (r == nullptr) return Status::Internal("duplicate relation " + rel.name);
    r->InsertFlat(rel.values, rel.rows());
  }
  return Status::OK();
}

// ---- traced evaluation -----------------------------------------------------

/// An atom's trie layout under a variable order, as the generic-join
/// executor derives it: the atom's distinct variables by rank, each with
/// every position it occupies.
std::vector<std::vector<int>> LevelPositions(const Atom& atom,
                                             const std::vector<int>& rank) {
  std::map<int, std::vector<int>> by_rank;
  for (std::size_t p = 0; p < atom.vars.size(); ++p) {
    by_rank[rank[atom.vars[p]]].push_back(static_cast<int>(p));
  }
  std::vector<std::vector<int>> levels;
  for (auto& [r, positions] : by_rank) levels.push_back(std::move(positions));
  return levels;
}

/// Context counters, read at span boundaries.
struct ContextCounters {
  std::size_t hits, misses, patches, unpatches, rebuilds;
  explicit ContextCounters(const EvalContext& ctx)
      : hits(ctx.hits()),
        misses(ctx.misses()),
        patches(ctx.patches()),
        unpatches(ctx.unpatches()),
        rebuilds(ctx.rebuilds()) {}
  void StoreDelta(const EvalContext& ctx, Span* span) const {
    span->trie_hits = ctx.hits() - hits;
    span->trie_misses = ctx.misses() - misses;
    span->trie_patches = ctx.patches() - patches;
    span->trie_unpatches = ctx.unpatches() - unpatches;
    span->trie_rebuilds = ctx.rebuilds() - rebuilds;
  }
};

/// EvaluateQuery through `ctx`. Untraced, that is the whole call. Traced,
/// the work EvaluateQuery would do internally is first pulled out into
/// spans of its own, through public calls that leave the evaluation itself
/// with nothing else to do:
///  - hybrid: EvalContext::GetPlan; then the semi-join pass, run by a
///    boolean-head copy of the query that shares the plan entry (the plan
///    tier keys on the body only), so the real evaluation finds the pass
///    current and only enumerates;
///  - EvalContext::GetTrie for every atom the evaluation will read from the
///    trie tier, with the layout the executor derives from its order.
/// The evaluate span then must not miss the trie tier; if it does, index
/// time would be charged to enumeration, and the op fails.
Result<Relation> Evaluate(const Query& query, PlanKind plan,
                          const Database& db, EvalContext* ctx,
                          ThreadPool* pool, Tracer* tracer, EvalStats* stats) {
  if (tracer == nullptr) {
    return cqbounds::EvaluateQuery(query, db, plan, ctx, pool, stats);
  }
  const std::size_t m = query.atoms().size();
  std::vector<int> order;
  std::vector<bool> from_trie_tier(m, true);
  bool reduce = false;
  if (plan == PlanKind::kHybridYannakakis) {
    EvalContext::CachedPlan* cached;
    {
      SpanScope span(tracer, SpanKind::kGetPlan);
      EvalStats st;
      cached = &ctx->GetPlan(query, &st);
      span->probe_runs = st.treewidth_probe_runs;
    }
    if (cached->probe.low_width) {
      order = cached->probe.order;
      reduce = true;
      // Atoms that lost tuples in the current semi-join state read their
      // survivor views, not the trie tier. Without a state yet, the pass
      // decides; the workloads' hybrid atoms always keep dangling tuples.
      cqbounds::MutexLock lock(cached->skip_mu);
      const EvalContext::SemijoinState* state = cached->semijoin.get();
      const bool known = state != nullptr && state->all_survive.size() == m;
      for (std::size_t i = 0; i < m; ++i) {
        from_trie_tier[i] = known && state->all_survive[i];
      }
    }
  }
  if (order.empty()) order = cqbounds::DefaultGenericJoinOrder(query);
  std::vector<int> rank(static_cast<std::size_t>(query.num_variables()), -1);
  for (std::size_t d = 0; d < order.size(); ++d) {
    rank[static_cast<std::size_t>(order[d])] = static_cast<int>(d);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const Atom& atom = query.atoms()[i];
    const Relation* rel = db.Find(atom.relation);
    if (!from_trie_tier[i] || rel == nullptr) continue;
    SpanScope span(tracer, SpanKind::kGetTrie);
    EvalStats st;
    auto trie = ctx->GetTrie(*rel, LevelPositions(atom, rank), &st);
    span->keys = trie->num_tuples();
    span->trie_hits = st.trie_cache_hits;
    span->trie_misses = st.trie_cache_misses;
    span->trie_patches = st.trie_patches;
    span->trie_unpatches = st.trie_unpatches;
    span->trie_rebuilds = st.trie_rebuilds;
    span->delta_rows = st.delta_tuples_processed;
  }
  if (reduce) {
    Query boolean_query = query;
    boolean_query.SetHead(query.head_relation(), {});
    SpanScope span(tracer, SpanKind::kReduce);
    const ContextCounters before(*ctx);
    EvalStats st;
    auto r = cqbounds::EvaluateQuery(boolean_query, db, plan, ctx, nullptr, &st);
    if (!r.ok()) return r.status();
    before.StoreDelta(*ctx, span.get());
    span->pass_ran = st.semijoin_pass_ran;
    span->delta_pass = st.semijoin_delta_pass;
  }
  SpanScope span(tracer, SpanKind::kEvaluate);
  const ContextCounters before(*ctx);
  auto result = cqbounds::EvaluateQuery(query, db, plan, ctx, pool, stats);
  before.StoreDelta(*ctx, span.get());
  span->bindings = stats->total_intermediate;
  span->seeks = stats->intersection_seeks;
  span->output = stats->output_size;
  span->parallel_workers = stats->parallel_workers;
  if (result.ok() && span->trie_misses > 0) {
    return Status::Internal(
        "traced evaluate span missed the trie tier: the pre-calls did not "
        "cover the executor's layouts");
  }
  return result;
}

// ---- cold-file -------------------------------------------------------------

/// Each op: ReadDatabaseText on one of three generated files, ParseQuery,
/// ChooseGenericJoinOrder on a fresh context, EvaluateQuery with the
/// recommended plan, WriteDatabaseText of the answer.
class ColdFileWorkload : public Workload {
 public:
  ColdFileWorkload(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  Status Setup() override {
    const std::vector<ColdFileCase> cases = ColdFileInputs(seed_);
    for (const ColdFileCase& c : cases) {
      Case entry;
      entry.text = c.query.text;
      entry.path = workdir_ + "/cold-" + std::to_string(seed_) + "-" +
                   c.file_name;
      std::ofstream out(entry.path, std::ios::binary);
      out << c.text;
      out.close();
      if (!out) return Status::Internal("cannot write " + entry.path);
      CQB_RETURN_NOT_OK(Prepare(c.query, &entry.prepared));
      cases_.push_back(std::move(entry));
    }
    // Warm-up: one op per file (page cache, allocator).
    for (std::uint32_t i = 0; i < cases_.size(); ++i) {
      CQB_RETURN_NOT_OK(RunOp(i, nullptr));
    }
    return Status::OK();
  }

  Status PrepareReferences() override {
    for (Case& c : cases_) {
      Database db;
      std::ifstream in(c.path, std::ios::binary);
      CQB_RETURN_NOT_OK(cqbounds::ReadDatabaseText(in, &db));
      auto digest = ReferenceDigest(c.prepared, db);
      if (!digest.ok()) return digest.status();
      c.prepared.reference = *digest;
    }
    return Status::OK();
  }

  Status RunOp(std::uint32_t op, Tracer* tracer) override {
    const Case& c = cases_[op % cases_.size()];
    Database db;
    {
      SpanScope span(tracer, SpanKind::kRead);
      std::ifstream in(c.path, std::ios::binary);
      CQB_RETURN_NOT_OK(cqbounds::ReadDatabaseText(in, &db));
      if (span) {
        for (const auto& [name, rel] : db.relations()) span->rows += rel.size();
      }
    }
    Query query;
    {
      SpanScope span(tracer, SpanKind::kParse);
      auto parsed = cqbounds::ParseQuery(c.text);
      if (!parsed.ok()) return parsed.status();
      query = parsed.MoveValueOrDie();
    }
    EvalContext ctx(db);
    cqbounds::GenericJoinOrder plan;
    {
      SpanScope span(tracer, SpanKind::kChoose);
      const std::size_t plan_misses = ctx.plan_misses();
      auto chosen = cqbounds::ChooseGenericJoinOrder(query, &ctx);
      if (!chosen.ok()) return chosen.status();
      plan = chosen.MoveValueOrDie();
      if (span && ctx.plan_misses() > plan_misses &&
          ctx.GetPlan(query, nullptr).probe.probe_ran) {
        span->probe_runs = 1;
      }
    }
    last_.query = &c.prepared;
    auto answer = Evaluate(query, plan.recommended_plan, db, &ctx, nullptr,
                           tracer, &last_.stats);
    if (!answer.ok()) return answer.status();
    last_.answer = answer.MoveValueOrDie();
    auto envelope = Envelope(query, db, plan.envelope_exponent.ToDouble());
    if (!envelope.ok()) return envelope.status();
    last_.envelope = *envelope;
    {
      SpanScope span(tracer, SpanKind::kWrite);
      CQB_RETURN_NOT_OK(WriteAnswer(db, query, last_.answer));
      if (span) span->rows = last_.answer.size();
    }
    cached_tries_ = ctx.size();
    return Status::OK();
  }

  Status CheckOp(std::uint32_t op) override {
    CQB_RETURN_NOT_OK(CheckEnvelope(last_));
    // The written answer must read back as the same number of tuples.
    Database back;
    CQB_RETURN_NOT_OK(cqbounds::ReadDatabaseTextFromString(written_, &back));
    const Relation* rel = back.Find(last_.query->query.head_relation());
    if (rel == nullptr || rel->size() != last_.answer.size()) {
      return Status::Internal(last_.query->spec.name +
                              ": the written answer does not read back");
    }
    return CheckReference(last_,
                          cases_[op % cases_.size()].prepared.reference);
  }

  std::size_t CachedTries() const override { return cached_tries_; }

  std::uint32_t OpKind(std::uint32_t op) const override {
    return op % static_cast<std::uint32_t>(cases_.size());
  }

 private:
  struct Case {
    std::string text;  // the query
    std::string path;  // the database file
    PreparedQuery prepared;
  };

  /// Renders the answer as a one-relation text database. The answer's
  /// values are ids in `db`'s pool; the output database interns their
  /// spellings in its own.
  Status WriteAnswer(const Database& db, const Query& query,
                     const Relation& answer) {
    Database out;
    Relation* rel = out.AddRelation(query.head_relation(), answer.arity());
    std::unordered_map<Value, Value> ids;
    std::vector<Value> flat;
    flat.reserve(answer.size() * static_cast<std::size_t>(answer.arity()));
    const cqbounds::ColumnStore& store = answer.store();
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row)) continue;
      for (int col = 0; col < answer.arity(); ++col) {
        const Value v = store.ValueAt(row, col);
        auto it = ids.find(v);
        if (it == ids.end()) {
          it = ids.emplace(v, out.value_pool()->Intern(
                                  db.value_pool().Spelling(v)))
                   .first;
        }
        flat.push_back(it->second);
      }
    }
    rel->InsertFlat(flat, answer.size());
    std::ostringstream text;
    CQB_RETURN_NOT_OK(cqbounds::WriteDatabaseText(out, text));
    written_ = text.str();
    return Status::OK();
  }

  std::uint64_t seed_;
  std::string workdir_;
  std::vector<Case> cases_;
  Evaluated last_;
  std::size_t cached_tries_ = 0;
  std::string written_;  // the last answer, as text
};

// ---- warm-mutate -----------------------------------------------------------

/// Every this many ops, and at the end, the answers are checked against a
/// from-scratch context.
constexpr std::uint32_t kMutateCheckEvery = 16;

/// One long-lived context. Each op applies one seeded mutation batch and
/// re-evaluates the key join (generic join) and the hot chain (hybrid).
class WarmMutateWorkload : public Workload {
 public:
  explicit WarmMutateWorkload(std::uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    const std::vector<FlatRelation> base = WarmMutateBase(seed_);
    CQB_RETURN_NOT_OK(Load(base, &db_));
    ctx_ = std::make_unique<EvalContext>(db_);
    for (const QuerySpec& spec : WarmMutateQueries()) {
      queries_.emplace_back();
      CQB_RETURN_NOT_OK(Prepare(spec, &queries_.back()));
    }
    script_ = std::make_unique<MutationScript>(seed_, base);
    last_.resize(queries_.size());
    return EvaluateAll(nullptr);
  }

  // References are taken during the run, from fresh contexts.
  Status PrepareReferences() override { return Status::OK(); }

  void PrepareOp(std::uint32_t /*op*/) override { batch_ = script_->Next(); }

  Status RunOp(std::uint32_t /*op*/, Tracer* tracer) override {
    compacted_ = false;
    for (const RelationDelta& change : batch_.changes) {
      Relation* rel = db_.FindMutable(change.relation);
      if (rel == nullptr) return Status::NotFound(change.relation);
      SpanScope span(tracer, SpanKind::kMutate);
      const std::uint64_t compactions = rel->compactions();
      for (const Tuple& t : change.removes) {
        if (!rel->Remove(t)) {
          return Status::Internal("script removed an absent tuple from " +
                                  change.relation);
        }
      }
      if (rel->InsertBatch(change.inserts) != change.inserts.size()) {
        return Status::Internal("script inserted a live tuple into " +
                                change.relation);
      }
      if (rel->compactions() != compactions) compacted_ = true;
      if (span) {
        span->rows = change.removes.size() + change.inserts.size();
        span->compactions = rel->compactions() - compactions;
      }
    }
    return EvaluateAll(tracer);
  }

  // A compaction forces rebuilds and a full re-reduce: its own kind.
  std::uint32_t OpKind(std::uint32_t /*op*/) const override {
    return static_cast<std::uint32_t>(batch_.delta) * 2 + (compacted_ ? 1 : 0);
  }

  Status CheckOp(std::uint32_t op) override {
    for (const Evaluated& e : last_) CQB_RETURN_NOT_OK(CheckEnvelope(e));
    if (op % kMutateCheckEvery != 0) return Status::OK();
    return CheckAgainstFreshContext();
  }

  Status Finish() override { return CheckAgainstFreshContext(); }

  std::size_t CachedTries() const override { return ctx_->size(); }

 private:
  Status EvaluateAll(Tracer* tracer) {
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const PreparedQuery& q = queries_[i];
      Evaluated& e = last_[i];
      e.query = &q;
      auto answer = Evaluate(q.query, q.spec.plan, db_, ctx_.get(), nullptr,
                             tracer, &e.stats);
      if (!answer.ok()) return answer.status();
      e.answer = answer.MoveValueOrDie();
      auto envelope = Envelope(q.query, db_, q.rho);
      if (!envelope.ok()) return envelope.status();
      e.envelope = *envelope;
    }
    return Status::OK();
  }

  Status CheckAgainstFreshContext() {
    for (const Evaluated& e : last_) {
      auto reference = ReferenceDigest(*e.query, db_);
      if (!reference.ok()) return reference.status();
      CQB_RETURN_NOT_OK(CheckReference(e, *reference));
    }
    return Status::OK();
  }

  std::uint64_t seed_;
  Database db_;
  std::unique_ptr<EvalContext> ctx_;
  std::vector<PreparedQuery> queries_;
  std::unique_ptr<MutationScript> script_;
  MutationBatch batch_;
  bool compacted_ = false;  // the last op's batch compacted a relation
  std::vector<Evaluated> last_;
};

// ---- warm-read -------------------------------------------------------------

/// One warm context, no mutations; each op evaluates the next query of the
/// read mix through the context and a pool of nproc - 1 workers.
class WarmReadWorkload : public Workload {
 public:
  explicit WarmReadWorkload(std::uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    CQB_RETURN_NOT_OK(Load(WarmReadBase(seed_), &db_));
    ctx_ = std::make_unique<EvalContext>(db_);
    const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
    pool_ = std::make_unique<ThreadPool>(static_cast<int>(cores) - 1);
    std::map<std::string, std::size_t> by_name;
    for (const QuerySpec& spec : WarmReadQueries()) {
      auto [it, fresh] = by_name.emplace(spec.name, queries_.size());
      if (fresh) {
        queries_.emplace_back();
        CQB_RETURN_NOT_OK(Prepare(spec, &queries_.back()));
      }
      mix_.push_back(it->second);
    }
    // Warm-up: every query once, so every trie and plan is cached.
    for (std::uint32_t i = 0; i < queries_.size(); ++i) {
      CQB_RETURN_NOT_OK(EvaluateQueryAt(i, nullptr));
    }
    return Status::OK();
  }

  Status PrepareReferences() override {
    for (PreparedQuery& q : queries_) {
      auto digest = ReferenceDigest(q, db_);
      if (!digest.ok()) return digest.status();
      q.reference = *digest;
    }
    return Status::OK();
  }

  Status RunOp(std::uint32_t op, Tracer* tracer) override {
    return EvaluateQueryAt(mix_[op % mix_.size()], tracer);
  }

  Status CheckOp(std::uint32_t /*op*/) override {
    CQB_RETURN_NOT_OK(CheckEnvelope(last_));
    return CheckReference(last_, last_.query->reference);
  }

  std::size_t CachedTries() const override { return ctx_->size(); }

  std::uint32_t OpKind(std::uint32_t op) const override {
    return static_cast<std::uint32_t>(mix_[op % mix_.size()]);
  }

 private:
  Status EvaluateQueryAt(std::size_t index, Tracer* tracer) {
    const PreparedQuery& q = queries_[index];
    last_.query = &q;
    auto answer = Evaluate(q.query, q.spec.plan, db_, ctx_.get(), pool_.get(),
                           tracer, &last_.stats);
    if (!answer.ok()) return answer.status();
    last_.answer = answer.MoveValueOrDie();
    auto envelope = Envelope(q.query, db_, q.rho);
    if (!envelope.ok()) return envelope.status();
    last_.envelope = *envelope;
    return Status::OK();
  }

  std::uint64_t seed_;
  Database db_;
  std::unique_ptr<EvalContext> ctx_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<PreparedQuery> queries_;
  std::vector<std::size_t> mix_;
  Evaluated last_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& workdir) {
  if (name == "cold-file") {
    return std::make_unique<ColdFileWorkload>(seed, workdir);
  }
  if (name == "warm-mutate") return std::make_unique<WarmMutateWorkload>(seed);
  if (name == "warm-read") return std::make_unique<WarmReadWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
