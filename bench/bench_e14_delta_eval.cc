// E14 -- incremental delta evaluation: append-then-re-evaluate on a warm
// context vs rebuilding from scratch.
//
// E11/E12 made repeated evaluation of an *unchanged* database cheap; this
// experiment measures the mutating workload: a warm 10^4-tuple instance
// takes k appended tuples (k = 1, 10, 100) and re-evaluates. The delta
// machinery must serve every refresh by *patching* the stale cached tries
// (merging the k-tuple sorted delta into the cached key stream) and, on
// the hybrid path, by extending the cached clean semi-join state in
// O(k) -- never by re-sorting the whole relation or re-scanning the
// database. The headline invariant is asserted in-bench: after a
// single-tuple append on the warm instance, trie_rebuilds == 0 and
// trie_patches >= 1. A Remove is the contrast row: the append floor
// moves so the pure patch path is out, but the removal tombstones and the
// refresh is an *unpatch* (subtract the removed keys' support), still not
// a rebuild. E16 (bench_e16_deletion_delta.cc) measures the removal
// workload in depth.
//
// The tables are deterministic (appended edges connect fresh isolated
// vertices, or a fresh vertex to a fixed hub, so output counts are exact);
// wall times live in the timed sections, pairing each patched re-eval with
// its from-scratch contrast.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"

namespace cqbounds {
namespace {

Query TriangleQuery() {
  return ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).").ValueOrDie();
}

Query ChainQuery() {
  return ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).").ValueOrDie();
}

/// A symmetric circulant graph (as in E13): every vertex adjacent to its
/// neighbours at offsets 1, 2, 3 in both directions -- 6n edge tuples.
/// n = 1667 gives the 10^4-tuple warm instance.
constexpr int kCycleN = 1667;

void FillChordedCycle(Relation* e, int n) {
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3; ++d) {
      e->Insert({i, (i + d) % n});
      e->Insert({(i + d) % n, i});
    }
  }
}

Database TriangleDb() {
  Database db;
  FillChordedCycle(db.AddRelation("E", 2), kCycleN);
  return db;
}

/// Chain instance: R and S each hold the same 10^4-edge cycle, so the cold
/// semi-join pass is *clean* (every Y value appears on both sides) -- the
/// precondition for delta extension.
Database ChainDb() {
  Database db;
  FillChordedCycle(db.AddRelation("R", 2), kCycleN);
  FillChordedCycle(db.AddRelation("S", 2), kCycleN);
  return db;
}

/// Fresh vertex ids far outside the cycle, never repeated: each appended
/// tuple is genuinely new (bumps the generation) and, when both endpoints
/// are fresh, closes no triangle and joins nothing.
Value FreshVertex() {
  static Value next = 1000000;
  return next++;
}

// Timed-section fixtures (built before the timers run, E13-style).
Query& TriQ() {
  static Query q = TriangleQuery();
  return q;
}
Database& TriDb() {
  static Database db = TriangleDb();
  return db;
}
EvalContext& TriCtx() {
  static EvalContext ctx(TriDb());
  return ctx;
}
Query& ChainQ() {
  static Query q = ChainQuery();
  return q;
}
Database& ChDb() {
  static Database db = ChainDb();
  return db;
}
EvalContext& ChCtx() {
  static EvalContext ctx(ChDb());
  return ctx;
}

void PrepareTimerFixtures() {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx())
      .ValueOrDie();
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &ChCtx())
      .ValueOrDie();
}

void PrintTables() {
  std::cout << "E14: incremental delta evaluation -- append-then-re-evaluate "
               "on a warm context\n\n";

  // --- Generic join: patch vs rebuild on the trie tier -------------------
  std::cout << "Trie-tier refresh after k appended tuples (triangles on the "
               "10^4-edge\nchorded cycle, one warm context throughout; "
               "appended edges connect fresh\nisolated vertices, so the "
               "output is invariant):\n";
  bench::Table trie_table({"step", "trie patches", "trie unpatches",
                           "trie rebuilds", "delta tuples", "indexed tuples",
                           "output"});
  {
    Query q = TriangleQuery();
    Database db = TriangleDb();
    EvalContext ctx(db);
    Relation* e = db.FindMutable("E");
    std::size_t base_output = 0;
    Tuple removable;
    auto row = [&](const char* step, const EvalStats& stats) {
      trie_table.AddRow({step, bench::Num(stats.trie_patches),
                         bench::Num(stats.trie_unpatches),
                         bench::Num(stats.trie_rebuilds),
                         bench::Num(stats.delta_tuples_processed),
                         bench::Num(stats.indexed_tuples),
                         bench::Num(stats.output_size)});
    };

    EvalStats stats;
    EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                  &stats).ValueOrDie();
    CQB_CHECK(stats.trie_rebuilds >= 1 && stats.trie_patches == 0);
    base_output = stats.output_size;
    row("cold build", stats);

    for (int k : {1, 10, 100}) {
      for (int i = 0; i < k; ++i) {
        removable = Tuple{FreshVertex(), FreshVertex()};
        CQB_CHECK(e->Insert(removable));
      }
      EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                    &stats).ValueOrDie();
      // The experiment's headline invariant, asserted where it is measured:
      // an appends-only refresh of a warm 10^4-tuple instance patches, it
      // never rebuilds.
      CQB_CHECK(stats.trie_rebuilds == 0);
      CQB_CHECK(stats.trie_patches >= 1);
      CQB_CHECK(stats.delta_tuples_processed >=
                static_cast<std::size_t>(k));
      CQB_CHECK(stats.output_size == base_output);
      row(k == 1 ? "append 1" : (k == 10 ? "append 10" : "append 100"),
          stats);
    }

    // Removal contrast: one Remove moves the append floor so the pure
    // patch path is off the table, but the tombstone journal names the
    // removed row -- the refresh is an *unpatch* (subtracting the removed
    // keys' support from the cached tries), still never a rebuild.
    CQB_CHECK(e->Remove(removable));
    CQB_CHECK(e->compactions() == 0);
    EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                  &stats).ValueOrDie();
    CQB_CHECK(stats.trie_patches == 0);
    CQB_CHECK(stats.trie_unpatches >= 1);
    CQB_CHECK(stats.trie_rebuilds == 0);
    row("remove 1 (unpatch)", stats);
  }
  trie_table.Print();

  std::cout << "\nShape check: the append rows refresh every stale layout "
               "by patching\n(rebuilds stay 0) and touch k delta tuples per "
               "patched layout; the\nremove row tombstones and is served "
               "by the unpatch path -- rebuilds\nstay 0 there too. Output "
               "is constant down the table -- fresh-vertex\nedges close no "
               "triangle.\n\n";

  // --- Hybrid: delta semi-join pass over the cached clean state ----------
  std::cout << "Hybrid delta pass (R join S, each the 10^4-edge cycle; "
               "appends attach a\nfresh vertex to hub 0, each joining the "
               "hub's 6 neighbours):\n";
  bench::Table hybrid_table({"step", "pass", "dropped", "survivor hits",
                             "trie patches", "trie rebuilds", "delta tuples",
                             "output"});
  {
    Query q = ChainQuery();
    Database db = ChainDb();
    EvalContext ctx(db);
    Relation* r = db.FindMutable("R");
    auto row = [&](const char* step, const char* pass,
                   const EvalStats& stats) {
      hybrid_table.AddRow({step, pass,
                           bench::Num(stats.semijoin_dropped_tuples),
                           bench::Num(stats.survivor_view_hits),
                           bench::Num(stats.trie_patches),
                           bench::Num(stats.trie_rebuilds),
                           bench::Num(stats.delta_tuples_processed),
                           bench::Num(stats.output_size)});
    };

    EvalStats stats;
    EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
        .ValueOrDie();
    // Clean cold pass: nothing drops, so the cached state is delta-ready.
    CQB_CHECK(stats.semijoin_pass_ran &&
              stats.semijoin_dropped_tuples == 0);
    const std::size_t base_output = stats.output_size;
    row("cold full pass", "full", stats);

    std::size_t appended_total = 0;
    for (int k : {1, 10, 100}) {
      for (int i = 0; i < k; ++i) CQB_CHECK(r->Insert({FreshVertex(), 0}));
      appended_total += static_cast<std::size_t>(k);
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
          .ValueOrDie();
      // Appends onto a clean state: the pass runs as an O(k) delta
      // extension (it ran, dropped nothing, stayed clean) and the stale
      // tries are patched, not rebuilt.
      CQB_CHECK(stats.semijoin_pass_ran && !stats.semijoin_pass_skipped);
      CQB_CHECK(stats.semijoin_dropped_tuples == 0);
      CQB_CHECK(stats.trie_rebuilds == 0);
      CQB_CHECK(stats.trie_patches >= 1);
      CQB_CHECK(stats.output_size == base_output + 6 * appended_total);
      row(k == 1 ? "append 1 to R" :
          (k == 10 ? "append 10 to R" : "append 100 to R"),
          "delta", stats);
    }

    // Unchanged generation vector: the pass is skipped outright.
    EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
        .ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_skipped && !stats.semijoin_pass_ran);
    row("re-evaluate", "skip", stats);

    // A dangling append (both endpoints fresh) is dropped by the delta
    // pass: the state goes dirty and R gets a survivor view ...
    CQB_CHECK(r->Insert({FreshVertex(), FreshVertex()}));
    EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
        .ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_ran);
    CQB_CHECK(stats.semijoin_dropped_tuples == 1);
    CQB_CHECK(stats.output_size == base_output + 6 * appended_total);
    row("append 1 dangling", "delta", stats);

    // ... which the next unchanged evaluation reuses from the cache.
    EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
        .ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_skipped);
    CQB_CHECK(stats.survivor_view_hits >= 1);
    row("re-evaluate", "skip", stats);
  }
  hybrid_table.Print();

  std::cout << "\nShape check: every append row keeps dropped at 0 and "
               "rebuilds at 0 --\nthe delta pass filters only the k new "
               "tuples against the cached per-step\nkey sets, and each "
               "append joins hub 0's six neighbours (output grows by\n6k). "
               "The dangling append is dropped by the same delta filter; "
               "the final\nre-evaluation serves its survivor view from the "
               "generation-keyed cache\n(survivor hits > 0) without running "
               "any pass at all.\n\n";

  PrepareTimerFixtures();
}

// Warm append-then-re-evaluate: each iteration appends one fresh isolated
// edge and re-evaluates through the warm context -- the patch path.
CQB_BENCH_TIMED("triangle10k/append1+patch", [] {
  TriDb().FindMutable("E")->Insert({FreshVertex(), FreshVertex()});
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx())
      .ValueOrDie();
})

// From-scratch contrast: the same append, evaluated through a cold context
// (every trie rebuilt).
CQB_BENCH_TIMED("triangle10k/append1+rebuild", [] {
  TriDb().FindMutable("E")->Insert({FreshVertex(), FreshVertex()});
  EvalContext cold(TriDb());
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &cold)
      .ValueOrDie();
})

// Hybrid delta pass: append one joining tuple, extend the clean semi-join
// state in O(1) and patch R's trie.
CQB_BENCH_TIMED("chain10k/append1+delta-pass", [] {
  ChDb().FindMutable("R")->Insert({FreshVertex(), 0});
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &ChCtx())
      .ValueOrDie();
})

// From-scratch contrast for the hybrid: cold context, full reduction pass.
CQB_BENCH_TIMED("chain10k/append1+full-pass", [] {
  ChDb().FindMutable("R")->Insert({FreshVertex(), 0});
  EvalContext cold(ChDb());
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &cold)
      .ValueOrDie();
})

void BM_DeltaAppendEval(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < k; ++i) {
      TriDb().FindMutable("E")->Insert({FreshVertex(), FreshVertex()});
    }
    auto r = EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DeltaAppendEval)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
