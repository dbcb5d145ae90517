// E12 -- the plan-shape cache: warm hybrid evaluations without re-probing.
//
// E11 removed the per-call trie rebuild; the hybrid Yannakakis plan still
// paid full planning price per call -- every EvaluateHybridYannakakis
// re-ran the exact-treewidth probe on the variable-intersection graph and
// re-scanned every atom relation for the semi-join reduction pass, even
// when nothing had changed. The EvalContext *plan tier* memoizes the probe
// (certified width, decomposition, binding order) by query shape, and
// after a reduction pass that dropped nothing it records the relation
// generations so the pass is skipped outright while they stand still.
//
// The tables below show the counters (deterministic): a warm run on
// unchanged generations performs zero TreewidthExact calls, zero
// semi-joins, zero trie builds and zero tuple copies -- a pass that
// dropped tuples included, since its survivor views are cached under the
// generation vector and reused outright; a mutation forces a pass (an
// O(delta) extension when the prior pass was clean and only appends
// happened -- see E14 -- a full re-reduce otherwise) but never a re-probe
// (the plan depends only on the query shape). The timed sections contrast
// cold probe-per-call evaluation with warm plan-cache runs on a long
// chain, where planning -- not enumeration -- dominates.

#include <string>

#include "bench/bench_util.h"
#include "core/join_plan.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

/// Q(A0,Ak) :- E1(A0,A1), ..., Ek(A(k-1),Ak): a k-atom chain whose
/// variable-intersection graph is a path (certified width 1).
Query ChainQueryOfLength(int k) {
  Query q;
  std::vector<int> vars;
  for (int i = 0; i <= k; ++i) {
    vars.push_back(q.InternVariable("A" + std::to_string(i)));
  }
  q.SetHead("Q", {vars.front(), vars.back()});
  for (int i = 0; i < k; ++i) {
    q.AddAtom("E" + std::to_string(i + 1), {vars[i], vars[i + 1]});
  }
  return q;
}

/// Every chain relation is the identity {(j, j) : j < n}: all joins are
/// full, nothing dangles, so a reduction pass is a provable no-op -- the
/// warm skip's best case.
Database IdentityChainDatabase(int k, int n) {
  Database db;
  for (int i = 0; i < k; ++i) {
    Relation* rel = db.AddRelation("E" + std::to_string(i + 1), 2);
    for (int j = 0; j < n; ++j) rel->Insert({j, j});
  }
  return db;
}

const char* PassLabel(const EvalStats& stats) {
  if (stats.semijoin_pass_skipped) return "skipped";
  if (stats.semijoin_pass_ran) return "ran";
  return "off";
}

void AddCounterRow(bench::Table* table, const std::string& instance,
                   const char* run, const EvalStats& stats) {
  table->AddRow({instance, run, bench::Num(stats.plan_cache_hits),
                 bench::Num(stats.plan_cache_misses),
                 bench::Num(stats.treewidth_probe_runs), PassLabel(stats),
                 bench::Num(stats.semijoin_dropped_tuples),
                 bench::Num(stats.trie_cache_misses),
                 bench::Num(stats.indexed_tuples)});
}

// Shared fixtures of the timed sections, constructed (and the contexts
// pre-warmed) at the end of PrintTables so single-rep --quick timers
// measure evaluation, not setup -- and so the "warm" timers are warm in
// every mode.
const Query& Chain16() {
  static Query q = ChainQueryOfLength(16);
  return q;
}
Database& Chain16Db() {
  static Database db = IdentityChainDatabase(16, 400);
  return db;
}
EvalContext& Chain16Ctx() {
  static EvalContext ctx(Chain16Db());
  return ctx;
}
Database& Chain16DirtyDb() {
  static Database db = [] {
    Database d = IdentityChainDatabase(16, 400);
    // Dangling tuples in the first relation: the cold pass drops them and
    // caches E1's survivor view; warm runs serve the view from the
    // generation-keyed cache without re-running the pass.
    Relation* e1 = d.FindMutable("E1");
    for (int i = 0; i < 200; ++i) e1->Insert({100000 + i, 200000 + i});
    return d;
  }();
  return db;
}
EvalContext& Chain16DirtyCtx() {
  static EvalContext ctx(Chain16DirtyDb());
  return ctx;
}

void PrepareTimerFixtures() {
  EvaluateQuery(Chain16(), Chain16Db(), PlanKind::kHybridYannakakis,
                &Chain16Ctx())
      .ValueOrDie();
  EvaluateQuery(Chain16(), Chain16DirtyDb(), PlanKind::kHybridYannakakis,
                &Chain16DirtyCtx())
      .ValueOrDie();
}

void PrintTables() {
  std::cout << "E12: the plan-shape cache -- warm hybrid evaluations "
               "without re-probing\n\n";

  std::cout << "Plan-tier counters across hybrid runs of one query shape "
               "(tw probes = exact\nTreewidthExact calls this run; "
               "reindexed = tuples fed into trie builds):\n";
  bench::Table counters({"instance", "run", "plan hits", "plan misses",
                         "tw probes", "semijoin pass", "dropped",
                         "trie misses", "reindexed"});
  {
    // Clean chain: the cold run probes and reduces once; warm runs skip
    // everything; a dangling append extends the clean pass by a delta
    // (dropping the dangler, no re-probe), after which the survivor views
    // are cached and warm runs skip again.
    Query q = ChainQueryOfLength(8);
    Database db = IdentityChainDatabase(8, 120);
    EvalContext ctx(db);
    const char* runs[] = {"cold", "warm", "warm2", "mutated", "warm3"};
    for (const char* run : runs) {
      if (std::string(run) == "mutated") {
        db.FindMutable("E4")->Insert({500000, 600000});  // dangling
      }
      EvalStats stats;
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
          .ValueOrDie();
      AddCounterRow(&counters, "chain8-clean/120", run, stats);
    }
  }
  {
    // The E11 dangling chain: the cold pass drops 800 danglers and caches
    // the four survivor views; warm runs on the unchanged generation
    // vector reuse them outright -- no pass, no probe, no trie build.
    auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
    Database db;
    Relation* r = db.AddRelation("R", 2);
    Relation* s = db.AddRelation("S", 2);
    Relation* t = db.AddRelation("T", 2);
    Relation* u = db.AddRelation("U", 2);
    for (int i = 0; i < 100; ++i) {
      r->Insert({0, i});
      s->Insert({i, 0});
      t->Insert({0, i});
      u->Insert({i, 0});
    }
    for (int i = 0; i < 400; ++i) {
      r->Insert({7, 100000 + i});
      u->Insert({200000 + i, 9});
    }
    EvalContext ctx(db);
    for (const char* run : {"cold", "warm", "warm2"}) {
      EvalStats stats;
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
          .ValueOrDie();
      AddCounterRow(&counters, "chain4-dangling/100", run, stats);
    }
  }
  {
    // K4: 6 edges > 2n-3 = 5, so the sparsity gate keeps TreewidthExact
    // from ever running -- and the cached plan still spares warm runs the
    // graph build and gate re-checks.
    auto q = ParseQuery(
        "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).");
    RandomDatabaseOptions opts;
    opts.seed = 17;
    opts.tuples_per_relation = 30;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    EvalContext ctx(db);
    for (const char* run : {"cold", "warm"}) {
      EvalStats stats;
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &stats)
          .ValueOrDie();
      AddCounterRow(&counters, "K4-highwidth/30", run, stats);
    }
  }
  counters.Print();

  std::cout << "\nPlanner/executor probe sharing: ChooseGenericJoinOrder "
               "through the same\ncontext reuses (and seeds) the executor's "
               "plan entry -- lifetime context\ncounters after each step:\n";
  bench::Table sharing({"step", "plan hits", "plan misses"});
  {
    Query q = ChainQueryOfLength(8);
    Database db = IdentityChainDatabase(8, 60);
    EvalContext ctx(db);
    ChooseGenericJoinOrder(q, &ctx).ValueOrDie();
    sharing.AddRow({"plan (cold)", bench::Num(ctx.plan_hits()),
                    bench::Num(ctx.plan_misses())});
    EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx)
        .ValueOrDie();
    sharing.AddRow({"evaluate", bench::Num(ctx.plan_hits()),
                    bench::Num(ctx.plan_misses())});
    ChooseGenericJoinOrder(q, &ctx).ValueOrDie();
    sharing.AddRow({"re-plan", bench::Num(ctx.plan_hits()),
                    bench::Num(ctx.plan_misses())});
  }
  sharing.Print();

  std::cout << "\nShape check: warm rows read zero plan misses, zero tw "
               "probes, zero trie\nmisses and zero reindexed tuples -- the "
               "whole planning layer is served from\nthe cache, dirty "
               "instances included (their survivor views are cached "
               "under\nthe generation vector); the mutated row runs only "
               "the delta semi-join pass\n(one dropped tuple, one survivor "
               "view built); the high-width shape never\nprobes at all. The "
               "timed "
               "sections below contrast cold probe-per-call runs with "
               "warm\nplan-cache runs on a 16-atom chain.\n\n";

  PrepareTimerFixtures();
}

CQB_BENCH_TIMED("chain16x400/cold_probe_each_call", [] {
  EvaluateQuery(Chain16(), Chain16Db(), PlanKind::kHybridYannakakis)
      .ValueOrDie();
})

CQB_BENCH_TIMED("chain16x400/warm_plan_cache_skip_pass", [] {
  EvaluateQuery(Chain16(), Chain16Db(), PlanKind::kHybridYannakakis,
                &Chain16Ctx())
      .ValueOrDie();
})

CQB_BENCH_TIMED("chain16x400_dirty/warm_survivor_view_reuse", [] {
  EvaluateQuery(Chain16(), Chain16DirtyDb(), PlanKind::kHybridYannakakis,
                &Chain16DirtyCtx())
      .ValueOrDie();
})

CQB_BENCH_TIMED("choose_order16/cold", [] {
  ChooseGenericJoinOrder(Chain16()).ValueOrDie();
})

CQB_BENCH_TIMED("choose_order16/ctx_shared", [] {
  ChooseGenericJoinOrder(Chain16(), &Chain16Ctx()).ValueOrDie();
})

void BM_HybridColdPlan(benchmark::State& state) {
  Query q = ChainQueryOfLength(static_cast<int>(state.range(0)));
  Database db = IdentityChainDatabase(static_cast<int>(state.range(0)), 200);
  for (auto _ : state) {
    auto r = EvaluateQuery(q, db, PlanKind::kHybridYannakakis);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HybridColdPlan)->Arg(4)->Arg(16);

void BM_HybridWarmPlanCache(benchmark::State& state) {
  Query q = ChainQueryOfLength(static_cast<int>(state.range(0)));
  Database db = IdentityChainDatabase(static_cast<int>(state.range(0)), 200);
  EvalContext ctx(db);
  for (auto _ : state) {
    auto r = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HybridWarmPlanCache)->Arg(4)->Arg(16);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
