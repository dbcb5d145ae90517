#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "util/thread_pool.h"

namespace cqbounds {
namespace {

void ExpectSameRelation(const Relation& a, const Relation& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (const Tuple& t : a.tuples()) {
    EXPECT_TRUE(b.Contains(t)) << context;
  }
}

// --- Relation generations --------------------------------------------------

TEST(RelationGenerationTest, BumpsOnActualInsertOnly) {
  Relation r("R", 2);
  EXPECT_EQ(r.generation(), 0u);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_EQ(r.generation(), 1u);
  // Duplicate insert: set semantics, relation unchanged, generation too.
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_EQ(r.generation(), 1u);
  EXPECT_TRUE(r.Insert({3, 4}));
  EXPECT_EQ(r.generation(), 2u);
}

// --- The trie cache --------------------------------------------------------

TEST(EvalContextTest, RepeatedEvaluationReusesTries) {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(20);
  EvalContext ctx(db);

  // Cold run: every distinct (relation, layout) builds once. Under the
  // default order X<Y<Z the atoms E(X,Y) and E(Y,Z) share the identity
  // layout, so even the first call hits once.
  EvalStats cold;
  auto first = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                             &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cold.trie_cache_misses, 2u);
  EXPECT_EQ(cold.trie_cache_hits, 1u);
  EXPECT_EQ(ctx.size(), 2u);

  // Warm run: zero rebuilds, identical output.
  EvalStats warm;
  auto second = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                              &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm.trie_cache_misses, 0u);
  EXPECT_EQ(warm.trie_cache_hits, 3u);
  EXPECT_EQ(warm.indexed_tuples, 0u);  // nothing was (re)built
  ExpectSameRelation(*first, *second, "warm run");
  EXPECT_EQ(ctx.hits(), 4u);
  EXPECT_EQ(ctx.misses(), 2u);
}

TEST(EvalContextTest, ContextFreeCallRunsThroughACallLocalContext) {
  // Without a caller's context the trie-based plans run through a context
  // local to the call, so the self-join's two identity-layout atoms share
  // one trie exactly as they do on a cold run through a fresh context.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(20);
  EvalContext fresh(db);
  EvalStats cold;
  auto through_fresh =
      EvaluateQuery(*q, db, PlanKind::kGenericJoin, &fresh, nullptr, &cold);
  EvalStats local;
  auto context_free =
      EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, nullptr, &local);
  ASSERT_TRUE(through_fresh.ok());
  ASSERT_TRUE(context_free.ok());
  EXPECT_EQ(local.trie_cache_hits, 1u);
  EXPECT_EQ(local.trie_cache_misses, 2u);
  EXPECT_EQ(local.trie_cache_hits, cold.trie_cache_hits);
  EXPECT_EQ(local.trie_cache_misses, cold.trie_cache_misses);
  EXPECT_EQ(local.indexed_tuples, cold.indexed_tuples);
  EXPECT_EQ(context_free->tuples(), through_fresh->tuples());
}

TEST(EvalContextTest, ContextFreeCallsKeepNothingBetweenCalls) {
  // Nothing outlives a context-free call: the second of two consecutive
  // calls builds, probes and reduces from scratch again, serial or pooled,
  // and returns the same rows in the same order.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(40);
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (PlanKind kind :
         {PlanKind::kGenericJoin, PlanKind::kHybridYannakakis}) {
      const std::string label = std::string(PlanKindName(kind)) +
                                (p == nullptr ? " serial" : " pooled");
      EvalStats first, second;
      auto a = EvaluateQuery(*q, db, kind, nullptr, p, &first);
      auto b = EvaluateQuery(*q, db, kind, nullptr, p, &second);
      ASSERT_TRUE(a.ok()) << label;
      ASSERT_TRUE(b.ok()) << label;
      EXPECT_EQ(a->tuples(), b->tuples()) << label;
      const bool hybrid = kind == PlanKind::kHybridYannakakis;
      EXPECT_GT(second.trie_cache_misses, 0u) << label;
      EXPECT_EQ(second.plan_cache_misses, hybrid ? 1u : 0u) << label;
      EXPECT_EQ(second.semijoin_pass_ran, hybrid) << label;
      EXPECT_EQ(second.parallel_workers > 0, p != nullptr) << label;
      EXPECT_EQ(second.trie_cache_hits, first.trie_cache_hits) << label;
      EXPECT_EQ(second.trie_cache_misses, first.trie_cache_misses) << label;
      EXPECT_EQ(second.trie_rebuilds, first.trie_rebuilds) << label;
      EXPECT_EQ(second.indexed_tuples, first.indexed_tuples) << label;
      EXPECT_EQ(second.plan_cache_hits, first.plan_cache_hits) << label;
      EXPECT_EQ(second.plan_cache_misses, first.plan_cache_misses) << label;
      EXPECT_EQ(second.treewidth_probe_runs, first.treewidth_probe_runs)
          << label;
      EXPECT_EQ(second.semijoin_pass_ran, first.semijoin_pass_ran) << label;
      EXPECT_EQ(second.semijoin_delta_pass, first.semijoin_delta_pass)
          << label;
      EXPECT_EQ(second.survivor_view_hits, first.survivor_view_hits)
          << label;
      EXPECT_EQ(second.intersection_seeks, first.intersection_seeks)
          << label;
      EXPECT_EQ(second.intermediate_sizes, first.intermediate_sizes)
          << label;
      EXPECT_EQ(second.parallel_workers, first.parallel_workers) << label;
      EXPECT_EQ(second.output_size, first.output_size) << label;
    }
  }
}

TEST(EvalContextTest, CacheIsSharedAcrossQueriesOnTheSameDatabase) {
  Database db = StarTriangleDatabase(12);
  EvalContext ctx(db);
  auto triangle = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  auto path = ParseQuery("P(X,Z) :- E(X,Y), E(Y,Z).");
  ASSERT_TRUE(triangle.ok());
  ASSERT_TRUE(path.ok());

  EvalStats s1;
  ASSERT_TRUE(EvaluateQuery(*triangle, db, PlanKind::kGenericJoin, &ctx,
                            nullptr, &s1).ok());
  // The path query keys E identically (both atoms use the identity
  // layout), so it runs entirely off tries the triangle query built.
  EvalStats s2;
  ASSERT_TRUE(EvaluateQuery(*path, db, PlanKind::kGenericJoin, &ctx, nullptr,
                            &s2).ok());
  EXPECT_EQ(s2.trie_cache_misses, 0u);
  EXPECT_EQ(s2.trie_cache_hits, 2u);
}

TEST(EvalContextTest, MutationInvalidatesExactlyTheStaleTries) {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(10);
  EvalContext ctx(db);

  EvalStats s;
  auto before = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                              &s);
  ASSERT_TRUE(before.ok());
  const std::size_t triangles_before = before->size();

  // Add a second genuine triangle on fresh vertices; every cached E trie
  // (both layouts) is now stale and must rebuild.
  Relation* e = db.FindMutable("E");
  ASSERT_NE(e, nullptr);
  e->Insert({101, 102});
  e->Insert({102, 103});
  e->Insert({103, 101});

  auto after = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr, &s);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(s.trie_cache_misses, 2u);
  EXPECT_EQ(s.trie_cache_hits, 1u);
  EXPECT_EQ(after->size(), triangles_before + 3);  // 3 rotations of the
                                                   // new triangle
  EXPECT_TRUE(after->Contains({101, 102, 103}));

  // And the rebuilt tries are clean again.
  auto third = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr, &s);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(s.trie_cache_misses, 0u);
  EXPECT_EQ(s.trie_cache_hits, 3u);
}

TEST(EvalContextTest, ClearDropsCachedTries) {
  auto q = ParseQuery("P(X,Z) :- E(X,Y), E(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(8);
  EvalContext ctx(db);
  EvalStats s;
  ASSERT_TRUE(EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                            &s).ok());
  EXPECT_GT(ctx.size(), 0u);
  ctx.Clear();
  EXPECT_EQ(ctx.size(), 0u);
  ASSERT_TRUE(EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                            &s).ok());
  EXPECT_GT(s.trie_cache_misses, 0u);
}

TEST(EvalContextTest, GetTrieEnforcesRelationIdentityNotNameEquality) {
  // The aliasing bug: two databases can hold same-named relations whose
  // generations coincide. A cache keyed on name alone would serve the
  // wrong database's trie as a "hit"; GetTrie must check identity against
  // its own database and fail loudly otherwise.
  Database db;
  Relation* mine = db.AddRelation("R", 2);
  mine->Insert({1, 2});
  mine->Insert({3, 4});

  Database other;
  Relation* foreign = other.AddRelation("R", 2);
  foreign->Insert({7, 8});
  foreign->Insert({9, 10});
  ASSERT_EQ(mine->generation(), foreign->generation());  // the trap

  EvalContext ctx(db);
  EXPECT_TRUE(ctx.OwnsRelation(*mine));
  EXPECT_FALSE(ctx.OwnsRelation(*foreign));

  // Warm the cache with the legitimate relation; the foreign same-named,
  // same-generation relation must not be served that entry.
  const std::shared_ptr<const TrieIndex> trie =
      ctx.GetTrie(*mine, {{0}, {1}}, nullptr);
  EXPECT_EQ(trie->num_tuples(), 2u);
#if defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
  EXPECT_DEATH(ctx.GetTrie(*foreign, {{0}, {1}}, nullptr),
               "does not belong");
#endif
}

/// B(i, j) for i < 20, j < 50: a two-level trie big enough that a splice
/// leaves most of it in place.
Relation* AddGrid(Database* db) {
  Relation* b = db->AddRelation("B", 2);
  for (Value i = 0; i < 20; ++i) {
    for (Value j = 0; j < 50; ++j) b->Insert({i, j});
  }
  return b;
}

/// Every key value of `trie`, level by level: what a reader scanning it
/// would see.
std::uint64_t Checksum(const TrieIndex& trie) {
  std::uint64_t sum = 0;
  std::vector<TrieIndex::Range> ranges = {trie.RootRange()};
  for (int level = 0; level < trie.num_levels(); ++level) {
    std::vector<TrieIndex::Range> next;
    for (const TrieIndex::Range r : ranges) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        sum = sum * 31 + static_cast<std::uint64_t>(trie.ValueAt(level, i));
        next.push_back(trie.ChildRange(level, i));
      }
    }
    ranges = std::move(next);
  }
  return sum;
}

TEST(EvalContextTest, UnheldTrieIsSplicedInPlace) {
  // Nobody holds the cached trie across the mutation, so the refresh
  // splices it in place: same object, no copy, same tries as a fresh
  // build.
  const std::vector<std::vector<int>> layout = {{0}, {1}};
  Database db;
  Relation* b = AddGrid(&db);
  EvalContext ctx(db);
  const TrieIndex* before = ctx.GetTrie(*b, layout, nullptr).get();
  const TrieBuildStats stats0 = GetTrieBuildStats();
  ASSERT_TRUE(b->Remove({0, 0}));
  ASSERT_TRUE(b->Insert({19, 50}));
  ASSERT_TRUE(b->Insert({7, -1}));
  EvalStats stats;
  const std::shared_ptr<const TrieIndex> after = ctx.GetTrie(*b, layout,
                                                             &stats);
  const TrieBuildStats stats1 = GetTrieBuildStats();
  EXPECT_EQ(after.get(), before);
  EXPECT_EQ(stats.trie_unpatches, 1u);
  EXPECT_EQ(stats1.merge_builds, stats0.merge_builds + 1);
  EXPECT_EQ(stats1.shared_splices, stats0.shared_splices);
  EXPECT_TRUE(*after == TrieIndex(*b, layout));
}

TEST(EvalContextTest, HeldTrieIsNeverMutated) {
  // A reader holds the cached trie -- and a worker thread scans it --
  // across the mutation and the refresh: the refresh must splice a copy
  // and leave the held trie exactly as it was.
  const std::vector<std::vector<int>> layout = {{0}, {1}};
  Database db;
  Relation* b = AddGrid(&db);
  EvalContext ctx(db);
  const std::shared_ptr<const TrieIndex> held =
      ctx.GetTrie(*b, layout, nullptr);
  const TrieIndex saved(*held);
  const std::uint64_t want = Checksum(saved);
  std::atomic<bool> done{false};
  std::atomic<int> bad_scans{0};
  std::thread reader([&] {
    do {
      if (Checksum(*held) != want) bad_scans.fetch_add(1);
    } while (!done.load());
  });
  // EXPECT, not ASSERT: an early return would leave the reader running.
  const TrieBuildStats stats0 = GetTrieBuildStats();
  EXPECT_TRUE(b->Remove({0, 0}));
  EXPECT_TRUE(b->Insert({19, 50}));
  const std::shared_ptr<const TrieIndex> refreshed =
      ctx.GetTrie(*b, layout, nullptr);
  const TrieBuildStats stats1 = GetTrieBuildStats();
  done.store(true);
  reader.join();
  EXPECT_EQ(bad_scans.load(), 0);
  EXPECT_NE(refreshed.get(), held.get());
  EXPECT_EQ(stats1.shared_splices, stats0.shared_splices + 1);
  EXPECT_TRUE(*held == saved);
  EXPECT_TRUE(*refreshed == TrieIndex(*b, layout));
}

TEST(EvalContextTest, RejectsContextAttachedToAnotherDatabase) {
  auto q = ParseQuery("P(X,Z) :- E(X,Y), E(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(5);
  Database other = StarTriangleDatabase(5);
  EvalContext ctx(other);
  for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                        PlanKind::kGenericJoin, PlanKind::kHybridYannakakis}) {
    EvalStats stats;
    stats.output_size = 123;  // must be cleared even on the error path
    auto result = EvaluateQuery(*q, db, kind, &ctx, nullptr, &stats);
    EXPECT_FALSE(result.ok()) << PlanKindName(kind);
    EXPECT_EQ(stats.output_size, 0u) << PlanKindName(kind);
  }
}

// --- The hybrid Yannakakis plan --------------------------------------------

TEST(HybridYannakakisTest, ChainWithDanglingTuplesReducesAndMatches) {
  // Fan chain plus dangling garbage: tuples of U whose Y never appears in
  // T, and tuples of R whose X never appears in S. A Yannakakis pass over
  // the width-1 decomposition must drop them before enumeration.
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < 20; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  for (int i = 0; i < 15; ++i) {
    r->Insert({7, 1000 + i});  // X values matching nothing in S
    u->Insert({2000 + i, 9});  // Y values matching nothing in T
  }

  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->recommended_plan, PlanKind::kHybridYannakakis);

  EvalStats hybrid_stats, generic_stats;
  auto hybrid =
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, nullptr, nullptr,
                    &hybrid_stats);
  auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, nullptr,
                               &generic_stats);
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(hybrid.ok());
  ASSERT_TRUE(generic.ok());
  ASSERT_TRUE(naive.ok());
  ExpectSameRelation(*naive, *hybrid, "hybrid vs naive");

  // The reduction pass actually engaged (the stats must say so -- an
  // abandoned pass used to be indistinguishable from a clean one), dropped
  // all 30 dangling tuples, and the reduced enumeration touched no more
  // bindings than the plain generic join.
  EXPECT_TRUE(hybrid_stats.semijoin_pass_ran);
  EXPECT_FALSE(hybrid_stats.semijoin_pass_skipped);
  EXPECT_EQ(hybrid_stats.semijoin_dropped_tuples, 30u);
  EXPECT_LE(hybrid_stats.max_intermediate, generic_stats.max_intermediate);
  EXPECT_LE(hybrid_stats.intersection_seeks, generic_stats.intersection_seeks);
}

TEST(HybridYannakakisTest, CleanDatabaseKeepsCachedTriesUsable) {
  // When nothing dangles, the reduction drops nothing and the hybrid can
  // serve every atom from the context cache on a warm run.
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < 10; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  EvalContext ctx(db);
  EvalStats cold, warm;
  auto first =
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(cold.semijoin_pass_ran);
  EXPECT_EQ(cold.semijoin_dropped_tuples, 0u);
  EXPECT_EQ(cold.trie_cache_misses, 4u);
  auto second =
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr, &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm.trie_cache_misses, 0u);
  EXPECT_EQ(warm.trie_cache_hits, 4u);
  // The clean cold pass armed the plan-tier skip: the warm run does not
  // repeat the (provably no-op) reduction.
  EXPECT_FALSE(warm.semijoin_pass_ran);
  EXPECT_TRUE(warm.semijoin_pass_skipped);
  ExpectSameRelation(*first, *second, "warm hybrid");
}

TEST(HybridYannakakisTest, HighWidthQueryFallsBackToGenericJoin) {
  // K4 as a clique query has variable-intersection width 3 > 2: the hybrid
  // must silently become the plain generic join.
  auto q = ParseQuery(
      "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->recommended_plan, PlanKind::kGenericJoin);

  RandomDatabaseOptions opts;
  opts.seed = 17;
  opts.tuples_per_relation = 30;
  opts.domain_size = 6;
  Database db = RandomDatabase(*q, opts);
  EvalStats stats;
  auto hybrid = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, nullptr,
                              nullptr, &stats);
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(hybrid.ok());
  ASSERT_TRUE(naive.ok());
  ExpectSameRelation(*naive, *hybrid, "K4 fallback");
  EXPECT_EQ(stats.semijoin_dropped_tuples, 0u);
  // On the fallback path no reduction pass runs -- and the stats say so.
  EXPECT_FALSE(stats.semijoin_pass_ran);
  EXPECT_FALSE(stats.semijoin_pass_skipped);
}

TEST(HybridYannakakisTest, TriangleSingleBagStaysCorrect) {
  // The triangle's variable graph is K3 (width 2): one bag holds all three
  // atoms, so the pass degenerates to pairwise filtering -- output must
  // still match, and the enumeration still meets the AGM envelope.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(30);
  EvalStats stats;
  auto hybrid = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, nullptr,
                              nullptr, &stats);
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(hybrid.ok());
  ASSERT_TRUE(naive.ok());
  ExpectSameRelation(*naive, *hybrid, "star triangle hybrid");
  EXPECT_TRUE(stats.semijoin_pass_ran);
  EXPECT_EQ(hybrid->size(), 3u);
}

// --- The plan tier ---------------------------------------------------------

Database CleanChain(int fanout) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < fanout; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  return db;
}

TEST(PlanCacheTest, WarmHybridRunsZeroProbesAndZeroCopies) {
  // The acceptance shape of the plan tier: a warm hybrid evaluation on
  // unchanged relation generations performs zero TreewidthExact calls,
  // skips the semi-join pass, and (re)builds/copies nothing at all.
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db = CleanChain(12);
  EvalContext ctx(db);

  EvalStats cold;
  auto first = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                             &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cold.plan_cache_misses, 1u);
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_EQ(cold.treewidth_probe_runs, 1u);  // the one and only probe
  EXPECT_TRUE(cold.semijoin_pass_ran);
  EXPECT_EQ(cold.semijoin_dropped_tuples, 0u);
  EXPECT_EQ(ctx.plan_size(), 1u);

  EvalStats warm;
  auto second = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx,
                              nullptr, &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.plan_cache_misses, 0u);
  EXPECT_EQ(warm.treewidth_probe_runs, 0u);  // zero TreewidthExact calls
  EXPECT_FALSE(warm.semijoin_pass_ran);      // pass skipped outright
  EXPECT_TRUE(warm.semijoin_pass_skipped);
  EXPECT_EQ(warm.trie_cache_misses, 0u);     // zero trie (re)builds
  EXPECT_EQ(warm.indexed_tuples, 0u);        // zero tuples copied/indexed
  ExpectSameRelation(*first, *second, "warm plan-cache hybrid");
  EXPECT_EQ(ctx.plan_hits(), 1u);
  EXPECT_EQ(ctx.plan_misses(), 1u);
}

TEST(PlanCacheTest, GenerationBumpForcesReReduceButNeverReProbes) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db = CleanChain(10);
  EvalContext ctx(db);

  EvalStats s;
  auto before = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx,
                              nullptr, &s);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(s.semijoin_pass_ran);

  // A dangling tuple bumps R's generation: the cached plan survives (the
  // probe depends only on the query shape), but the cached survivor views
  // must not be served as-is -- the pass re-runs (as an appends-only delta
  // over the clean previous pass: one appended candidate filtered against
  // the cached per-step key sets) and drops the new tuple.
  db.FindMutable("R")->Insert({42, 99999});
  EvalStats mutated;
  auto after = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                             &mutated);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(mutated.plan_cache_hits, 1u);
  EXPECT_EQ(mutated.treewidth_probe_runs, 0u);
  EXPECT_FALSE(mutated.semijoin_pass_skipped);
  EXPECT_TRUE(mutated.semijoin_pass_ran);
  EXPECT_EQ(mutated.semijoin_dropped_tuples, 1u);
  EXPECT_GE(mutated.delta_tuples_processed, 1u);
  EXPECT_EQ(mutated.survivor_view_hits, 0u);
  ExpectSameRelation(*before, *after, "dangling tuple changes nothing");

  // That pass dropped the dangler, but its outcome is cached keyed by the
  // generation vector: warm runs on the unchanged-dirty database reuse the
  // cached survivor view of R instead of re-reducing (they would only
  // re-drop the same tuple).
  EvalStats again;
  auto warm = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                            &again);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(again.semijoin_pass_skipped);
  EXPECT_FALSE(again.semijoin_pass_ran);
  EXPECT_EQ(again.semijoin_dropped_tuples, 0u);
  EXPECT_EQ(again.survivor_view_hits, 1u);
  EXPECT_EQ(again.treewidth_probe_runs, 0u);
  ExpectSameRelation(*before, *warm, "survivor-view reuse changes nothing");
}

TEST(PlanCacheTest, PlannerAndExecutorShareTheCachedProbe) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db = CleanChain(8);
  EvalContext ctx(db);

  // Planning through the context populates the plan tier...
  auto order = ChooseGenericJoinOrder(*q, &ctx);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->recommended_plan, PlanKind::kHybridYannakakis);
  EXPECT_EQ(order->source, VariableOrderSource::kTreeDecomposition);
  EXPECT_EQ(ctx.plan_misses(), 1u);

  // ...so the executor's first run is already probe-free, and re-planning
  // is a pure cache hit.
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.treewidth_probe_runs, 0u);
  auto replanned = ChooseGenericJoinOrder(*q, &ctx);
  ASSERT_TRUE(replanned.ok());
  EXPECT_EQ(replanned->order, order->order);
  EXPECT_EQ(ctx.plan_misses(), 1u);
  EXPECT_GE(ctx.plan_hits(), 2u);
}

TEST(PlanCacheTest, BodyKeyedPlanIsTheSameWhicheverHeadComesFirst) {
  // The plan tier keys on the body and its probe reads no head: a
  // boolean-head copy shares its creator's entry and binding order, and
  // each query's plan is the one it gets without a context, whichever of
  // the two reached the context first.
  auto q = ParseQuery("P(A) :- F(A,B), G(B,C).");
  ASSERT_TRUE(q.ok());
  Query copy = *q;
  copy.SetHead(q->head_relation(), {});
  Database db;
  Relation* f = db.AddRelation("F", 2);
  Relation* g = db.AddRelation("G", 2);
  for (int i = 0; i < 12; ++i) {
    f->Insert({i, i % 4});
    g->Insert({i % 6, 100 + i});
  }
  auto alone = ChooseGenericJoinOrder(*q);
  auto copy_alone = ChooseGenericJoinOrder(copy);
  ASSERT_TRUE(alone.ok() && copy_alone.ok());
  // P(A) runs the certified default order B -> A -> C; the copy's reverse
  // elimination order C -> B -> A projects A away, so it is certified too.
  EXPECT_EQ(alone->order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(alone->recommended_plan, PlanKind::kGenericJoin);
  EXPECT_EQ(copy_alone->order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(copy_alone->recommended_plan, PlanKind::kGenericJoin);

  for (bool copy_first : {false, true}) {
    SCOPED_TRACE(copy_first ? "copy first" : "creator first");
    EvalContext ctx(db);
    auto first = ChooseGenericJoinOrder(copy_first ? copy : *q, &ctx);
    auto second = ChooseGenericJoinOrder(copy_first ? *q : copy, &ctx);
    ASSERT_TRUE(first.ok() && second.ok());
    const GenericJoinOrder& order = copy_first ? *second : *first;
    const GenericJoinOrder& copy_order = copy_first ? *first : *second;
    EXPECT_EQ(order.order, alone->order);
    EXPECT_EQ(order.recommended_plan, alone->recommended_plan);
    EXPECT_EQ(copy_order.order, copy_alone->order);
    EXPECT_EQ(copy_order.recommended_plan, copy_alone->recommended_plan);
    EXPECT_EQ(ctx.plan_misses(), 1u);
    EXPECT_EQ(&ctx.GetPlan(copy, nullptr), &ctx.GetPlan(*q, nullptr));
    EXPECT_EQ(ctx.GetPlan(copy, nullptr).probe.order, copy_alone->order);
  }

  // The copy's reduction pass fills the shared entry's books; the creator
  // then evaluates over them.
  EvalContext ctx(db);
  EvalStats stats;
  auto witness = EvaluateQuery(copy, db, PlanKind::kHybridYannakakis, &ctx,
                               nullptr, &stats);
  ASSERT_TRUE(witness.ok());
  EXPECT_EQ(witness->size(), 1u);
  EXPECT_TRUE(stats.semijoin_pass_ran);
  EvalStats again;
  auto answer = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx,
                              nullptr, &again);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(again.plan_cache_hits, 1u);
  EXPECT_TRUE(again.semijoin_pass_skipped);
  ExpectSameRelation(*EvaluateQuery(*q, db, PlanKind::kNaive), *answer,
                     "creator after its boolean copy");
}

TEST(PlanCacheTest, HighWidthShapeIsCachedWithoutEverProbing) {
  // K4's variable graph has 6 edges > 2n-3 = 5: the sparsity gate means
  // even the cold run never calls TreewidthExact -- and the cached plan
  // still saves the warm runs the graph construction and gate re-checks.
  auto q = ParseQuery(
      "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).");
  ASSERT_TRUE(q.ok());
  RandomDatabaseOptions opts;
  opts.seed = 23;
  opts.tuples_per_relation = 20;
  opts.domain_size = 5;
  Database db = RandomDatabase(*q, opts);
  EvalContext ctx(db);

  EvalStats cold, warm;
  ASSERT_TRUE(
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &cold).ok());
  EXPECT_EQ(cold.plan_cache_misses, 1u);
  EXPECT_EQ(cold.treewidth_probe_runs, 0u);  // gated out, not cached out
  ASSERT_TRUE(
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &warm).ok());
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.plan_cache_misses, 0u);
  EXPECT_EQ(warm.treewidth_probe_runs, 0u);
}

TEST(PlanCacheTest, SignatureCannotBeSpoofedByRelationNames) {
  // Query places no character restrictions on relation names, so the plan
  // key length-prefixes them: a name containing the signature's own
  // separators must not make two distinct shapes collide on one entry
  // (here, two unary atoms R(B)/S(C) vs one atom literally named
  // "R(1);S" -- without the length prefix both spell "3|R(1);S(2);").
  Query two_atoms;
  const int a1 = two_atoms.InternVariable("A");
  const int b1 = two_atoms.InternVariable("B");
  const int c1 = two_atoms.InternVariable("C");
  (void)a1;
  two_atoms.SetHead("Q", {b1, c1});
  two_atoms.AddAtom("R", {b1});
  two_atoms.AddAtom("S", {c1});
  ASSERT_TRUE(two_atoms.Validate().ok());

  Query spoofed;
  spoofed.InternVariable("A");
  spoofed.InternVariable("B");
  const int c2 = spoofed.InternVariable("C");
  spoofed.SetHead("Q", {c2});
  spoofed.AddAtom("R(1);S", {c2});
  ASSERT_TRUE(spoofed.Validate().ok());

  Database db;
  db.AddRelation("R", 1)->Insert({1});
  db.AddRelation("S", 1)->Insert({2});
  Relation* weird = db.AddRelation("R(1);S", 1);
  weird->Insert({7});
  weird->Insert({8});

  EvalContext ctx(db);
  EvalStats s1, s2;
  auto first =
      EvaluateQuery(two_atoms, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &s1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  // The spoofed shape must get its own plan entry, not the cached one.
  auto second =
      EvaluateQuery(spoofed, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &s2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(s2.plan_cache_misses, 1u);
  EXPECT_EQ(s2.plan_cache_hits, 0u);
  EXPECT_EQ(ctx.plan_size(), 2u);
  EXPECT_EQ(second->size(), 2u);
  EXPECT_TRUE(second->Contains({7}));
}

TEST(PlanCacheTest, ClearDropsCachedPlans) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db = CleanChain(6);
  EvalContext ctx(db);
  EvalStats s;
  ASSERT_TRUE(
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &s).ok());
  EXPECT_EQ(ctx.plan_size(), 1u);
  ctx.Clear();
  EXPECT_EQ(ctx.plan_size(), 0u);
  EXPECT_EQ(ctx.size(), 0u);
  ASSERT_TRUE(
      EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &s).ok());
  EXPECT_EQ(s.plan_cache_misses, 1u);
  EXPECT_EQ(s.treewidth_probe_runs, 1u);
}

// --- Stale-stats regression (validation-error early returns) ---------------

TEST(EvalStatsResetTest, ErrorPathsClearReusedStats) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  for (int i = 0; i < 5; ++i) {
    r->Insert({i, i + 1});
    s->Insert({i + 1, i + 2});
  }

  for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                        PlanKind::kGenericJoin, PlanKind::kHybridYannakakis}) {
    // First call succeeds and fills the counters.
    EvalStats stats;
    ASSERT_TRUE(EvaluateQuery(*q, db, kind, nullptr, nullptr, &stats).ok());
    ASSERT_GT(stats.output_size, 0u) << PlanKindName(kind);
    ASSERT_FALSE(stats.intermediate_sizes.empty()) << PlanKindName(kind);

    // Second call errors (missing relation): the reused stats must not
    // leak the previous run's counters. The delta counters are seeded with
    // garbage first -- a successful context-free run leaves all but
    // trie_rebuilds zero (and that one zero on the binary-join plans), so
    // without the seeding a missing reset would be invisible.
    stats.trie_patches = 99;
    stats.trie_rebuilds = 99;
    stats.survivor_view_hits = 99;
    stats.delta_tuples_processed = 99;
    auto bad = ParseQuery("Q(X,Z) :- R(X,Y), Missing(Y,Z).");
    ASSERT_TRUE(bad.ok());
    EXPECT_FALSE(EvaluateQuery(*bad, db, kind, nullptr, nullptr, &stats).ok())
        << PlanKindName(kind);
    EXPECT_EQ(stats.output_size, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.max_intermediate, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.total_intermediate, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.indexed_tuples, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.intersection_seeks, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.trie_patches, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.trie_rebuilds, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.survivor_view_hits, 0u) << PlanKindName(kind);
    EXPECT_EQ(stats.delta_tuples_processed, 0u) << PlanKindName(kind);
    EXPECT_TRUE(stats.intermediate_sizes.empty()) << PlanKindName(kind);
  }

  // The generic join's validation-error early returns (bad variable
  // orders) must clear too -- the original bug left them stale.
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateGenericJoin(*q, db, DefaultGenericJoinOrder(*q), &stats).ok());
  ASSERT_GT(stats.output_size, 0u);
  // Without a caller's context every trie is a cold build of the call's own
  // context: each counts as a miss and as a rebuild.
  EXPECT_EQ(stats.trie_cache_misses, 2u);
  EXPECT_EQ(stats.trie_rebuilds, 2u);
  std::vector<int> bad_order = DefaultGenericJoinOrder(*q);
  bad_order.pop_back();
  stats.trie_patches = 99;
  stats.delta_tuples_processed = 99;
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, bad_order, &stats).ok());
  EXPECT_EQ(stats.output_size, 0u);
  EXPECT_EQ(stats.trie_patches, 0u);
  EXPECT_EQ(stats.delta_tuples_processed, 0u);
  EXPECT_TRUE(stats.intermediate_sizes.empty());
}

// --- Degenerate atoms through all four plans -------------------------------

constexpr PlanKind kAllPlans[] = {PlanKind::kNaive, PlanKind::kJoinProject,
                                  PlanKind::kGenericJoin,
                                  PlanKind::kHybridYannakakis};

TEST(DegenerateAtomTest, NullaryAtomActsAsBooleanGuard) {
  // Q(X) :- R(X), G() -- the nullary atom exercises the depth-0 trie path:
  // it contributes no variable and only gates the query on G's emptiness.
  Query q;
  const int x = q.InternVariable("X");
  q.SetHead("Q", {x});
  q.AddAtom("R", {x});
  q.AddAtom("G", {});
  ASSERT_TRUE(q.Validate().ok());

  Database db;
  Relation* r = db.AddRelation("R", 1);
  r->Insert({1});
  r->Insert({2});
  Relation* g = db.AddRelation("G", 0);

  for (PlanKind kind : kAllPlans) {
    EvalStats stats;
    auto empty_guard = EvaluateQuery(q, db, kind, nullptr, nullptr, &stats);
    ASSERT_TRUE(empty_guard.ok()) << PlanKindName(kind);
    EXPECT_EQ(empty_guard->size(), 0u) << PlanKindName(kind);
  }

  g->Insert(Tuple{});  // the nullary tuple: the guard is now satisfied
  for (PlanKind kind : kAllPlans) {
    auto passed = EvaluateQuery(q, db, kind);
    ASSERT_TRUE(passed.ok()) << PlanKindName(kind);
    EXPECT_EQ(passed->size(), 2u) << PlanKindName(kind);
    EXPECT_TRUE(passed->Contains({1})) << PlanKindName(kind);
    EXPECT_TRUE(passed->Contains({2})) << PlanKindName(kind);
  }
}

TEST(DegenerateAtomTest, RepeatedVariableOnlyAtoms) {
  // Atoms whose every position carries the same variable: R(X,X) is a
  // one-level trie with an equality filter; S(Y,Y,Y) likewise at arity 3.
  auto q = ParseQuery("Q(X,Y) :- R(X,X), S(Y,Y,Y).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 1});
  r->Insert({1, 2});  // violates X=X
  r->Insert({3, 3});
  Relation* s = db.AddRelation("S", 3);
  s->Insert({5, 5, 5});
  s->Insert({5, 5, 6});  // violates Y=Y=Y
  s->Insert({7, 7, 7});

  for (PlanKind kind : kAllPlans) {
    auto result = EvaluateQuery(*q, db, kind);
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    EXPECT_EQ(result->size(), 4u) << PlanKindName(kind);  // {1,3} x {5,7}
    EXPECT_TRUE(result->Contains({1, 5})) << PlanKindName(kind);
    EXPECT_TRUE(result->Contains({3, 7})) << PlanKindName(kind);
  }
}

TEST(DegenerateAtomTest, EmptyBodyQueryYieldsTheEmptySubstitution) {
  Query q;
  q.SetHead("Q", {});
  ASSERT_TRUE(q.Validate().ok());
  Database db;
  for (PlanKind kind : kAllPlans) {
    auto result = EvaluateQuery(q, db, kind);
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    EXPECT_EQ(result->size(), 1u) << PlanKindName(kind);
    EXPECT_TRUE(result->Contains(Tuple{})) << PlanKindName(kind);
  }
}

TEST(DegenerateAtomTest, CacheServesDegenerateLayoutsToo) {
  // Cache-invalidation on the degenerate shapes: a repeated-variable atom
  // uses a one-level two-position layout; mutating the relation must
  // rebuild exactly that trie.
  auto q = ParseQuery("Q(X) :- R(X,X).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 1});
  r->Insert({2, 3});
  EvalContext ctx(db);

  EvalStats s;
  auto first = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr, &s);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 1u);
  EXPECT_EQ(s.trie_cache_misses, 1u);

  ASSERT_TRUE(EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                            &s).ok());
  EXPECT_EQ(s.trie_cache_hits, 1u);
  EXPECT_EQ(s.trie_cache_misses, 0u);

  r->Insert({4, 4});
  auto mutated = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                               &s);
  ASSERT_TRUE(mutated.ok());
  EXPECT_EQ(s.trie_cache_misses, 1u);
  EXPECT_EQ(mutated->size(), 2u);
  EXPECT_TRUE(mutated->Contains({4}));
}

}  // namespace
}  // namespace cqbounds
