// Concurrency stress for the thread-safe evaluation path: the ThreadPool
// primitive, the parallel generic join, and -- the core of the suite --
// many threads hammering one shared EvalContext (trie tier, plan tier,
// semi-join skip state) with interleaved relation mutations between
// parallel phases, cross-validated against the single-threaded naive
// oracle. Extends the randomized skeleton of plan_cache_test.cc to the
// readers-xor-writer contract documented in relation/eval_context.h:
// mutations happen only while no evaluation runs; any number of
// evaluations run concurrently in between.
//
// Every assertion here is a *correctness* property (same relation as the
// oracle, counter bookkeeping invariants) -- never a speedup: timing
// assertions would be flaky on loaded or single-core machines, and data
// races are the TSan job's department (cmake -DCQBOUNDS_SANITIZE=thread
// builds this same binary with every check instrumented).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "util/rng.h"
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

// --- ThreadPool primitive --------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> counts(kTasks);
  pool.ParallelFor(kTasks, [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.ParallelFor(17, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;  // no synchronization needed: everything is on the caller
  });
  EXPECT_EQ(ran, 17u);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SequentialBatchesReuseTheSameWorkers) {
  ThreadPool pool(2);
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<int> sum{0};
    pool.ParallelFor(20, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
    EXPECT_EQ(sum.load(), 210);  // 1 + ... + 20
  }
}

TEST(ThreadPoolTest, ConcurrentCallersAreSerializedAndAllComplete) {
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> totals(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &totals, c] {
      pool.ParallelFor(kTasks, [&totals, c](std::size_t) { ++totals[c]; });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[c].load(), static_cast<int>(kTasks)) << "caller " << c;
  }
}

// --- Parallel generic join ------------------------------------------------

Database TriangleDatabase(int n) {
  Database db;
  Relation* e = db.AddRelation("E", 2);
  // A cycle plus chords: plenty of depth-0 matches to partition.
  for (int i = 0; i < n; ++i) {
    e->Insert({i, (i + 1) % n});
    e->Insert({i, (i + 7) % n});
  }
  return db;
}

/// A symmetric circulant graph: every vertex adjacent to its neighbours at
/// offsets 1, 2 and 3 in both directions, so every multi-hop path has many
/// derivations of each endpoint pair.
Database ChordedCycle(int n) {
  Database db;
  Relation* e = db.AddRelation("E", 2);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3; ++d) {
      e->Insert({i, (i + d) % n});
      e->Insert({(i + d) % n, i});
    }
  }
  return db;
}

TEST(ParallelGenericJoinTest, MatchesSerialOnTriangles) {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = TriangleDatabase(60);

  EvalStats serial_stats;
  auto serial = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, nullptr,
                              &serial_stats);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial_stats.parallel_workers, 0u);

  ThreadPool pool(3);
  EvalContext ctx(db);
  EvalStats parallel_stats;
  auto parallel = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, &pool,
                                &parallel_stats);
  ASSERT_TRUE(parallel.ok());
  ExpectSameRelation(*serial, *parallel, "triangle parallel vs serial");
  // 60 depth-0 matches across 3 workers + the caller.
  EXPECT_EQ(parallel_stats.parallel_workers, 4u);
  // The per-depth binding counts are merged exactly, not approximately:
  // the AGM-envelope accounting must be identical to the serial run's.
  EXPECT_EQ(parallel_stats.intermediate_sizes,
            serial_stats.intermediate_sizes);
  EXPECT_EQ(parallel_stats.output_size, serial_stats.output_size);
}

TEST(ParallelGenericJoinTest, FallsBackWhenPoolIsNullOrEmpty) {
  auto q = ParseQuery("T(X,Y) :- E(X,Y).");
  ASSERT_TRUE(q.ok());
  Database db = TriangleDatabase(10);
  EvalStats stats;
  // Null pool.
  auto r1 = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, nullptr,
                          &stats);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(stats.parallel_workers, 0u);
  // Worker-less pool: still valid, still serial.
  ThreadPool empty_pool(0);
  auto r2 = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr,
                          &empty_pool, &stats);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stats.parallel_workers, 0u);
  ExpectSameRelation(*r1, *r2, "null pool vs empty pool");
}

TEST(ParallelGenericJoinTest, BooleanHeadStaysSerial) {
  // Variable-free head: the serial early exit stops at the first witness;
  // fan-out would only do more work, so the executor must not engage it.
  Query q;
  const int x = q.InternVariable("X");
  const int y = q.InternVariable("Y");
  const int z = q.InternVariable("Z");
  q.SetHead("Yes", {});
  q.AddAtom("E", {x, y});
  q.AddAtom("E", {y, z});
  ASSERT_TRUE(q.Validate().ok());
  Database db = TriangleDatabase(20);
  ThreadPool pool(3);
  EvalStats stats;
  auto r = EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr, &pool,
                         &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(stats.parallel_workers, 0u);
}

TEST(ParallelGenericJoinTest, MatchesSerialOnRandomQueries) {
  Rng rng(20260808);
  ThreadPool pool(3);
  for (int trial = 0; trial < 12; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 3;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 30;
    opts.domain_size = 6;
    Database db = RandomDatabase(q, opts);
    EvalContext ctx(db);

    const std::string tag = q.ToString() + " trial " + std::to_string(trial);
    auto oracle = EvaluateQuery(q, db, PlanKind::kNaive);
    ASSERT_TRUE(oracle.ok()) << tag;
    for (PlanKind kind :
         {PlanKind::kGenericJoin, PlanKind::kHybridYannakakis}) {
      EvalStats stats;
      auto r = EvaluateQuery(q, db, kind, &ctx, &pool, &stats);
      ASSERT_TRUE(r.ok()) << tag;
      ExpectSameRelation(*oracle, *r,
                         tag + " plan " + std::string(PlanKindName(kind)));
    }
  }
}

TEST(ParallelGenericJoinTest, RowOrderMatchesSerial) {
  // Workers emit every answer as codes, repeats included, and the merge
  // appends their per-match slices in depth-0 order, keeping each head
  // tuple's first occurrence. The parallel output is then the serial output
  // as a *sequence*, whatever the thread timing -- for full CQs, prefix
  // projections and general projections alike, under both trie plans.
  struct Case {
    std::string label;
    Query query;
    Database db;
    PlanKind kind = PlanKind::kGenericJoin;
  };
  std::vector<Case> cases;
  cases.push_back({"triangle",
                   ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).")
                       .ValueOrDie(),
                   TriangleDatabase(60)});
  cases.push_back({"two-hop",
                   ParseQuery("P(X,Y,Z) :- E(X,Y), E(Y,Z).").ValueOrDie(),
                   TriangleDatabase(60)});
  // Binds Y, X, then Z: the head {X, Y} is the bound prefix, and the
  // witness-only exit emits each (X, Y) once.
  cases.push_back({"two-hop prefix projection",
                   ParseQuery("P(X,Y) :- E(X,Y), E(Y,Z).").ValueOrDie(),
                   TriangleDatabase(60)});
  // A general projection: the order binds a body-only variable before the
  // last head variable, so one (A, C) pair is derived from several depth-0
  // subtrees and the merge must keep its serial (first) occurrence.
  const Query three_hop =
      ParseQuery("Q(A,C) :- E(A,X), E(X,B), E(B,C).").ValueOrDie();
  cases.push_back({"three-hop projection", three_hop, ChordedCycle(2000)});
  cases.push_back({"three-hop projection (hybrid)", three_hop,
                   ChordedCycle(2000), PlanKind::kHybridYannakakis});
  Rng rng(20261017);
  for (int trial = 0; trial < 8; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 3;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 40;
    opts.domain_size = 6;
    Database db = RandomDatabase(q, opts);
    cases.push_back({"random " + q.ToString(), q, std::move(db)});
  }

  ThreadPool pool1(1), pool3(3), pool7(7);
  for (const Case& c : cases) {
    EvalStats serial_stats;
    auto serial =
        EvaluateQuery(c.query, c.db, c.kind, nullptr, nullptr, &serial_stats);
    ASSERT_TRUE(serial.ok()) << c.label;
    const std::vector<Tuple> serial_rows = serial->tuples();
    for (ThreadPool* pool : {&pool1, &pool3, &pool7}) {
      const std::string tag =
          c.label + " pool " + std::to_string(pool->num_workers());
      EvalContext ctx(c.db);
      EvalStats stats;
      auto parallel =
          EvaluateQuery(c.query, c.db, c.kind, &ctx, pool, &stats);
      ASSERT_TRUE(parallel.ok()) << tag;
      EXPECT_EQ(parallel->tuples(), serial_rows) << tag;
      EXPECT_EQ(parallel->generation(), serial->generation()) << tag;
      EXPECT_EQ(stats.intermediate_sizes, serial_stats.intermediate_sizes)
          << tag;
      EXPECT_EQ(stats.projection_subtrees_skipped,
                serial_stats.projection_subtrees_skipped)
          << tag;
    }
  }
}

TEST(ParallelGenericJoinTest, LoneDepth0MatchChargesSeeksOnce) {
  // X binds first (it is in both atoms) and has a single match, so the
  // pool path has nothing to split: it descends from the collected match
  // instead of re-running depth 0, and charges exactly the serial seeks.
  auto q = ParseQuery("T(X,Y) :- E(X,Y), F(X).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* e = db.AddRelation("E", 2);
  for (int y = 0; y < 20; ++y) e->Insert({7, y});
  db.AddRelation("F", 1)->Insert({7});

  EvalStats serial_stats;
  auto serial = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, nullptr,
                              &serial_stats);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(3);
  EvalStats pool_stats;
  auto pooled = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, &pool,
                              &pool_stats);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->tuples(), serial->tuples());
  ASSERT_EQ(serial_stats.intermediate_sizes.size(), 2u);
  EXPECT_EQ(serial_stats.intermediate_sizes[0], 1u);
  EXPECT_EQ(pool_stats.intermediate_sizes, serial_stats.intermediate_sizes);
  EXPECT_EQ(pool_stats.intersection_seeks, serial_stats.intersection_seeks);
  EXPECT_EQ(pool_stats.parallel_workers, 0u);
}

// --- Shared-context stress -------------------------------------------------

/// The tentpole stress: T threads evaluate concurrently through ONE
/// EvalContext -- same query shape (hammering the plan entry and its
/// call_once probe) and trie tier -- while the main thread mutates body
/// relations strictly *between* parallel phases, per the documented
/// readers-xor-writer contract. Every thread's result must equal the
/// single-threaded naive oracle computed before the phase, and the
/// context's bookkeeping must stay exact.
TEST(ConcurrencyStressTest, ManyReadersSharedContextInterleavedMutations) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  constexpr int kTrials = 3;
  Rng rng(97);

  for (int trial = 0; trial < kTrials; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 3 + static_cast<int>(rng.NextBelow(3));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 2;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 20;
    opts.domain_size = 5;
    Database db = RandomDatabase(q, opts);
    EvalContext ctx(db);

    std::set<std::string> body_rels;
    for (const Atom& atom : q.atoms()) body_rels.insert(atom.relation);

    for (int round = 0; round < kRounds; ++round) {
      if (round > 0) {
        // Writer phase: no evaluation is running; mutate a few relations
        // so the next reader phase must rebuild (and re-share) tries.
        for (const std::string& name : body_rels) {
          if (rng.NextBelow(2) == 0) continue;
          Relation* rel = db.FindMutable(name);
          ASSERT_NE(rel, nullptr);
          for (int i = 0; i < 3; ++i) {
            Tuple t(rel->arity());
            for (int p = 0; p < rel->arity(); ++p) {
              t[p] = static_cast<Value>(rng.NextBelow(opts.domain_size));
            }
            rel->Insert(t);
          }
        }
      }

      const std::string tag = q.ToString() + " trial " +
                              std::to_string(trial) + " round " +
                              std::to_string(round);
      auto oracle = EvaluateQuery(q, db, PlanKind::kNaive);
      ASSERT_TRUE(oracle.ok()) << tag;

      // Reader phase: every thread alternates plans, all through the one
      // shared context, each with its own EvalStats (the contract forbids
      // sharing those).
      std::vector<Result<Relation>> results(kThreads,
                                            Relation("pending", 0));
      std::vector<EvalStats> stats(kThreads);
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          const PlanKind kind = (t % 2 == 0) ? PlanKind::kGenericJoin
                                             : PlanKind::kHybridYannakakis;
          results[t] = EvaluateQuery(q, db, kind, &ctx, nullptr, &stats[t]);
        });
      }
      for (std::thread& t : threads) t.join();

      std::size_t plan_misses = 0;
      for (int t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(results[t].ok()) << tag << " thread " << t;
        ExpectSameRelation(*oracle, *results[t],
                           tag + " thread " + std::to_string(t));
        plan_misses += stats[t].plan_cache_misses;
      }
      // Plan-tier exactness under contention: the map insertion happens
      // under a lock, so across all concurrent first evaluations of this
      // shape exactly ONE thread ever counts the miss -- in the first
      // round. Later rounds are all hits (mutations never invalidate the
      // shape-keyed plan).
      if (round == 0) {
        EXPECT_EQ(plan_misses, 1u) << tag;
      } else {
        EXPECT_EQ(plan_misses, 0u) << tag;
      }
      EXPECT_EQ(ctx.plan_size(), 1u) << tag;
    }

    // Lifetime counters are atomics: totals must reconcile with the
    // per-thread sums (no lost updates under contention).
    EXPECT_EQ(ctx.plan_hits() + ctx.plan_misses(),
              static_cast<std::size_t>(kThreads / 2) * kRounds)
        << "hybrid evaluations out of " << kThreads * kRounds;
  }
}

/// Threads sharing one context AND one pool: each evaluation additionally
/// fans its enumeration out over the same ThreadPool (batches serialize on
/// the pool's caller lock; correctness must be unaffected).
TEST(ConcurrencyStressTest, SharedPoolAcrossConcurrentEvaluations) {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = TriangleDatabase(40);
  EvalContext ctx(db);
  ThreadPool pool(2);

  auto oracle = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(oracle.ok());

  constexpr int kThreads = 6;
  std::vector<Result<Relation>> results(kThreads, Relation("pending", 0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EvalStats stats;
      results[t] =
          EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, &pool, &stats);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << "thread " << t;
    ExpectSameRelation(*oracle, *results[t],
                       "shared pool thread " + std::to_string(t));
  }
}

/// A trie pinned before a mutation-triggered rebuild must stay valid: the
/// shared_ptr entry swap must never dangle a reader. Single-threaded
/// (deterministic), but it exercises exactly the lifetime edge the
/// concurrent design rests on.
TEST(ConcurrencyStressTest, PinnedTrieSurvivesRebuild) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 2});
  EvalContext ctx(db);

  std::shared_ptr<const TrieIndex> pinned =
      ctx.GetTrie(*r, {{0}, {1}}, nullptr);
  EXPECT_EQ(pinned->num_tuples(), 1u);

  r->Insert({3, 4});  // bump the generation
  std::shared_ptr<const TrieIndex> rebuilt =
      ctx.GetTrie(*r, {{0}, {1}}, nullptr);
  EXPECT_NE(pinned.get(), rebuilt.get());
  // The old index is alive and still describes the pre-mutation state.
  EXPECT_EQ(pinned->num_tuples(), 1u);
  EXPECT_EQ(rebuilt->num_tuples(), 2u);
  EXPECT_EQ(ctx.size(), 1u);  // one entry, swapped in place
}

}  // namespace
}  // namespace cqbounds
