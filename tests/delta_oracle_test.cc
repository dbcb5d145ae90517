// Perft-style oracle for incremental (delta) evaluation: a long-lived
// EvalContext accumulates patched tries, cached plans, and semi-join
// survivor state across randomized mutation scripts, and after *every*
// mutation step, every plan evaluated through it must be byte-identical --
// output set and the result-shaped counters (output_size, intermediate
// profile, and, whenever a pass actually ran, semijoin_dropped_tuples) --
// to an evaluation through a freshly constructed from-scratch context.
// The mutation vocabulary (append / bulk-append / remove / clear) comes
// from tests/mutation_harness.h, shared with plan_cache_test.cc; like a
// chess engine's perft, a divergence pinpoints the exact seed + round +
// ops that broke the incremental bookkeeping.
//
// On top of exactness the suite asserts the delta machinery's reason to
// exist: on a history of appends and removals -- tombstones and the
// compactions they trip alike -- a warm context never rebuilds a trie
// from scratch (trie_rebuilds == 0 after warmup -- every refresh is a
// patch or an unpatch; only a Clear clears that freedom), and
// deterministic degenerate cases cover duplicate appends (set semantics
// make them free), appends to an initially empty relation, depth-0
// (nullary) patches, tombstone removals served by trie unpatches, and the
// counting delta pass's kill and revival transitions.
// DeltaOracleCompactionTest compacts a small hot atom between every two
// evaluations next to large partners and asserts delta passes only.
// DeltaOracleConcurrencyTest alternates writer phases (with guaranteed
// tombstone pressure) with parallel reader phases (the readers-xor-writer
// contract); both ride the TSan CI leg.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/column_store.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "mutation_harness.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cqbounds {
namespace {

using testutil::ApplyMutation;
using testutil::ExpectSameRelation;
using testutil::kAllPlans;
using testutil::MutationOp;
using testutil::RandomMutationOp;
using testutil::ScriptTrace;

/// Asserts the warm (delta-maintained) run matches the from-scratch run on
/// everything a caller can observe about the *result*: the tuple set and
/// the data-dependent counters. Cache-shaped counters (hits, misses,
/// patches, survivor_view_hits) legitimately differ between a warm and a
/// cold context and are checked by invariant instead.
void ExpectSameOutcome(const Relation& want, const EvalStats& want_stats,
                       const Relation& got, const EvalStats& got_stats,
                       const std::string& context) {
  ExpectSameRelation(want, got, context);
  EXPECT_EQ(got_stats.output_size, want_stats.output_size) << context;
  EXPECT_EQ(got_stats.max_intermediate, want_stats.max_intermediate)
      << context;
  EXPECT_EQ(got_stats.total_intermediate, want_stats.total_intermediate)
      << context;
  EXPECT_EQ(got_stats.intermediate_sizes, want_stats.intermediate_sizes)
      << context;
  // A *full* warm pass starts from nothing, exactly like the cold run, so
  // it must report the same drop count. A delta pass only touches the
  // tuples the mutation window moved (its dropped counter is the per-delta
  // kill total, not a census), so for it the comparable quantity is the
  // dangling total below.
  if (got_stats.semijoin_pass_ran && !got_stats.semijoin_delta_pass) {
    EXPECT_EQ(got_stats.semijoin_dropped_tuples,
              want_stats.semijoin_dropped_tuples)
        << context;
  }
  // Whether the warm run skipped, delta-extended, or fully re-ran the
  // pass, the semi-join state left in force must shun exactly the tuples a
  // from-scratch reduction drops.
  if (got_stats.semijoin_pass_ran || got_stats.semijoin_pass_skipped) {
    EXPECT_EQ(got_stats.semijoin_dangling_tuples,
              want_stats.semijoin_dropped_tuples)
        << context;
  }
  // Counter taxonomy invariants (docs/EVALUATION.md): every patch, unpatch
  // and rebuild is a miss (survivor-trie builds are misses only), and a
  // cold context can never have patched or unpatched.
  EXPECT_LE(got_stats.trie_patches + got_stats.trie_unpatches +
                got_stats.trie_rebuilds,
            got_stats.trie_cache_misses)
      << context;
  EXPECT_EQ(want_stats.trie_patches, 0u) << context;
  EXPECT_EQ(want_stats.trie_unpatches, 0u) << context;
}

/// Asserts the warm context's semi-join books for `q` agree with a fresh
/// context's on everything a from-scratch pass determines: per atom the
/// dangling census, the all-survive flag, and the drop step of every live
/// row. Both contexts read `db`, so row ids line up; removed rows may stay
/// on the warm books (as kAbsent) until a compaction drops them.
void ExpectSameBooks(EvalContext* warm, EvalContext* fresh, const Query& q,
                     const Database& db, const std::string& context) {
  EvalContext::CachedPlan& got_plan = warm->GetPlan(q, nullptr);
  EvalContext::CachedPlan& want_plan = fresh->GetPlan(q, nullptr);
  MutexLock got_lock(got_plan.skip_mu);
  MutexLock want_lock(want_plan.skip_mu);
  const EvalContext::SemijoinState* got = got_plan.semijoin.get();
  const EvalContext::SemijoinState* want = want_plan.semijoin.get();
  ASSERT_EQ(got == nullptr, want == nullptr) << context;
  if (want == nullptr) return;
  EXPECT_EQ(got->dangling, want->dangling) << context;
  EXPECT_EQ(got->all_survive, want->all_survive) << context;
  ASSERT_EQ(got->drop_step.size(), q.atoms().size()) << context;
  ASSERT_EQ(want->drop_step.size(), q.atoms().size()) << context;
  for (std::size_t i = 0; i < q.atoms().size(); ++i) {
    const ColumnStore& store = db.Find(q.atoms()[i].relation)->store();
    ASSERT_EQ(got->drop_step[i].size(), store.size()) << context;
    ASSERT_EQ(want->drop_step[i].size(), store.size()) << context;
    std::size_t mismatches = 0;
    std::size_t first = 0;
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row) ||
          got->drop_step[i][row] == want->drop_step[i][row]) {
        continue;
      }
      if (mismatches++ == 0) first = row;
    }
    EXPECT_EQ(mismatches, 0u)
        << context << ": atom " << i << ", first at row " << first
        << " (warm " << got->drop_step[i][first] << ", fresh "
        << want->drop_step[i][first] << ")";
  }
}

// --- The randomized oracle -------------------------------------------------

class DeltaOracleTest : public ::testing::TestWithParam<int> {};

// 3 trials x 125 rounds x 4 plans = 1500 mutation/evaluation
// interleavings per seed, every one cross-checked against a from-scratch
// context. The third trial allows ternary atoms, so semi-join steps with
// multi-column keys occur. Every ~16th round evaluates the four plans *concurrently*
// through the shared warm context (distinct EvalStats per thread, as the
// contract requires) before the serial cross-check.
TEST_P(DeltaOracleTest, MutationScriptsMatchFromScratchOracle) {
  const std::uint64_t seed = GetParam() * 7919 + 17;
  Rng rng(seed);
  ThreadPool pool(3);
  for (int trial = 0; trial < 3; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = trial == 2 ? 3 : 2;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 10;
    opts.domain_size = 4;
    Database db = RandomDatabase(q, opts);
    EvalContext delta_ctx(db);

    std::set<std::string> body_rels;
    for (const Atom& atom : q.atoms()) body_rels.insert(atom.relation);

    // True once any mutation actually forced the rebuild path: a Clear
    // that changed a relation. Tombstone removals -- and the compactions
    // they trip, journaled as epochs -- stay servable through DeltasSince,
    // so they do NOT void the rebuild-freedom assertion below.
    bool rebuild_forcing_seen = false;

    for (int round = 0; round < 125; ++round) {
      std::vector<MutationOp> round_ops;
      if (round > 0) {
        for (const std::string& name : body_rels) {
          if (rng.NextBelow(4) == 0) continue;
          Relation* rel = db.FindMutable(name);
          ASSERT_NE(rel, nullptr);
          round_ops.push_back(RandomMutationOp(*rel, opts.domain_size,
                                               /*allow_structural=*/true,
                                               &rng));
          const MutationOp& op = round_ops.back();
          const bool changed = ApplyMutation(op, &db);
          if (changed && op.kind == MutationOp::Kind::kClear) {
            rebuild_forcing_seen = true;
          }
        }
      }
      SCOPED_TRACE(ScriptTrace(seed, round, round_ops));
      SCOPED_TRACE("query " + q.ToString());

      // Warm evaluations through the long-lived context, concurrently on
      // every ~16th round (readers only -- the mutations above finished).
      std::vector<std::optional<Result<Relation>>> got(4);
      std::vector<EvalStats> got_stats(4);
      if (round % 16 == 15) {
        pool.ParallelFor(4, [&](std::size_t i) {
          got[i] = EvaluateQuery(q, db, kAllPlans[i], &delta_ctx,
                                 /*pool=*/nullptr, &got_stats[i]);
        });
      } else {
        for (std::size_t i = 0; i < 4; ++i) {
          got[i] = EvaluateQuery(q, db, kAllPlans[i], &delta_ctx,
                                 /*pool=*/nullptr, &got_stats[i]);
        }
      }

      for (std::size_t i = 0; i < 4; ++i) {
        const PlanKind kind = kAllPlans[i];
        const std::string tag = std::string("plan ") + PlanKindName(kind);
        ASSERT_TRUE(got[i].has_value() && got[i]->ok()) << tag;

        // The from-scratch oracle: a cold context rebuilt from nothing.
        EvalContext fresh_ctx(db);
        EvalStats want_stats;
        auto want =
            EvaluateQuery(q, db, kind, &fresh_ctx, /*pool=*/nullptr,
                          &want_stats);
        ASSERT_TRUE(want.ok()) << tag;
        ExpectSameOutcome(*want, want_stats, *got[i].value(), got_stats[i],
                          tag);
        if (kind == PlanKind::kHybridYannakakis) {
          ExpectSameBooks(&delta_ctx, &fresh_ctx, q, db, tag);
        }

        // The delta guarantee: once every layout is cached (round 0 warms
        // the plan), a history of appends and tombstone removals never
        // forces a from-scratch trie rebuild -- every refresh is a patch
        // or an unpatch. Asserted for the generic join only: the hybrid's
        // survivor-trie overrides bypass the trie tier, so an atom that
        // dropped tuples in an earlier round may legitimately cold-build
        // its cache entry later.
        if (round > 0 && !rebuild_forcing_seen &&
            kind == PlanKind::kGenericJoin) {
          EXPECT_EQ(got_stats[i].trie_rebuilds, 0u) << tag;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaOracleTest, ::testing::Range(1, 9));

// --- Deterministic degenerate cases ----------------------------------------

TEST(DeltaDegenerateTest, DuplicateAppendIsFreeUnderSetSemantics) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  for (int i = 0; i < 4; ++i) {
    r->Insert({i, i + 1});
    s->Insert({i + 1, i + 2});
  }
  EvalContext ctx(db);
  EvalStats stats;
  auto before = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                              &stats);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(stats.trie_cache_misses, 0u);

  // Set semantics: re-inserting an existing tuple is a no-op that must not
  // move the generation -- the cached tries stay exact, no patch happens.
  MutationOp dup;
  dup.kind = MutationOp::Kind::kAppend;
  dup.relation = "R";
  dup.tuples.push_back({0, 1});
  EXPECT_FALSE(ApplyMutation(dup, &db));

  auto after = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(stats.trie_cache_misses, 0u);
  EXPECT_EQ(stats.trie_patches, 0u);
  EXPECT_EQ(stats.trie_rebuilds, 0u);
  EXPECT_EQ(stats.delta_tuples_processed, 0u);
  ExpectSameRelation(*before, *after, "duplicate append changed the result");
}

TEST(DeltaDegenerateTest, AppendToEmptyRelationPatchesFromEmptyBase) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  s->Insert({1, 2});
  EvalContext ctx(db);
  EvalStats stats;
  // Cold run over the empty R caches an empty trie for it -- and only for
  // it: an empty atom short-circuits the remaining trie builds, so S stays
  // uncached.
  auto empty = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(stats.trie_rebuilds, 1u);

  // The first-ever tuple arrives as a delta against the empty base: R is
  // patched, never rebuilt; the one rebuild is S's first-ever (cold) build.
  ASSERT_TRUE(r->Insert({0, 1}));
  auto grown = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->size(), 1u);
  EXPECT_TRUE(grown->Contains({0, 2}));
  EXPECT_EQ(stats.trie_patches, 1u);
  EXPECT_EQ(stats.trie_rebuilds, 1u);
  EXPECT_GE(stats.delta_tuples_processed, 1u);
}

TEST(DeltaDegenerateTest, NullaryAtomPatchFlipsTheBooleanGuard) {
  // G() is a depth-0 trie: its patch carries no keys, only the empty/
  // non-empty bit. Appending the empty tuple must flip the guard through
  // the patch path, not a rebuild.
  Query q;
  const int x = q.InternVariable("X");
  q.SetHead("Q", {x});
  q.AddAtom("R", {x});
  q.AddAtom("G", {});
  ASSERT_TRUE(q.Validate().ok());
  Database db;
  Relation* r = db.AddRelation("R", 1);
  Relation* g = db.AddRelation("G", 0);
  r->Insert({7});
  EvalContext ctx(db);
  EvalStats stats;
  auto gated = EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->size(), 0u);

  ASSERT_TRUE(g->Insert({}));
  auto open = EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                            &stats);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->size(), 1u);
  EXPECT_TRUE(open->Contains({7}));
  EXPECT_GE(stats.trie_patches, 1u);
  EXPECT_EQ(stats.trie_rebuilds, 0u);
}

TEST(DeltaDegenerateTest, AppendDeltaRevivesPreviouslyDanglingTuple) {
  // A dirty survivor-view state (R holds a dangling tuple) keyed by the
  // generation vector: bumping only S invalidates the outright reuse -- a
  // partial match is no match -- but the counting delta pass extends the
  // dirty state in O(delta): the appended S tuple flips a semi-join key's
  // support from zero, and the previously dropped R tuple is *revived*
  // from the per-atom dropped book without re-reducing the database.
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  r->Insert({1, 2});
  r->Insert({8, 9});  // dangling: no S tuple starts with 9
  s->Insert({2, 3});
  EvalContext ctx(db);

  EvalStats stats;
  auto first = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stats.semijoin_pass_ran);
  ASSERT_EQ(stats.semijoin_dropped_tuples, 1u);
  ASSERT_EQ(stats.semijoin_dangling_tuples, 1u);

  // Unchanged generation vector: survivor views are reused outright, and
  // the dangling census still names the dropped tuple.
  auto reused = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx,
                              nullptr, &stats);
  ASSERT_TRUE(reused.ok());
  EXPECT_TRUE(stats.semijoin_pass_skipped);
  EXPECT_GE(stats.survivor_view_hits, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 1u);

  // Partial bump: S moves, R does not. The delta pass revives (8,9).
  ASSERT_TRUE(s->Insert({9, 4}));
  auto bumped = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx,
                              nullptr, &stats);
  ASSERT_TRUE(bumped.ok());
  EXPECT_FALSE(stats.semijoin_pass_skipped);
  EXPECT_TRUE(stats.semijoin_pass_ran);
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_revived_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dropped_tuples, 0u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 0u);
  EXPECT_TRUE(bumped->Contains({8, 4}));

  auto oracle = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRelation(*oracle, *bumped, "revival delta result");

  // Byte-exactness after the revival: a from-scratch context must agree
  // on the result and on the dangling census (nothing dangles now).
  EvalContext fresh_ctx(db);
  EvalStats fresh_stats;
  auto fresh = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &fresh_ctx,
                             nullptr, &fresh_stats);
  ASSERT_TRUE(fresh.ok());
  ExpectSameOutcome(*fresh, fresh_stats, *bumped, stats, "revival vs fresh");
}

TEST(DeltaDegenerateTest, TombstoneRemoveUnpatchesInsteadOfRebuilding) {
  // A small removal from a warm relation must be served by the trie
  // *unpatch* path: the journal names the tombstoned row, the cached trie
  // subtracts its keys' support, and no from-scratch rebuild happens.
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  for (int i = 0; i < 40; ++i) {
    r->Insert({i, i + 1});
    s->Insert({i + 1, i + 2});
  }
  EvalContext ctx(db);
  EvalStats stats;
  auto before = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                              &stats);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->Contains({5, 7}));

  // 1 dead of 40 physical rows: far below the quarter-dead compaction
  // threshold, so the removal is a tombstone and deltas stay servable.
  ASSERT_TRUE(r->Remove({5, 6}));
  ASSERT_EQ(r->compactions(), 0u);

  auto after = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_GE(stats.trie_unpatches, 1u);
  EXPECT_EQ(stats.trie_rebuilds, 0u);
  EXPECT_GE(stats.delta_tuples_processed, 1u);
  EXPECT_FALSE(after->Contains({5, 7}));

  auto oracle = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRelation(*oracle, *after, "unpatched result");
}

TEST(DeltaDegenerateTest, RemovalDeltaKillsNowUnsupportedTuples) {
  // The kill side of the counting delta pass: removing the sole S tuple
  // supporting R(8,9) drives its semi-join key's support to zero, and the
  // delta pass must kill the previously *surviving* R tuple -- without a
  // full re-reduce.
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  r->Insert({1, 2});
  r->Insert({8, 9});
  // 4 physical rows in S keep the single tombstone below the compaction
  // threshold.
  s->Insert({2, 3});
  s->Insert({9, 4});
  s->Insert({2, 5});
  s->Insert({2, 6});
  EvalContext ctx(db);

  EvalStats stats;
  auto first = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stats.semijoin_pass_ran);
  ASSERT_EQ(stats.semijoin_dropped_tuples, 0u);
  ASSERT_TRUE(first->Contains({8, 4}));

  ASSERT_TRUE(s->Remove({9, 4}));
  ASSERT_EQ(s->compactions(), 0u);

  auto after = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                             &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(stats.semijoin_pass_ran);
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_killed_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 1u);
  EXPECT_FALSE(after->Contains({8, 4}));

  // Byte-exact against a from-scratch context, which re-discovers the
  // same dangler the delta pass killed.
  EvalContext fresh_ctx(db);
  EvalStats fresh_stats;
  auto fresh = EvaluateQuery(*q, db, PlanKind::kHybridYannakakis, &fresh_ctx,
                             nullptr, &fresh_stats);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh_stats.semijoin_dropped_tuples, 1u);
  ExpectSameOutcome(*fresh, fresh_stats, *after, stats, "kill vs fresh");
}

/// Evaluates `q` through `ctx` and cross-checks the outcome against a
/// from-scratch context, returning the warm stats.
EvalStats EvaluateAndCrossCheck(const Query& q, const Database& db,
                                EvalContext* ctx, const std::string& tag) {
  EvalStats stats;
  auto warm = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, ctx, nullptr,
                            &stats);
  EXPECT_TRUE(warm.ok()) << tag;
  EvalContext fresh_ctx(db);
  EvalStats fresh_stats;
  auto fresh = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &fresh_ctx,
                             nullptr, &fresh_stats);
  EXPECT_TRUE(fresh.ok()) << tag;
  if (warm.ok() && fresh.ok()) {
    ExpectSameOutcome(*fresh, fresh_stats, *warm, stats, tag);
    ExpectSameBooks(ctx, &fresh_ctx, q, db, tag);
  }
  return stats;
}

TEST(DeltaDegenerateTest, RowDroppedRevivedAndRedroppedAtTheSameStep) {
  // R(8,9) dangles at the step filtering R by S's Y column. Three windows
  // revive it, re-drop it at that same step, and revive it again from a
  // re-inserted support that sits in a new physical row; a fourth
  // re-inserts R(8,9) itself and kills the new copy. The removed S and R
  // rows stay linked in their key chains and must be skipped.
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  r->Insert({1, 2});
  r->Insert({8, 9});
  // Filler rows keep every tombstone below the compaction threshold.
  for (int i = 0; i < 16; ++i) {
    r->Insert({100 + i, 2});
    s->Insert({2, 100 + i});
  }
  EvalContext ctx(db);

  EvalStats stats = EvaluateAndCrossCheck(*q, db, &ctx, "full pass");
  ASSERT_TRUE(stats.semijoin_pass_ran);
  ASSERT_FALSE(stats.semijoin_delta_pass);
  ASSERT_EQ(stats.semijoin_dangling_tuples, 1u);

  ASSERT_TRUE(s->Insert({9, 4}));
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "window 1: revive");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_revived_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 0u);

  ASSERT_TRUE(s->Remove({9, 4}));
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "window 2: re-drop");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_killed_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 1u);

  ASSERT_TRUE(s->Insert({9, 4}));
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "window 3: revive again");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_revived_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 0u);

  // R(8,9) leaves and returns as a new row while its support goes: the
  // new row arrives dangling, the old one is no longer on the books.
  ASSERT_TRUE(r->Remove({8, 9}));
  ASSERT_TRUE(r->Insert({8, 9}));
  ASSERT_TRUE(s->Remove({9, 4}));
  ASSERT_EQ(r->compactions() + s->compactions(), 0u);
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "window 4: new row dangles");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_killed_tuples, 0u);
  EXPECT_EQ(stats.semijoin_dropped_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 1u);

  ASSERT_TRUE(s->Insert({9, 5}));
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "window 5: revive new row");
  EXPECT_EQ(stats.semijoin_revived_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 0u);
}

TEST(DeltaDegenerateTest, WideStepKeysAndRepeatedVariableAtom) {
  // R and S share (X,Y): their semi-join steps key on two columns. T(Z,Z)
  // repeats a variable, so T rows with unequal columns never enter the
  // reduction -- appending or removing one must leave the books alone.
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(X,Y,Z), T(Z,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 3);
  Relation* t = db.AddRelation("T", 2);
  for (int i = 0; i < 8; ++i) {
    r->Insert({i, i + 1});
    s->Insert({i, i + 1, i});
    t->Insert({i, i});
  }
  r->Insert({1, 1});     // shares X with (1,2), but (1,1) has no S match
  s->Insert({2, 2, 2});  // shares Y with R(1,2), but (2,2) is no R key
  t->Insert({3, 4});     // fails T's equality filter
  EvalContext ctx(db);

  EvalStats stats = EvaluateAndCrossCheck(*q, db, &ctx, "full pass");
  ASSERT_TRUE(stats.semijoin_pass_ran);
  EXPECT_EQ(stats.semijoin_dangling_tuples, 2u);

  // Kill through a width-2 key: S(3,4,3) was R(3,4)'s only (X,Y) support;
  ASSERT_TRUE(s->Remove({3, 4, 3}));
  // T(3,3) loses its only Z support in the same window.
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "kill on (X,Y)");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_killed_tuples, 2u);

  // Revive R(1,1) and S(2,2,2) through width-2 keys back from zero.
  ASSERT_TRUE(s->Insert({1, 1, 5}));
  ASSERT_TRUE(r->Insert({2, 2}));
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "revive on (X,Y)");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_revived_tuples, 2u);

  // Self-inconsistent T rows come and go without touching the books; the
  // self-consistent T(6,6) leaving kills through the Z step.
  ASSERT_TRUE(t->Insert({5, 6}));
  ASSERT_TRUE(t->Remove({3, 4}));
  ASSERT_TRUE(t->Remove({6, 6}));
  ASSERT_EQ(t->compactions(), 0u);
  stats = EvaluateAndCrossCheck(*q, db, &ctx, "repeated-variable window");
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_GE(stats.semijoin_killed_tuples, 1u);
}

TEST(DeltaCostTest, DeltaPassVisitsOnlyRowsSharingAChangedKey) {
  // A 10^5-row dangling chain: R(i,i) for every i, S(i,i) for even i, so
  // half of R dangles. The full pass reads every row; a 1-row delta that
  // kills and one that revives read O(1) rows, not the base.
  constexpr int kRows = 100000;
  auto parsed = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(parsed.ok());
  // A boolean head: the pass is the same, the enumeration trivial.
  Query q = *parsed;
  q.SetHead(q.head_relation(), {});
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  std::vector<Value> r_rows;
  std::vector<Value> s_rows;
  for (int i = 0; i < kRows; ++i) {
    r_rows.insert(r_rows.end(), {i, i});
    if (i % 2 == 0) s_rows.insert(s_rows.end(), {i, i});
  }
  r->InsertFlat(r_rows, kRows);
  s->InsertFlat(s_rows, kRows / 2);
  EvalContext ctx(db);

  EvalStats stats;
  ASSERT_TRUE(
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &stats).ok());
  ASSERT_TRUE(stats.semijoin_pass_ran);
  ASSERT_FALSE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_dangling_tuples, static_cast<std::size_t>(kRows / 2));
  EXPECT_GE(stats.semijoin_rows_visited, static_cast<std::size_t>(kRows));

  ASSERT_TRUE(s->Remove({10, 10}));
  ASSERT_TRUE(
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &stats).ok());
  ASSERT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_killed_tuples, 1u);
  EXPECT_LE(stats.semijoin_rows_visited, 64u);

  ASSERT_TRUE(s->Insert({11, 3}));
  ASSERT_TRUE(
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                    &stats).ok());
  ASSERT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_revived_tuples, 1u);
  EXPECT_EQ(stats.semijoin_dangling_tuples, static_cast<std::size_t>(kRows / 2));
  EXPECT_LE(stats.semijoin_rows_visited, 64u);
}

/// The semi-join rows a delta pass visits when the small atom H(X) of
/// Q() :- H(X), R(X,Y), S(Y,Z) compacts inside its window, next to
/// partners of `rows` rows each: R(i,i) for every i, S(i,i) for even i.
/// The window removes three of H's eight rows -- the third removal
/// compacts H -- and appends three fresh ones.
std::size_t RowsVisitedAcrossACompaction(int rows) {
  auto parsed = ParseQuery("Q(X) :- H(X), R(X,Y), S(Y,Z).");
  CQB_CHECK(parsed.ok());
  Query q = *parsed;
  q.SetHead(q.head_relation(), {});
  Database db;
  Relation* h = db.AddRelation("H", 1);
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  std::vector<Value> r_rows;
  std::vector<Value> s_rows;
  for (int i = 0; i < rows; ++i) {
    r_rows.insert(r_rows.end(), {i, i});
    if (i % 2 == 0) s_rows.insert(s_rows.end(), {i, i});
  }
  r->InsertFlat(r_rows, static_cast<std::size_t>(rows));
  s->InsertFlat(s_rows, static_cast<std::size_t>(rows / 2));
  for (Value x = 0; x < 8; ++x) h->Insert({x});
  EvalContext ctx(db);
  const std::string tag = "partners of " + std::to_string(rows) + " rows";
  EvalStats stats = EvaluateAndCrossCheck(q, db, &ctx, tag + ": full pass");
  EXPECT_FALSE(stats.semijoin_delta_pass) << tag;

  for (Value x = 0; x < 3; ++x) EXPECT_TRUE(h->Remove({x}));
  EXPECT_EQ(h->compactions(), 1u) << tag;
  h->InsertBatch({{1000}, {1001}, {1002}});
  stats = EvaluateAndCrossCheck(q, db, &ctx, tag + ": compact + delta");
  EXPECT_TRUE(stats.semijoin_delta_pass) << tag;
  return stats.semijoin_rows_visited;
}

TEST(DeltaCostTest, CompactionOfASmallAtomVisitsOnlyTheDelta) {
  // The compacted atom's books are remapped in O(|H|); the partners are
  // neither remapped nor scanned, so the visits do not grow with them.
  const std::size_t small = RowsVisitedAcrossACompaction(10000);
  const std::size_t large = RowsVisitedAcrossACompaction(100000);
  EXPECT_LE(large, 64u);
  EXPECT_EQ(small, large);
}

/// The semi-join rows visited when three rows arrive in the middle atom of
/// the chain Q() :- R(X,Y), S(Y,Z), T(Z,W) over `rows` base rows per atom,
/// R(i,i), S(i,i) and T(i,i) for every i: `full` for the first pass from
/// empty books, `delta` for the pass over the append window. The appended
/// rows S(i,i+1) join existing keys, so they survive and no key's support
/// crosses zero.
struct AppendVisits {
  std::size_t full = 0;
  std::size_t delta = 0;
};

AppendVisits RowsVisitedByAnAppendWindow(int rows) {
  auto parsed = ParseQuery("Q(X) :- R(X,Y), S(Y,Z), T(Z,W).");
  CQB_CHECK(parsed.ok());
  Query q = *parsed;
  q.SetHead(q.head_relation(), {});
  Database db;
  std::vector<Value> diagonal;
  for (int i = 0; i < rows; ++i) diagonal.insert(diagonal.end(), {i, i});
  for (const char* name : {"R", "S", "T"}) {
    db.AddRelation(name, 2)->InsertFlat(diagonal,
                                        static_cast<std::size_t>(rows));
  }
  EvalContext ctx(db);
  const std::string tag = std::to_string(rows) + " base rows";
  AppendVisits visits;
  EvalStats stats = EvaluateAndCrossCheck(q, db, &ctx, tag + ": full pass");
  EXPECT_TRUE(stats.semijoin_pass_ran && !stats.semijoin_delta_pass) << tag;
  EXPECT_EQ(stats.delta_tuples_processed, 0u) << tag;
  visits.full = stats.semijoin_rows_visited;

  db.FindMutable("S")->InsertBatch({{5, 6}, {7, 8}, {9, 10}});
  stats = EvaluateAndCrossCheck(q, db, &ctx, tag + ": append window");
  EXPECT_TRUE(stats.semijoin_delta_pass) << tag;
  EXPECT_EQ(stats.semijoin_dangling_tuples, 0u) << tag;
  visits.delta = stats.semijoin_rows_visited;
  return visits;
}

TEST(DeltaCostTest, AppendedRowsAreVisitedOncePerStep) {
  // S takes part in all four steps of the schedule (two as the source, two
  // as the target). A pass from empty books reads every row's key once
  // per step it takes part in; an appended row is read once per step too,
  // its chain link riding on its target step's re-check.
  const AppendVisits small = RowsVisitedByAnAppendWindow(10000);
  const AppendVisits large = RowsVisitedByAnAppendWindow(100000);
  EXPECT_EQ(small.full, 8u * 10000);
  EXPECT_EQ(large.full, 8u * 100000);
  EXPECT_EQ(small.delta, large.delta);
  EXPECT_LE(large.delta, 3u * 4);
}

// --- Compactions between evaluations ---------------------------------------

// warm-mutate's hot chain at test scale: the small hot atom H churns past
// its quarter-dead threshold between every two evaluations, next to large
// partners L and M whose slower churn compacts them now and then. Every
// compaction is journaled as an epoch, so after the first (full) pass the
// hybrid only ever runs delta passes and the generic join never rebuilds a
// trie, while both stay byte-identical to a from-scratch context.
TEST(DeltaOracleCompactionTest, HotAtomChurnsPastCompactionBetweenEvaluations) {
  const std::uint64_t seed = 0xC0FFEEu;
  Rng rng(seed);
  auto q = ParseQuery("QC(X,Z) :- H(X), L(X,Y), M(Y,Z).");
  ASSERT_TRUE(q.ok());
  constexpr Value kX = 400;         // L's x domain; H draws from 2 * kX
  constexpr Value kY = 600;
  constexpr std::size_t kHot = 40;  // |H|
  constexpr std::size_t kPartner = 3000;  // |L| = |M|
  Database db;
  Relation* h = db.AddRelation("H", 1);
  Relation* l = db.AddRelation("L", 2);
  Relation* m = db.AddRelation("M", 2);
  auto draw_hot = [&] { return Tuple{rng.NextInRange(0, 2 * kX - 1)}; };
  auto draw_l = [&] {
    return Tuple{rng.NextInRange(0, kX - 1), rng.NextInRange(0, kY - 1)};
  };
  auto draw_m = [&] {
    return Tuple{rng.NextInRange(0, 2 * kY - 1), rng.NextInRange(0, 99)};
  };
  while (h->size() < kHot) h->Insert(draw_hot());
  while (l->size() < kPartner) l->Insert(draw_l());
  while (m->size() < kPartner) m->Insert(draw_m());

  EvalContext ctx(db);
  // Removes `k` random live tuples of `rel`, then inserts `k` fresh ones.
  auto churn = [&rng](Relation* rel, std::size_t k, auto draw) {
    std::vector<Tuple> live = rel->tuples();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(rel->Remove(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    }
    for (std::size_t added = 0; added < k;) added += rel->Insert(draw());
  };
  for (int round = 0; round < 48; ++round) {
    const std::uint64_t hot_compactions = h->compactions();
    if (round > 0) {
      churn(h, 11, draw_hot);
      churn(l, 60, draw_l);
      churn(m, 60, draw_m);
      // 11 dead of 40 or so physical rows: H compacts every round.
      ASSERT_EQ(h->compactions(), hot_compactions + 1);
    }
    const std::string tag = "seed " + std::to_string(seed) + " round " +
                            std::to_string(round);
    for (const PlanKind kind :
         {PlanKind::kHybridYannakakis, PlanKind::kGenericJoin}) {
      EvalStats got_stats;
      auto got = EvaluateQuery(*q, db, kind, &ctx, nullptr, &got_stats);
      ASSERT_TRUE(got.ok()) << tag;
      EvalContext fresh_ctx(db);
      EvalStats want_stats;
      auto want = EvaluateQuery(*q, db, kind, &fresh_ctx, nullptr, &want_stats);
      ASSERT_TRUE(want.ok()) << tag;
      ExpectSameOutcome(*want, want_stats, *got, got_stats,
                        tag + " plan " + PlanKindName(kind));
      if (round == 0) continue;
      if (kind == PlanKind::kHybridYannakakis) {
        EXPECT_TRUE(got_stats.semijoin_pass_ran) << tag;
        EXPECT_TRUE(got_stats.semijoin_delta_pass) << tag;
      } else {
        EXPECT_EQ(got_stats.trie_rebuilds, 0u) << tag;
        EXPECT_GE(got_stats.trie_unpatches, 1u) << tag;
      }
    }
  }
  // The partners crossed their own thresholds too.
  EXPECT_GE(l->compactions(), 2u);
  EXPECT_GE(m->compactions(), 2u);
}

// --- Concurrency: readers-xor-writer phases under TSan ---------------------

// Alternates a writer phase (mutations, including the structural ops) with
// a reader phase fanning the trie-based plans out across threads that
// share the warm context -- the window where a stale entry is patched, a
// survivor view rebuilt under skip_mu, and late arrivals reuse it. The CI
// ThreadSanitizer job runs this suite by name.
TEST(DeltaOracleConcurrencyTest, MutateBetweenParallelEvaluationPhases) {
  const std::uint64_t seed = 0x5eedu;
  Rng rng(seed);
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z), T(Z,W).");
  ASSERT_TRUE(q.ok());
  Database db;
  for (const char* name : {"R", "S", "T"}) {
    Relation* rel = db.AddRelation(name, 2);
    for (int i = 0; i < 12; ++i) {
      rel->Insert({static_cast<Value>(rng.NextBelow(5)),
                   static_cast<Value>(rng.NextBelow(5))});
    }
  }
  EvalContext ctx(db);
  ThreadPool pool(3);
  constexpr PlanKind kTriePlans[] = {PlanKind::kGenericJoin,
                                     PlanKind::kHybridYannakakis};

  for (int phase = 0; phase < 12; ++phase) {
    // Writer phase: exclusive by construction (no evaluation in flight).
    std::vector<MutationOp> ops;
    if (phase > 0) {
      for (const char* name : {"R", "S", "T"}) {
        Relation* rel = db.FindMutable(name);
        ops.push_back(RandomMutationOp(*rel, 5, /*allow_structural=*/true,
                                       &rng));
        ApplyMutation(ops.back(), &db);
      }
      // Guaranteed tombstone pressure: every writer phase also removes one
      // existing tuple, so the reader fan-out repeatedly races stale
      // entries whose delta window has a removed side (the unpatch path)
      // and survivor states with freshly killed or revived tuples.
      Relation* r = db.FindMutable("R");
      if (!r->empty()) {
        MutationOp del;
        del.kind = MutationOp::Kind::kRemove;
        del.relation = "R";
        del.tuples.push_back(r->tuples()[rng.NextBelow(r->size())]);
        ops.push_back(del);
        ApplyMutation(ops.back(), &db);
      }
    }
    SCOPED_TRACE(ScriptTrace(seed, phase, ops));

    auto oracle = EvaluateQuery(*q, db, PlanKind::kNaive);
    ASSERT_TRUE(oracle.ok());

    // Reader phase: 6 concurrent evaluations (3 per trie-based plan) race
    // the same stale entries; each thread gets its own EvalStats.
    std::vector<std::optional<Result<Relation>>> results(6);
    std::vector<EvalStats> stats(6);
    pool.ParallelFor(6, [&](std::size_t i) {
      results[i] = EvaluateQuery(*q, db, kTriePlans[i % 2], &ctx,
                                 /*pool=*/nullptr, &stats[i]);
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].has_value() && results[i]->ok())
          << "phase " << phase << " slot " << i;
      ExpectSameRelation(*oracle, results[i]->ValueOrDie(),
                         "phase " + std::to_string(phase) + " slot " +
                             std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace cqbounds
