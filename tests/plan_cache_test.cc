// Randomized cross-validation of the EvalContext plan tier under
// interleaved mutation: relations mutate *between* warm evaluations, and
// every plan must keep matching the naive oracle while the cached plan
// keeps serving probe-free runs. The deterministic plan-tier unit tests
// live in eval_context_test.cc and the delta-maintenance oracle in
// delta_oracle_test.cc; this suite hammers the invalidation invariants the
// cache's correctness rests on:
//
//  - the plan entry itself never goes stale (it depends only on the query
//    shape), so warm runs perform zero TreewidthExact calls even across
//    mutations;
//  - the semi-join skip is sound: the pass may only be skipped when *no*
//    body relation generation moved since the last hybrid evaluation (a
//    generation bump forces a delta pass or a re-reduce);
//  - the trie-based plans' intermediates stay within the AGM envelope
//    rmax^{rho*(full join)} on every (mutated) instance.
//
// The mutation vocabulary (appends, bulk appends, removes, clears) and the
// oracle comparison come from tests/mutation_harness.h, shared with
// delta_oracle_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cq/random_query.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "mutation_harness.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

using testutil::ExpectSameRelation;
using testutil::FullJoinCoverExponent;
using testutil::kAllPlans;
using testutil::MutationOp;

class PlanCacheInterleavedMutationTest
    : public ::testing::TestWithParam<int> {};

TEST_P(PlanCacheInterleavedMutationTest, FourPlansStayCorrectAcrossMutation) {
  const std::uint64_t seed = GetParam() * 104729 + 31;
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 2;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 12;
    opts.domain_size = 4;
    Database db = RandomDatabase(q, opts);
    EvalContext ctx(db);

    // Distinct body relation names (atoms may repeat a relation).
    std::set<std::string> body_rels;
    for (const Atom& atom : q.atoms()) body_rels.insert(atom.relation);

    // Generations observed at the previous hybrid evaluation: the skip
    // soundness invariant below compares against them.
    std::map<std::string, std::uint64_t> gens_at_last_hybrid;
    bool mutated_since_last_hybrid = false;

    for (int round = 0; round < 4; ++round) {
      std::vector<MutationOp> round_ops;
      if (round > 0) {
        // Mutate between warm evaluations: random ops against a couple of
        // body relations (values inside the active domain so the join
        // results actually change), including the structural removes and
        // clears that force trie rebuilds and full re-reductions.
        for (const std::string& name : body_rels) {
          if (rng.NextBelow(2) == 0) continue;
          Relation* rel = db.FindMutable(name);
          ASSERT_NE(rel, nullptr);
          round_ops.push_back(testutil::RandomMutationOp(
              *rel, opts.domain_size, /*allow_structural=*/true, &rng));
          if (testutil::ApplyMutation(round_ops.back(), &db)) {
            mutated_since_last_hybrid = true;
          }
        }
      }
      SCOPED_TRACE(testutil::ScriptTrace(seed, round, round_ops));

      const std::string tag =
          q.ToString() + " round " + std::to_string(round);
      auto oracle = EvaluateQuery(q, db, PlanKind::kNaive);
      ASSERT_TRUE(oracle.ok()) << tag;

      for (PlanKind kind : kAllPlans) {
        EvalStats stats;
        auto result = EvaluateQuery(q, db, kind, &ctx, nullptr, &stats);
        ASSERT_TRUE(result.ok()) << tag;
        ExpectSameRelation(*oracle, *result,
                           tag + " plan " + PlanKindName(kind));

        if (kind == PlanKind::kHybridYannakakis) {
          // Plan-tier invariants: only the very first hybrid run of a
          // trial may miss (and probe); every later run -- mutated or not
          // -- is served the cached shape-only plan.
          if (round == 0) {
            EXPECT_EQ(stats.plan_cache_misses, 1u) << tag;
          } else {
            EXPECT_EQ(stats.plan_cache_misses, 0u) << tag;
            EXPECT_EQ(stats.plan_cache_hits, 1u) << tag;
            EXPECT_EQ(stats.treewidth_probe_runs, 0u) << tag;
          }
          // Skip soundness: the pass may only be skipped when no body
          // relation generation moved since the previous hybrid run.
          if (stats.semijoin_pass_skipped) {
            EXPECT_FALSE(stats.semijoin_pass_ran) << tag;
            EXPECT_FALSE(mutated_since_last_hybrid) << tag;
            for (const std::string& name : body_rels) {
              EXPECT_EQ(db.Find(name)->generation(),
                        gens_at_last_hybrid[name])
                  << tag << " relation " << name;
            }
          }
          for (const std::string& name : body_rels) {
            gens_at_last_hybrid[name] = db.Find(name)->generation();
          }
          mutated_since_last_hybrid = false;
        }

        // Envelope compliance for the trie-based plans, mutation or not.
        if ((kind == PlanKind::kGenericJoin ||
             kind == PlanKind::kHybridYannakakis) &&
            db.RMax(q).ValueOrDie() > 0) {
          const BigInt rmax(static_cast<std::int64_t>(db.RMax(q).ValueOrDie()));
          EXPECT_TRUE(SatisfiesSizeBound(
              BigInt(static_cast<std::int64_t>(stats.max_intermediate)),
              rmax, FullJoinCoverExponent(q)))
              << tag;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheInterleavedMutationTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace cqbounds
