#include <gtest/gtest.h>

#include "core/color_number.h"
#include "core/entropy_bound.h"
#include "core/size_bounds.h"
#include "core/size_increase.h"
#include "core/treewidth_bounds.h"
#include "cq/chase.h"
#include "cq/parser.h"
#include "graph/gaifman.h"
#include "graph/treewidth.h"
#include "relation/evaluate.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

// End-to-end on Example 2.1: bound prediction, worst-case construction,
// evaluation, and treewidth measurement all cohere.
TEST(IntegrationTest, Example21FullPipeline) {
  auto q = ParseQuery("Rp(X,Y,Z) :- R(X,Y), R(X,Z).");
  ASSERT_TRUE(q.ok());

  // Size side: C = 2, bound rmax^2, tight.
  auto bound = ComputeSizeBound(*q);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->exponent, Rational(2));
  EXPECT_TRUE(bound->is_upper_bound);
  auto increase = SizeIncreasePossible(*q);
  ASSERT_TRUE(increase.ok());
  EXPECT_TRUE(*increase);

  // Treewidth side: not preserved.
  EXPECT_FALSE(TreewidthPreservedNoFds(*q));

  // Build the paper's witness database R = {(1, i)} and confirm the n^2
  // blowup and the clique Gaifman graph.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  const int n = 5;
  for (int i = 1; i <= n; ++i) r->Insert({0, i});
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), static_cast<std::size_t>(n * n));
  BigInt rmax(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie()));
  EXPECT_TRUE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(result->size())), rmax,
      bound->exponent));
  GaifmanGraph before = BuildGaifmanGraph(db);
  GaifmanGraph after = BuildGaifmanGraph({&*result});
  EXPECT_EQ(TreewidthExact(before.graph, nullptr), 1);
  EXPECT_EQ(TreewidthExact(after.graph, nullptr), n);  // K_{n+1}
}

// The keyed variant of Example 2.1 kills both the size and the treewidth
// blowup (keys make the join keyed).
TEST(IntegrationTest, Example21WithKeyIsTame) {
  auto q = ParseQuery("Rp(X,Y,Z) :- R(X,Y), R(X,Z). key R: 1.");
  ASSERT_TRUE(q.ok());
  auto bound = ComputeSizeBound(*q);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->exponent, Rational(1));
  auto increase = SizeIncreasePossible(*q);
  ASSERT_TRUE(increase.ok());
  EXPECT_FALSE(*increase);
  auto preserved = TreewidthPreservedSimpleFds(*q);
  ASSERT_TRUE(preserved.ok());
  EXPECT_TRUE(*preserved);
}

// Cross-validation sweep: for a zoo of queries, all methods tell one story:
//   C > 1  <=>  size increase possible; s(Q) >= C; bounds hold on random D.
TEST(IntegrationTest, MethodsAgreeAcrossQueryZoo) {
  const char* queries[] = {
      "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).",
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "Q(X,Y,Z) :- R(X,Y), S(Y,Z). key S: 1.",
      "Q(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z). key R1: 1.",
      "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).",
      "Q(X,Y) :- R(X), S(Y).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    auto c = ColorNumberOfChase(*q);
    auto inc = SizeIncreasePossible(*q);
    auto s = EntropySizeBound(Chase(*q));
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(inc.ok());
    ASSERT_TRUE(s.ok()) << s.status();
    EXPECT_EQ(*inc, c->value > Rational(1)) << text;
    EXPECT_GE(s->value, c->value) << text;

    RandomDatabaseOptions opts;
    opts.seed = 99;
    opts.tuples_per_relation = 20;
    opts.domain_size = 4;
    Database db = RandomDatabase(*q, opts);
    auto result = EvaluateQuery(*q, db, PlanKind::kJoinProject);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(SatisfiesSizeBound(
        BigInt(static_cast<std::int64_t>(result->size())),
        BigInt(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie())), c->value))
        << text;
  }
}

// Corollary 4.8 shape: join-project intermediates stay within the
// rmax^{C} envelope on worst-case inputs for a join query (all variables
// in the head).
TEST(IntegrationTest, JoinProjectPlanEnvelope) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto bound = ComputeSizeBound(*q);
  ASSERT_TRUE(bound.ok());
  auto db = BuildWorstCaseDatabase(*q, bound->witness, 3);
  ASSERT_TRUE(db.ok());
  EvalStats stats;
  auto result = EvaluateQuery(*q, *db, PlanKind::kJoinProject, nullptr, nullptr,
                              &stats);
  ASSERT_TRUE(result.ok());
  BigInt rmax(static_cast<std::int64_t>(db->RMax(*q).ValueOrDie()));
  // Intermediates may exceed |Q(D)| but not rmax^{C+1} (Cor 4.8's budget).
  EXPECT_TRUE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(stats.max_intermediate)), rmax,
      bound->exponent + Rational(1)));
}

}  // namespace
}  // namespace cqbounds
