#include <gtest/gtest.h>

#include <algorithm>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

// The full row set of `rel`, sorted: plans may emit rows in any order.
std::vector<Tuple> SortedRows(const Relation& rel) {
  std::vector<Tuple> rows = rel.tuples();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(JoinPlanTest, BuildsConnectedOrderAndProjections) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps.size(), 4u);
  // Every atom appears exactly once.
  std::set<int> atoms;
  for (const JoinPlanStep& s : plan->steps) atoms.insert(s.atom_index);
  EXPECT_EQ(atoms.size(), 4u);
  // The final step keeps at least the head variables.
  std::set<int> final_kept(plan->steps.back().keep_vars.begin(),
                           plan->steps.back().keep_vars.end());
  for (int v : q->HeadVarSet()) EXPECT_TRUE(final_kept.count(v));
  // C = 2 for the chain projected to endpoints, so cost exponent is 3.
  EXPECT_EQ(plan->cost_exponent, Rational(3));
  EXPECT_FALSE(plan->guaranteed);  // projection query (head != var(Q))
}

TEST(JoinPlanTest, GuaranteedFlagForJoinQueries) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->guaranteed);
  EXPECT_EQ(plan->cost_exponent, Rational(5, 2));  // C + 1 = 3/2 + 1
}

TEST(JoinPlanTest, ExecuteMatchesEvaluator) {
  const char* queries[] = {
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
      "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).",
      "Q(X) :- R(X,X).",
      "Q(A,B) :- R(A), S(B).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    RandomDatabaseOptions opts;
    opts.seed = 5;
    opts.tuples_per_relation = 30;
    opts.domain_size = 5;
    Database db = RandomDatabase(*q, opts);
    auto plan = BuildJoinProjectPlan(*q);
    ASSERT_TRUE(plan.ok());
    // The reference is the trie executor, which shares no code with the
    // binary-join loop.
    auto via_plan = ExecuteJoinPlan(*q, plan->steps, db, nullptr);
    auto reference = EvaluateQuery(*q, db, PlanKind::kGenericJoin);
    ASSERT_TRUE(via_plan.ok()) << via_plan.status() << " " << text;
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(SortedRows(*via_plan), SortedRows(*reference)) << text;
  }
}

TEST(JoinPlanTest, GreedyOrderAvoidsCartesianWhenConnected) {
  // R(A,B), T(C,D), S(B,C): naive order joins R then T (cartesian); the
  // greedy order pulls S second.
  auto q = ParseQuery("Q(A,D) :- R(A,B), T(C,D), S(B,C).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  // After the first atom (R, index 0), the next must share a variable:
  // atom S (index 2), not T (index 1).
  EXPECT_EQ(plan->steps[0].atom_index, 0);
  EXPECT_EQ(plan->steps[1].atom_index, 2);
  EXPECT_EQ(plan->steps[2].atom_index, 1);

  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  for (int i = 0; i < 20; ++i) {
    r->Insert({i, i});
    s->Insert({i, i});
    t->Insert({i, i});
  }
  EvalStats plan_stats, naive_stats;
  auto via_plan = ExecuteJoinPlan(*q, plan->steps, db, &plan_stats);
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, nullptr, nullptr,
                             &naive_stats);
  ASSERT_TRUE(via_plan.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(via_plan->size(), naive->size());
  // Naive order hits the 400-binding cartesian product; greedy stays at 20.
  EXPECT_EQ(naive_stats.max_intermediate, 400u);
  EXPECT_LE(plan_stats.max_intermediate, 20u);
}

TEST(JoinPlanTest, RejectsCorruptPlans) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  db.AddRelation("R", 2)->Insert({1, 2});
  db.AddRelation("S", 2)->Insert({2, 3});
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());

  auto rejects = [&](const std::vector<JoinPlanStep>& steps) {
    EvalStats stats;
    stats.output_size = 99;
    auto result = ExecuteJoinPlan(*q, steps, db, &stats);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(stats.output_size, 0u);
  };

  std::vector<JoinPlanStep> missing_step = plan->steps;
  missing_step.pop_back();
  rejects(missing_step);

  std::vector<JoinPlanStep> drops_head = plan->steps;
  drops_head.back().keep_vars.clear();
  rejects(drops_head);

  std::vector<JoinPlanStep> bad_index = plan->steps;
  bad_index[0].atom_index = 99;
  rejects(bad_index);

  std::vector<JoinPlanStep> keeps_unbound = plan->steps;
  keeps_unbound[0].keep_vars.push_back(q->head_vars().back());  // Z
  rejects(keeps_unbound);

  std::vector<JoinPlanStep> keeps_twice = plan->steps;
  keeps_twice[0].keep_vars.push_back(keeps_twice[0].keep_vars.front());
  rejects(keeps_twice);

  // Dropping Y after R(X,Y) would join S(Y,Z) on nothing: a cross product.
  std::vector<JoinPlanStep> drops_join_var = plan->steps;
  drops_join_var[0].keep_vars = {q->head_vars().front()};  // X
  rejects(drops_join_var);

  // Joining one atom twice skips another: for R = {1, 2} and S = {1} that
  // answered {1, 2}, where Q(D) is {1}.
  auto unary = ParseQuery("Q(X) :- R(X), S(X).");
  ASSERT_TRUE(unary.ok());
  Database udb;
  Relation* r = udb.AddRelation("R", 1);
  r->Insert({1});
  r->Insert({2});
  udb.AddRelation("S", 1)->Insert({1});
  auto uplan = BuildJoinProjectPlan(*unary);
  ASSERT_TRUE(uplan.ok());
  auto good = ExecuteJoinPlan(*unary, uplan->steps, udb, nullptr);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->size(), 1u);
  std::vector<JoinPlanStep> twice = uplan->steps;
  twice[1].atom_index = twice[0].atom_index;
  EXPECT_EQ(ExecuteJoinPlan(*unary, twice, udb, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JoinPlanTest, ToStringMentionsEveryStep) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  std::string rendered = plan->ToString(*q);
  EXPECT_NE(rendered.find("join R"), std::string::npos);
  EXPECT_NE(rendered.find("join S"), std::string::npos);
  EXPECT_NE(rendered.find("rmax^3"), std::string::npos);
}

// A hand-edited plan is renderable even when ExecuteJoinPlan would reject
// it: out-of-range atoms and variables print as "<invalid>" instead of
// reading past the query's atoms or names.
TEST(JoinPlanTest, ToStringRendersOutOfRangeEntriesAsInvalid) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  JoinPlan bad_atom = *plan;
  bad_atom.steps[0].atom_index = 99;
  const std::string atom_text = bad_atom.ToString(*q);
  EXPECT_NE(atom_text.find("join <invalid>"), std::string::npos) << atom_text;
  EXPECT_NE(atom_text.find("join S"), std::string::npos) << atom_text;

  JoinPlan bad_keep = *plan;
  bad_keep.steps[1].keep_vars.push_back(99);
  bad_keep.steps[0].keep_vars.push_back(-1);
  const std::string keep_text = bad_keep.ToString(*q);
  EXPECT_NE(keep_text.find(",<invalid>}"), std::string::npos) << keep_text;

  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok());
  GenericJoinOrder bad_order = *order;
  bad_order.order.push_back(99);
  const std::string order_text = bad_order.ToString(*q);
  EXPECT_NE(order_text.find(" -> <invalid>"), std::string::npos)
      << order_text;
}

class JoinPlanRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinPlanRandomTest, PlanEqualsEvaluatorOnRandomQueries) {
  Rng rng(GetParam() * 71 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 3 + static_cast<int>(rng.NextBelow(3));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions db_opts;
    db_opts.seed = rng.Next();
    db_opts.tuples_per_relation = 25;
    db_opts.domain_size = 4;
    Database db = RandomDatabase(q, db_opts);
    auto plan = BuildJoinProjectPlan(q);
    ASSERT_TRUE(plan.ok());
    auto via_plan = ExecuteJoinPlan(q, plan->steps, db, nullptr);
    auto reference = EvaluateQuery(q, db, PlanKind::kGenericJoin);
    ASSERT_TRUE(via_plan.ok()) << q.ToString();
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(SortedRows(*via_plan), SortedRows(*reference)) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPlanRandomTest, ::testing::Range(1, 10));

}  // namespace
}  // namespace cqbounds
