#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

/// Semantics oracle: enumerate every substitution theta : var(Q) -> adom(D)
/// and collect theta(u0) for those satisfying all body atoms -- the literal
/// Section 2 definition of Q(D). Exponential; only for tiny instances.
Relation BruteForceEvaluate(const Query& query, const Database& db) {
  std::set<Value> adom_set;
  for (const auto& [name, rel] : db.relations()) {
    for (Value v : rel.ActiveDomain()) adom_set.insert(v);
  }
  std::vector<Value> adom(adom_set.begin(), adom_set.end());
  const int n = query.num_variables();
  Relation output(query.head_relation(),
                  static_cast<int>(query.head_vars().size()));
  if (adom.empty()) return output;

  std::vector<std::size_t> choice(n, 0);
  while (true) {
    // Build theta and test every atom.
    bool satisfies = true;
    for (const Atom& atom : query.atoms()) {
      const Relation* rel = db.Find(atom.relation);
      Tuple t;
      t.reserve(atom.vars.size());
      for (int v : atom.vars) t.push_back(adom[choice[v]]);
      if (rel == nullptr || !rel->Contains(t)) {
        satisfies = false;
        break;
      }
    }
    if (satisfies) {
      Tuple head;
      head.reserve(query.head_vars().size());
      for (int v : query.head_vars()) head.push_back(adom[choice[v]]);
      output.Insert(head);
    }
    int pos = 0;
    while (pos < n && ++choice[pos] == adom.size()) {
      choice[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return output;
}

TEST(EvaluateOracleTest, HandPickedQueries) {
  const char* queries[] = {
      "Q(X,Y) :- R(X,Y).",
      "Q(X) :- R(X,X).",
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
      "Q(X,X,Y) :- R(X), S(Y).",
      "Q(A) :- R(A,B), R(B,A).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = 77;
    opts.tuples_per_relation = 6;
    opts.domain_size = 3;
    Database db = RandomDatabase(*q, opts);
    Relation oracle = BruteForceEvaluate(*q, db);
    for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                          PlanKind::kGenericJoin,
                          PlanKind::kHybridYannakakis}) {
      auto result = EvaluateQuery(*q, db, kind);
      ASSERT_TRUE(result.ok()) << text;
      ASSERT_EQ(result->size(), oracle.size()) << text;
      for (const Tuple& t : oracle.tuples()) {
        EXPECT_TRUE(result->Contains(t)) << text;
      }
    }
  }
}

/// The bounds GenericJoinIsInputLinear certifies, checked on the binding
/// counts the generic join reported over `order`: each depth d < n-1 binds
/// at most |R_j| for every atom R_j holding the prefix (so at most the
/// smallest such |R_j|), and the last depth at most the output (full head)
/// or at most depth n-2's count (witness-only; at most 1 when n = 1).
void ExpectInputLinearCounts(const Query& q, const Database& db,
                             const std::vector<int>& order,
                             const EvalStats& stats, const char* which) {
  const std::size_t n = order.size();
  ASSERT_EQ(stats.intermediate_sizes.size(), n) << which;
  if (n == 0) return;
  for (std::size_t d = 0; d + 1 < n; ++d) {
    std::size_t bound = std::numeric_limits<std::size_t>::max();
    for (std::size_t j = 0; j < q.atoms().size(); ++j) {
      const std::set<int> vars = q.AtomVarSet(static_cast<int>(j));
      if (std::all_of(order.begin(), order.begin() + d + 1,
                      [&vars](int v) { return vars.count(v) > 0; })) {
        bound = std::min(bound, db.Find(q.atoms()[j].relation)->size());
      }
    }
    EXPECT_LE(stats.intermediate_sizes[d], bound)
        << q.ToString() << " " << which << " depth " << d;
  }
  const std::set<int> head = q.HeadVarSet();
  const std::size_t last =
      head.count(order.back()) ? stats.output_size
                               : (n == 1 ? 1 : stats.intermediate_sizes[n - 2]);
  EXPECT_LE(stats.intermediate_sizes[n - 1], last)
      << q.ToString() << " " << which << " last depth";
}

class EvaluateOracleRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EvaluateOracleRandomTest, MatchesDefinitionOnRandomInstances) {
  Rng rng(GetParam() * 8191 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 1 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 2;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 5;
    opts.domain_size = 3;
    Database db = RandomDatabase(q, opts);
    Relation oracle = BruteForceEvaluate(q, db);
    for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                          PlanKind::kGenericJoin,
                          PlanKind::kHybridYannakakis}) {
      auto result = EvaluateQuery(q, db, kind);
      ASSERT_TRUE(result.ok()) << q.ToString();
      ASSERT_EQ(result->size(), oracle.size()) << q.ToString();
      for (const Tuple& t : oracle.tuples()) {
        EXPECT_TRUE(result->Contains(t)) << q.ToString();
      }
    }
    // Where the planner recommends the generic join for a low-width query,
    // it has certified both orders the join may run in: check the bounds.
    auto plan = ChooseGenericJoinOrder(q);
    ASSERT_TRUE(plan.ok()) << q.ToString();
    if (plan->intersection_width >= 0 &&
        plan->recommended_plan == PlanKind::kGenericJoin) {
      EvalStats chosen, fallback;
      ASSERT_TRUE(EvaluateGenericJoin(q, db, plan->order, &chosen).ok());
      ASSERT_TRUE(EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr,
                                nullptr, &fallback)
                      .ok());
      ExpectInputLinearCounts(q, db, plan->order, chosen, "chosen order");
      ExpectInputLinearCounts(q, db, DefaultGenericJoinOrder(q), fallback,
                              "default order");
    }
  }
}

TEST(EvaluateStatsTest, EmptyFirstJoinShortCircuitsRemainingAtoms) {
  // R is empty, so the first join kills every binding; the evaluator must
  // not keep building hash indexes for S and T (the old path indexed every
  // remaining atom -- 2000 wasted insertions here).
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z), T(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db;
  db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  for (int i = 0; i < 1000; ++i) {
    s->Insert({i, i + 1});
    t->Insert({i + 1, i});
  }
  for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                        PlanKind::kGenericJoin,
                        PlanKind::kHybridYannakakis}) {
    EvalStats stats;
    auto result = EvaluateQuery(*q, db, kind, nullptr, nullptr, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 0u);
    EXPECT_EQ(stats.total_intermediate, 0u);
    EXPECT_EQ(stats.max_intermediate, 0u);
    // R's index/trie receives zero tuples and no later atom is indexed at
    // all -- neither hash buckets nor trie keys.
    EXPECT_EQ(stats.indexed_tuples, 0u) << static_cast<int>(kind);
  }
  // Errors still surface even when the bindings die before the bad atom.
  auto missing = ParseQuery("Q(X,Z) :- R(X,Y), Missing(Y,Z).");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(EvaluateQuery(*missing, db, PlanKind::kNaive).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluateOracleRandomTest,
                         ::testing::Range(1, 12));

}  // namespace
}  // namespace cqbounds
