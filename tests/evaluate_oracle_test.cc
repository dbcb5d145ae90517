#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/trie_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/// A database for `q` with planted hubs over the domain [0, 256): for each
/// column c of a relation of arity a >= 2 and each of the 2^(a-1)
/// assignments of hub values 0 and 1 to its other columns, 40 to 99
/// distinct values in column c (64 or more under all zeros), so under
/// every trie layout some nodes have 64 children or more (heavy: the span
/// rule always holds) and others may fall just short; plus 100 uniform rows
/// per relation.
Database HubDatabase(const Query& q, std::uint64_t seed) {
  Rng rng(seed);
  Database db;
  for (const Atom& atom : q.atoms()) {
    if (db.Find(atom.relation) != nullptr) continue;
    const int arity = static_cast<int>(atom.vars.size());
    Relation* r = db.AddRelation(atom.relation, arity);
    Tuple t(atom.vars.size());
    for (int i = 0; i < 100; ++i) {
      for (Value& v : t) v = static_cast<Value>(rng.NextBelow(256));
      r->Insert(t);
    }
    for (int c = 0; c < arity && arity >= 2; ++c) {
      for (int hubs = 0; hubs < 1 << (arity - 1); ++hubs) {
        for (int o = 0, bit = 0; o < arity; ++o) {
          if (o != c) t[o] = (hubs >> bit++) & 1;
        }
        // The all-zero prefix is always heavy, the others on either side.
        const std::uint64_t children =
            hubs == 0 ? 64 + rng.NextBelow(36) : 40 + rng.NextBelow(60);
        const std::uint64_t start = rng.NextBelow(256);
        const std::uint64_t step = 2 * rng.NextBelow(128) + 1;  // odd
        for (std::uint64_t j = 0; j < children; ++j) {
          t[c] = static_cast<Value>((start + j * step) % 256);
          r->Insert(t);
        }
      }
    }
  }
  return db;
}

/// The generic join's binding count at depth d over `order`, derived
/// without it: the join of every atom's projection onto order[0..d] (each
/// atom's later variables renamed apart, so they are existential per
/// atom), evaluated by join-project.
std::size_t PrefixJoinSize(const Query& q, const Database& db,
                           const std::vector<int>& order, std::size_t d) {
  const std::set<int> prefix(order.begin(), order.begin() + d + 1);
  Query p;
  std::vector<int> head;
  for (std::size_t i = 0; i <= d; ++i) {
    head.push_back(p.InternVariable(q.variable_name(order[i])));
  }
  p.SetHead("P", head);
  for (std::size_t a = 0; a < q.atoms().size(); ++a) {
    std::vector<int> vars;
    for (int v : q.atoms()[a].vars) {
      const std::string& name = q.variable_name(v);
      vars.push_back(p.InternVariable(
          prefix.count(v) ? name : name + "~" + std::to_string(a)));
    }
    p.AddAtom(q.atoms()[a].relation, vars);
  }
  return EvaluateQuery(p, db, PlanKind::kJoinProject).ValueOrDie().size();
}

class EvaluateOracleHubTest : public ::testing::TestWithParam<int> {};

// Random queries over databases with planted hubs, where the generic join
// probes heavy child sets: its answer must equal join-project's as a set
// under the default order and its reverse, each depth's binding count must
// equal the prefix-projection join (PrefixJoinSize) up to the last head
// depth (the witness-only exit truncates the depths past it), and serial
// and pooled runs must return the same rows in the same order with the
// same codes.
TEST_P(EvaluateOracleHubTest, GenericJoinMatchesOraclesOnPlantedHubs) {
  Rng rng(GetParam() * 131071 + 5);
  ThreadPool pool(3);
  for (int trial = 0; trial < 4; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(3));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(2));
    options.min_arity = 2;
    options.max_arity = 3;
    options.random_projection = true;
    const Query q = RandomQuery(options, &rng);
    const Database db = HubDatabase(q, rng.Next());
    const std::string context = q.ToString();
    const Relation* first = db.Find(q.atoms()[0].relation);
    const TrieIndex trie(*first, {{0}, {1}});
    std::size_t heavy = 0;
    for (std::size_t i = 0; i < trie.RootRange().end; ++i) {
      heavy += trie.ChildRange(0, i).bits != nullptr;
    }
    EXPECT_GT(heavy, 0u) << context;

    auto project = EvaluateQuery(q, db, PlanKind::kJoinProject);
    ASSERT_TRUE(project.ok()) << context;
    const std::vector<int> forward = DefaultGenericJoinOrder(q);
    const std::vector<int> reverse(forward.rbegin(), forward.rend());
    const std::set<int> head = q.HeadVarSet();
    for (const std::vector<int>& order : {forward, reverse}) {
      EvalStats stats;
      auto got = EvaluateGenericJoin(q, db, order, &stats);
      ASSERT_TRUE(got.ok()) << context;
      ASSERT_EQ(got->size(), project->size()) << context;
      for (const Tuple& t : project->tuples()) {
        EXPECT_TRUE(got->Contains(t)) << context;
      }
      std::size_t last = 0;
      for (std::size_t d = 0; d < order.size(); ++d) {
        if (head.count(order[d])) last = d;
      }
      for (std::size_t d = 0; d <= last; ++d) {
        EXPECT_EQ(stats.intermediate_sizes[d],
                  PrefixJoinSize(q, db, order, d))
            << context << " depth " << d;
      }
    }

    EvalStats serial_stats, pooled_stats;
    auto serial = EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr,
                                nullptr, &serial_stats);
    auto pooled = EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr,
                                &pool, &pooled_stats);
    ASSERT_TRUE(serial.ok()) << context;
    ASSERT_TRUE(pooled.ok()) << context;
    EXPECT_EQ(serial_stats.intermediate_sizes,
              pooled_stats.intermediate_sizes)
        << context;
    EXPECT_EQ(serial->tuples(), pooled->tuples()) << context;
    ASSERT_EQ(serial->store().size(), pooled->store().size()) << context;
    for (std::size_t row = 0; row < serial->store().size(); ++row) {
      for (int col = 0; col < serial->arity(); ++col) {
        ASSERT_EQ(serial->store().CodeAt(row, col),
                  pooled->store().CodeAt(row, col))
            << context << " row " << row;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluateOracleHubTest, ::testing::Range(1, 9));

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluateOracleRandomTest,
                         ::testing::Range(1, 12));

}  // namespace
}  // namespace cqbounds
