#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "cq/parser.h"
#include "relation/database.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/relation.h"

namespace cqbounds {
namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation r("R", 2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({3, 3}));
}

TEST(RelationTest, RemoveErasesAndPreservesInsertionOrder) {
  Relation r("R", 2);
  r.Insert({1, 2});
  r.Insert({3, 4});
  r.Insert({5, 6});
  EXPECT_FALSE(r.Remove({7, 8}));  // absent: no-op
  EXPECT_TRUE(r.Remove({3, 4}));
  EXPECT_FALSE(r.Remove({3, 4}));  // already gone
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.Contains({3, 4}));
  // Remaining tuples keep their relative (insertion) order -- the delta
  // journal's appended-suffix convention depends on a stable prefix.
  EXPECT_EQ(r.tuples()[0], (Tuple{1, 2}));
  EXPECT_EQ(r.tuples()[1], (Tuple{5, 6}));
}

/// True iff the journal serves the window since `gen` with an empty
/// removed side -- an append-only window.
bool AppendsOnlySince(const Relation& r, std::uint64_t gen) {
  Relation::DeltaSet deltas;
  return r.DeltasSince(gen, &deltas) && deltas.removed_rows.empty();
}

TEST(RelationTest, GenerationAndAppendFloorTrackMutations) {
  Relation r("R", 2);
  EXPECT_EQ(r.generation(), 0u);
  EXPECT_TRUE(AppendsOnlySince(r, 0));

  // Appends (and only actual inserts) bump the generation; the whole
  // history so far is appends-only from any observed generation.
  r.Insert({1, 2});
  r.Insert({3, 4});
  EXPECT_FALSE(r.Insert({1, 2}));  // duplicate: generation must not move
  EXPECT_EQ(r.generation(), 2u);
  EXPECT_TRUE(AppendsOnlySince(r, 0));
  EXPECT_TRUE(AppendsOnlySince(r, 1));
  EXPECT_TRUE(AppendsOnlySince(r, 2));
  // A future generation is never appends-only reachable.
  EXPECT_FALSE(AppendsOnlySince(r, 3));

  // A removal gives every window that saw the removed tuple a removed
  // side; the current generation's window is still append-only. (One dead
  // row of two also compacts the store, which the journal spans.)
  EXPECT_TRUE(r.Remove({1, 2}));
  EXPECT_EQ(r.generation(), 3u);
  // From generation 0 the removed tuple was appended inside the window, so
  // it nets out: what remains is a pure append of {3,4}.
  Relation::DeltaSet deltas;
  ASSERT_TRUE(r.DeltasSince(0, &deltas));
  EXPECT_TRUE(deltas.removed_rows.empty());
  EXPECT_EQ(deltas.appended_rows.size(), 1u);
  EXPECT_FALSE(AppendsOnlySince(r, 2));
  EXPECT_TRUE(AppendsOnlySince(r, 3));
  r.Insert({5, 6});
  EXPECT_TRUE(AppendsOnlySince(r, 3));
  EXPECT_TRUE(AppendsOnlySince(r, 4));

  // Failed removals are no-ops on the generation and the journal.
  EXPECT_FALSE(r.Remove({9, 9}));
  EXPECT_EQ(r.generation(), 4u);
  EXPECT_TRUE(AppendsOnlySince(r, 3));
}

TEST(RelationTest, ClearBumpsGenerationUnlessAlreadyEmpty) {
  Relation r("R", 1);
  r.Clear();  // empty: no observable change, no bump
  EXPECT_EQ(r.generation(), 0u);
  EXPECT_TRUE(AppendsOnlySince(r, 0));

  r.Insert({1});
  r.Insert({2});
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.generation(), 3u);
  EXPECT_FALSE(r.Contains({1}));
  // Clear is a hard break: older snapshots get no delta at all.
  EXPECT_FALSE(AppendsOnlySince(r, 2));
  EXPECT_TRUE(AppendsOnlySince(r, 3));
  // Post-clear inserts are appends again from the cleared state on.
  r.Insert({3});
  EXPECT_TRUE(AppendsOnlySince(r, 3));
  EXPECT_FALSE(AppendsOnlySince(r, 0));
}

TEST(RelationTest, ProjectWithRepeats) {
  Relation r("R", 2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  Relation p = r.Project({0}, "p");
  EXPECT_EQ(p.size(), 1u);  // both tuples project to (1)
  Relation pp = r.Project({1, 1, 0}, "pp");
  EXPECT_EQ(pp.arity(), 3);
  EXPECT_TRUE(pp.Contains({2, 2, 1}));
}

TEST(RelationTest, ColumnValuesAndActiveDomain) {
  Relation r("R", 2);
  r.Insert({1, 5});
  r.Insert({2, 5});
  EXPECT_EQ(r.ColumnValues(0), (std::vector<Value>{1, 2}));
  EXPECT_EQ(r.ColumnValues(1), (std::vector<Value>{5}));
  EXPECT_EQ(r.ActiveDomain(), (std::vector<Value>{1, 2, 5}));
}

TEST(RelationTest, SatisfiesFd) {
  Relation r("R", 3);
  r.Insert({1, 10, 100});
  r.Insert({2, 10, 200});
  r.Insert({1, 10, 100});
  EXPECT_TRUE(r.SatisfiesFd({0}, 1));
  EXPECT_TRUE(r.SatisfiesFd({0}, 2));
  EXPECT_FALSE(r.SatisfiesFd({1}, 2));  // 10 -> {100, 200}
  EXPECT_TRUE(r.SatisfiesFd({0, 1}, 2));
}

TEST(DatabaseTest, RMaxOverQueryRelations) {
  Database db;
  Relation* r = db.AddRelation("R", 1);
  for (int i = 0; i < 5; ++i) r->Insert({i});
  Relation* s = db.AddRelation("S", 1);
  for (int i = 0; i < 9; ++i) s->Insert({i});
  auto q = ParseQuery("Q(X) :- R(X).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(db.RMax(*q).ValueOrDie(), 5u);  // S is not referenced by the query
  EXPECT_EQ(db.MaxRelationSize(), 9u);
}

TEST(DatabaseTest, RMaxDistinguishesMissingFromEmpty) {
  Database db;
  db.AddRelation("R", 1);  // present but empty
  auto q = ParseQuery("Q(X) :- R(X).");
  ASSERT_TRUE(q.ok());
  // Present-but-empty is a genuine rmax of 0 ...
  auto empty = db.RMax(*q);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
  // ... but a missing body relation is an error, not a silent 0: a size
  // bound computed against the wrong database must not read as legitimate.
  auto missing_q = ParseQuery("Q(X) :- R(X), Nope(X).");
  ASSERT_TRUE(missing_q.ok());
  auto missing = db.RMax(*missing_q);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, AddRelationArityConflictIsRecoverable) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  ASSERT_NE(r, nullptr);
  r->Insert({1, 2});
  // Re-declaring with a different arity reports the conflict by returning
  // null -- no abort -- and leaves the existing relation untouched.
  EXPECT_EQ(db.AddRelation("R", 3), nullptr);
  ASSERT_NE(db.Find("R"), nullptr);
  EXPECT_EQ(db.Find("R")->arity(), 2);
  EXPECT_EQ(db.Find("R")->size(), 1u);
  // Same-arity re-declaration still fetches the existing relation.
  EXPECT_EQ(db.AddRelation("R", 2), r);
}

TEST(DatabaseTest, CheckFdsReportsViolation) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 1});
  r->Insert({1, 2});
  auto q = ParseQuery("Q(X,Y) :- R(X,Y). fd R: 1 -> 2.");
  ASSERT_TRUE(q.ok());
  Status status = db.CheckFds(*q);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ValuePoolTest, InternStable) {
  ValuePool pool;
  Value a = pool.Intern("alpha");
  Value b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Spelling(a), "alpha");
  EXPECT_EQ(pool.Spelling(999), "?999");
  EXPECT_EQ(pool.Spelling(-1), "?-1");
  EXPECT_EQ(pool.SpellingView(b), "beta");
}

TEST(ValuePoolTest, DenseFirstSeenIdsAcrossGrowth) {
  // 10^5 distinct spellings take ids 0..n-1 in first-seen order through
  // many table doublings; re-interning all of them finds every id and
  // mints none.
  constexpr int kN = 100000;
  ValuePool pool;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(pool.Intern("s" + std::to_string(i)), Value{i});
  }
  ASSERT_EQ(pool.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(pool.Intern("s" + std::to_string(i)), Value{i});
  }
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(pool.Spelling(kN - 1), "s" + std::to_string(kN - 1));
  EXPECT_EQ(pool.Spelling(kN), "?" + std::to_string(kN));
}

TEST(ValuePoolTest, EmptyNulAndSliceSpellings) {
  ValuePool pool;
  const Value empty = pool.Intern("");
  EXPECT_EQ(pool.Intern(std::string()), empty);
  EXPECT_EQ(pool.Spelling(empty), "");

  // An embedded NUL is part of the spelling, not a terminator.
  const std::string with_nul("a\0b", 3);
  const Value a_nul_b = pool.Intern(with_nul);
  const Value a = pool.Intern("a");
  EXPECT_NE(a_nul_b, a);
  EXPECT_EQ(pool.Spelling(a_nul_b), with_nul);
  EXPECT_EQ(pool.Intern(with_nul), a_nul_b);

  // A slice of a larger buffer interns as the equal std::string does.
  const std::string buffer = "xxalphaxx";
  const Value from_slice = pool.Intern(std::string_view(buffer).substr(2, 5));
  EXPECT_EQ(from_slice, pool.Intern(std::string("alpha")));
  EXPECT_EQ(pool.Spelling(from_slice), "alpha");
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ValuePoolTest, PackedKeysAcrossTheInlineBoundary) {
  // Spellings of length 0..9 straddle the 7-byte inline key: at each
  // length, four spellings that differ in their last byte (NUL and 0xFF
  // among them) must take distinct ids in first-seen order and spell back
  // exactly.
  ValuePool pool;
  std::vector<std::string> spellings;
  for (std::size_t len = 0; len <= 9; ++len) {
    for (char last : {'a', 'b', '\0', '\xff'}) {
      std::string s(len, 'x');
      if (len > 0) s.back() = last;
      spellings.push_back(s);
    }
  }
  for (const std::string& s : spellings) pool.Intern(s);
  // Length 0 yields one spelling, every other length four distinct ones.
  ASSERT_EQ(pool.size(), 1u + 9u * 4u);
  for (const std::string& s : spellings) {
    const Value id = pool.Intern(s);
    EXPECT_EQ(pool.Spelling(id), s);
    EXPECT_EQ(pool.SpellingView(id), s);
  }
  EXPECT_EQ(pool.size(), 1u + 9u * 4u);
  // First-seen order: the ids follow the order of the first interns.
  Value next = 0;
  for (const std::string& s : spellings) {
    const Value id = pool.Intern(s);
    if (id == next) ++next;
    EXPECT_LT(id, next) << s.size();
  }
  EXPECT_EQ(pool.Spelling(next), "?" + std::to_string(next));
}

TEST(ValuePoolTest, ArenaRoomAtTheCap) {
  // The reader's once-per-read check: a buffer fits when its bytes fit the
  // room the u32 offsets leave, to the byte.
  constexpr std::size_t kCap = ValuePool::kMaxArenaBytes;
  static_assert(kCap == 0xFFFFFFFFu, "u32 offsets");
  EXPECT_TRUE(ValuePool::Fits(0, kCap));
  EXPECT_FALSE(ValuePool::Fits(0, kCap + 1));
  EXPECT_TRUE(ValuePool::Fits(kCap - 10, 10));
  EXPECT_FALSE(ValuePool::Fits(kCap - 10, 11));
  EXPECT_TRUE(ValuePool::Fits(kCap, 0));
  EXPECT_FALSE(ValuePool::Fits(kCap, 1));
  ValuePool pool;
  pool.Intern("abc");
  pool.Intern("abc");  // a hit takes no room
  EXPECT_TRUE(pool.HasRoom(kCap - 3));
  EXPECT_FALSE(pool.HasRoom(kCap - 2));
}

TEST(ValuePoolTest, ShortSpellingsThatPackAlikeStayDistinct) {
  // "0", "00", "0" plus a trailing NUL and the empty spelling share their
  // bytes up to zero padding; the length byte keeps their keys apart.
  ValuePool pool;
  const Value zero = pool.Intern("0");
  const Value zero_zero = pool.Intern("00");
  const Value zero_nul = pool.Intern(std::string("0\0", 2));
  const Value empty = pool.Intern("");
  EXPECT_EQ(zero, 0);
  EXPECT_EQ(zero_zero, 1);
  EXPECT_EQ(zero_nul, 2);
  EXPECT_EQ(empty, 3);
  EXPECT_EQ(pool.Spelling(zero_nul), std::string("0\0", 2));
  EXPECT_EQ(pool.Spelling(empty), "");
  // Long spellings that share their first and last words are compared
  // through the arena.
  const std::string a = "prefix--" + std::string(9, 'm') + "--suffix";
  std::string b = a;
  b[10] = 'n';
  EXPECT_EQ(pool.Intern(a), 4);
  EXPECT_EQ(pool.Intern(b), 5);
  EXPECT_EQ(pool.Intern(a), 4);
  EXPECT_EQ(pool.Spelling(5), b);
}

Database CartesianExample() {
  // Example 2.1: R(A,B) = {(1,1), (1,2), ..., (1,n)} with n = 4.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  for (int i = 1; i <= 4; ++i) r->Insert({1, i});
  return db;
}

TEST(EvaluateTest, Example21SelfJoin) {
  // R'(X,Y,Z) <- R(X,Y), R(X,Z): n^2 output tuples.
  Database db = CartesianExample();
  auto q = ParseQuery("Rp(X,Y,Z) :- R(X,Y), R(X,Z).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 16u);
}

TEST(EvaluateTest, ProjectionSemantics) {
  Database db = CartesianExample();
  auto q = ParseQuery("P(X) :- R(X,Y), R(X,Z).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // only X = 1
}

TEST(EvaluateTest, RepeatedVariableInAtom) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 1});
  r->Insert({1, 2});
  r->Insert({3, 3});
  auto q = ParseQuery("Q(X) :- R(X,X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (1) and (3)
}

TEST(EvaluateTest, RepeatedHeadVariable) {
  Database db;
  db.AddRelation("R", 1)->Insert({7});
  auto q = ParseQuery("Q(X,X) :- R(X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({7, 7}));
}

TEST(EvaluateTest, MissingRelation) {
  Database db;
  auto q = ParseQuery("Q(X) :- R(X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EvaluateTest, ArityMismatch) {
  Database db;
  db.AddRelation("R", 3)->Insert({1, 2, 3});
  auto q = ParseQuery("Q(X) :- R(X,Y).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluateTest, EmptyRelationYieldsEmptyResult) {
  Database db;
  db.AddRelation("R", 2);
  auto q = ParseQuery("Q(X,Y) :- R(X,Y).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(EvaluateTest, JoinProjectReducesIntermediates) {
  // Four-atom path projecting onto the endpoints: once X is no longer
  // needed the join-project plan collapses the fan-out that the naive plan
  // carries to the end (10 vs 100 peak bindings here).
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < 10; ++i) {
    r->Insert({0, i});  // A -> X fan-out
    s->Insert({i, 0});  // X -> B fan-in
    t->Insert({0, i});  // B -> Y fan-out
    u->Insert({i, 0});  // Y -> C fan-in
  }
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  EvalStats naive_stats, jp_stats;
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, nullptr, nullptr,
                             &naive_stats);
  auto jp = EvaluateQuery(*q, db, PlanKind::kJoinProject, nullptr, nullptr,
                          &jp_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(jp.ok());
  EXPECT_EQ(naive->size(), 1u);
  EXPECT_EQ(jp->size(), 1u);
  EXPECT_EQ(naive_stats.max_intermediate, 100u);
  EXPECT_EQ(jp_stats.max_intermediate, 10u);
}

TEST(EquiJoinTest, KeepsAllColumns) {
  Relation r("R", 2), s("S", 2);
  r.Insert({1, 10});
  r.Insert({2, 20});
  s.Insert({10, 100});
  Relation j = EquiJoin(r, s, {{1, 0}});
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.arity(), 4);
  EXPECT_TRUE(j.Contains({1, 10, 10, 100}));
}

TEST(EquiJoinTest, MultiConditionJoin) {
  Relation r("R", 2), s("S", 2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  s.Insert({1, 2});
  s.Insert({1, 3});
  Relation j = EquiJoin(r, s, {{0, 0}, {1, 1}});
  EXPECT_EQ(j.size(), 2u);  // exact matches only
}

TEST(EquiJoinTest, RowOrderMatchesTheJoinPlanExecutor) {
  // Both binary joins index a side by key and emit, per probing row, its
  // matches in row order: EquiJoin and a two-step plan over the same
  // relations emit one sequence, the nested-loop order. Duplicate keys on
  // both sides make any reversed chain show.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  for (Value a : {5, 1, 4, 2}) {
    r->Insert({a, a % 2});
    r->Insert({a + 10, 1});
  }
  for (Value d : {31, 10, 21, 40, 0, 7}) s->Insert({d % 2, d});
  auto q = ParseQuery("Q(A,B,B,D) :- R(A,B), S(B,D).");
  ASSERT_TRUE(q.ok());
  const Query& query = *q;
  auto planned = ExecuteJoinPlan(
      query,
      {JoinPlanStep{0, {query.FindVariable("A"), query.FindVariable("B")}},
       JoinPlanStep{1,
                    {query.FindVariable("A"), query.FindVariable("B"), query.FindVariable("D")}}},
      db, nullptr);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const Relation joined = EquiJoin(*r, *s, {{1, 0}});
  std::vector<Tuple> nested_loop;
  for (const Tuple& left : r->tuples()) {
    for (const Tuple& right : s->tuples()) {
      if (left[1] == right[0]) {
        nested_loop.push_back({left[0], left[1], right[0], right[1]});
      }
    }
  }
  ASSERT_EQ(nested_loop.size(), 24u);
  EXPECT_EQ(joined.tuples(), nested_loop);
  EXPECT_EQ(planned->tuples(), joined.tuples());
}

TEST(GeneratorTest, RandomDatabaseSatisfiesFds) {
  auto q = ParseQuery(
      "Q(X,Y,Z) :- R(X,Y,Z), S(X,Y).\n"
      "key R: 1. fd S: 1 -> 2.");
  ASSERT_TRUE(q.ok());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomDatabaseOptions opts;
    opts.seed = seed;
    opts.tuples_per_relation = 50;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    EXPECT_TRUE(db.CheckFds(*q).ok()) << "seed " << seed;
    EXPECT_GT(db.RMax(*q).ValueOrDie(), 0u);
  }
}

// Plan equivalence: both plans compute the same relation on random inputs.
class PlanEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanEquivalenceTest, NaiveEqualsJoinProject) {
  const char* queries[] = {
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "Q(X) :- R(X,Y), S(Y,Z), T(Z,W).",
      "Q(X,Y,Z) :- R(X,Y), R(Y,Z), R(Z,X).",
      "Q(A,D) :- R(A,B), S(B,C), T(C,D), R(D,A).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    RandomDatabaseOptions opts;
    opts.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 1;
    opts.tuples_per_relation = 40;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
    auto jp = EvaluateQuery(*q, db, PlanKind::kJoinProject);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(jp.ok());
    ASSERT_EQ(naive->size(), jp->size()) << text;
    for (const Tuple& t : naive->tuples()) EXPECT_TRUE(jp->Contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest, ::testing::Range(1, 12));

}  // namespace
}  // namespace cqbounds
