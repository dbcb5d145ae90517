#include <gtest/gtest.h>

#include "cq/chase.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

TEST(ParserTest, TriangleQuery) {
  auto result = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(result.ok()) << result.status();
  const Query& q = *result;
  EXPECT_EQ(q.head_relation(), "S");
  EXPECT_EQ(q.head_vars().size(), 3u);
  EXPECT_EQ(q.atoms().size(), 3u);
  EXPECT_EQ(q.num_variables(), 3);
  EXPECT_EQ(q.Rep(), 3);  // R appears three times
  EXPECT_TRUE(q.fds().empty());
}

TEST(ParserTest, FdAndKeyDeclarations) {
  auto result = ParseQuery(
      "Q(X,Y) :- R(X,Y,Z), S(X,Y).\n"
      "fd R: 1 -> 2.\n"
      "fd R: 1,2 -> 3.\n"
      "key S: 1.");
  ASSERT_TRUE(result.ok()) << result.status();
  const Query& q = *result;
  ASSERT_EQ(q.fds().size(), 3u);
  EXPECT_EQ(q.fds()[0], (FunctionalDependency{"R", {0}, 1}));
  EXPECT_EQ(q.fds()[1], (FunctionalDependency{"R", {0, 1}, 2}));
  EXPECT_EQ(q.fds()[2], (FunctionalDependency{"S", {0}, 1}));
  EXPECT_FALSE(q.AllFdsSimple());
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto result = ParseQuery(
      "# the triangle\n"
      "  S(X, Y) :-  R( X , Y ).  # inline\n");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->atoms().size(), 1u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("S(X,Y)").ok());                     // no body
  EXPECT_FALSE(ParseQuery("S(X) :- R(X)").ok());               // missing dot
  EXPECT_FALSE(ParseQuery("S(W) :- R(X).").ok());              // head not in body
  EXPECT_FALSE(ParseQuery("S(X) :- R(X), R(X,Y).").ok());      // arity clash
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). fd T: 1 -> 1.").ok());  // unknown rel
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). fd R: 0 -> 1.").ok());  // 0-based pos
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). fd R: 1 -> 2.").ok());  // pos > arity
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). key T: 1.").ok());
}

TEST(ParserTest, OversizedAndOverflowingPositionsAreParseErrors) {
  // Fits an int but exceeds the arity: rejected by validation.
  auto oversized = ParseQuery("Q(X) :- R(X,Y).\nfd R: 2147483647 -> 2.");
  EXPECT_FALSE(oversized.ok());
  // One past INT_MAX, and far past any integer width: a ParseError naming
  // the number's offset, never an exception.
  const std::string prefix = "Q(X) :- R(X,Y).\nfd R: ";
  for (const std::string number : {"2147483648", "99999999999999999999"}) {
    auto overflow = ParseQuery(prefix + number + " -> 2.");
    ASSERT_FALSE(overflow.ok()) << number;
    EXPECT_EQ(overflow.status().code(), StatusCode::kParseError) << number;
    EXPECT_NE(overflow.status().message().find(
                  "offset " + std::to_string(prefix.size())),
              std::string::npos)
        << overflow.status();
  }
  auto rhs_overflow = ParseQuery("Q(X) :- R(X,Y). key R: 1,4294967297.");
  EXPECT_FALSE(rhs_overflow.ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const std::string text =
      "Q(X,Y) :- R(X,Z), S(Z,Y). fd R: 1 -> 2. fd S: 1,2 -> 1.";
  auto first = ParseQuery(text);
  ASSERT_TRUE(first.ok());
  auto second = ParseQuery(first->ToString());
  ASSERT_TRUE(second.ok()) << second.status() << " for " << first->ToString();
  EXPECT_EQ(first->ToString(), second->ToString());
}

TEST(QueryTest, DerivedVariableFds) {
  auto q = ParseQuery(
      "Q(X,Y) :- R(X,Y), R(Y,X).\n"
      "fd R: 1 -> 2.");
  ASSERT_TRUE(q.ok());
  auto vfds = q->DeriveVariableFds();
  // Atom R(X,Y) induces X -> Y; atom R(Y,X) induces Y -> X.
  ASSERT_EQ(vfds.size(), 2u);
  int x = q->FindVariable("X");
  int y = q->FindVariable("Y");
  EXPECT_EQ(vfds[0], (VariableFd{{x}, y}));
  EXPECT_EQ(vfds[1], (VariableFd{{y}, x}));
}

TEST(QueryTest, AddSimpleKeyExpands) {
  Query q;
  int x = q.InternVariable("X");
  int y = q.InternVariable("Y");
  int z = q.InternVariable("Z");
  q.SetHead("Q", {x});
  q.AddAtom("R", {x, y, z});
  q.AddSimpleKey("R", 0, 3);
  ASSERT_EQ(q.fds().size(), 2u);
  EXPECT_TRUE(q.AllFdsSimple());
}

TEST(ChaseTest, PaperExample22) {
  // Example 2.2: R0(W,X,Y,Z) <- R1(W,X,Y), R1(W,W,W), R2(Y,Z) with
  // position 1 of R1 a key: chase yields R0(W,W,W,Z) <- R1(W,W,W), R2(W,Z).
  auto q = ParseQuery(
      "R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z).\n"
      "key R1: 1.");
  ASSERT_TRUE(q.ok()) << q.status();
  Query chased = Chase(*q);
  EXPECT_EQ(chased.atoms().size(), 2u);  // the two R1 atoms collapse
  // Head becomes (W, W, W, Z).
  ASSERT_EQ(chased.head_vars().size(), 4u);
  EXPECT_EQ(chased.head_vars()[0], chased.head_vars()[1]);
  EXPECT_EQ(chased.head_vars()[1], chased.head_vars()[2]);
  EXPECT_NE(chased.head_vars()[2], chased.head_vars()[3]);
  // Only two distinct variables remain.
  EXPECT_EQ(chased.BodyVarSet().size(), 2u);
}

TEST(ChaseTest, NoFdsIsIdentity) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  Query chased = Chase(*q);
  EXPECT_EQ(chased.ToString(), q->ToString());
}

TEST(ChaseTest, CompoundFdChase) {
  // R(X,Y,A) and R(X,Y,B) with {1,2} -> 3 force A == B.
  auto q = ParseQuery(
      "Q(A,B) :- R(X,Y,A), R(X,Y,B).\n"
      "fd R: 1,2 -> 3.");
  ASSERT_TRUE(q.ok());
  Query chased = Chase(*q);
  EXPECT_EQ(chased.atoms().size(), 1u);
  EXPECT_EQ(chased.head_vars()[0], chased.head_vars()[1]);
}

TEST(ChaseTest, TransitiveClosureOfMerges) {
  // Two keyed atoms chained: R(A,B), R(A,C) merge B,C; then S(B,D), S(C,E)
  // (same variable class after merge) merge D,E.
  auto q = ParseQuery(
      "Q(A,B,C,D,E) :- R(A,B), R(A,C), S(B,D), S(C,E).\n"
      "key R: 1. key S: 1.");
  ASSERT_TRUE(q.ok());
  Query chased = Chase(*q);
  EXPECT_EQ(chased.atoms().size(), 2u);
  EXPECT_EQ(chased.BodyVarSet().size(), 3u);  // A, B==C, D==E
}

TEST(ChaseTest, IdempotentOnChasedQuery) {
  auto q = ParseQuery(
      "R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z).\n"
      "key R1: 1.");
  ASSERT_TRUE(q.ok());
  Query once = Chase(*q);
  Query twice = Chase(once);
  EXPECT_EQ(once.ToString(), twice.ToString());
}

// Fact 2.4: Q(D) == chase(Q)(D) for every database satisfying the FDs.
class ChaseEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaseEquivalenceTest, ChasePreservesResults) {
  const char* queries[] = {
      "Q(X,Y,Z) :- R(X,Y), R(X,Z). key R: 1.",
      "Q(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z). key R1: 1.",
      "Q(A,B) :- R(A,B), S(B,A). fd R: 1 -> 2. fd S: 1 -> 2.",
      "Q(X,Z) :- R(X,Y), R(Y,Z), R(Z,X). fd R: 1 -> 2.",
      "Q(A,B,C) :- R(A,B,C), R(A,B,C). fd R: 1,2 -> 3.",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = static_cast<std::uint64_t>(GetParam());
    opts.tuples_per_relation = 30;
    opts.domain_size = 5;
    Database db = RandomDatabase(*q, opts);
    ASSERT_TRUE(db.CheckFds(*q).ok());
    Query chased = Chase(*q);
    auto original = EvaluateQuery(*q, db, PlanKind::kNaive);
    auto after = EvaluateQuery(chased, db, PlanKind::kNaive);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(original->size(), after->size()) << text;
    for (const Tuple& t : original->tuples()) {
      EXPECT_TRUE(after->Contains(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseEquivalenceTest, ::testing::Range(1, 15));

}  // namespace
}  // namespace cqbounds
