#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "core/color_number.h"
#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/trie_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cqbounds {
namespace {

// --- TrieIndex -------------------------------------------------------------

TEST(TrieIndexTest, BuildsSortedLevelsAndChildRanges) {
  Relation r("R", 2);
  r.Insert({2, 30});
  r.Insert({1, 10});
  r.Insert({2, 10});
  r.Insert({1, 20});
  r.Insert({2, 30});  // duplicate, set semantics upstream

  TrieIndex trie(r, {{0}, {1}});
  ASSERT_EQ(trie.num_levels(), 2);
  EXPECT_EQ(trie.num_tuples(), 4u);

  TrieIndex::Range root = trie.RootRange();
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(trie.ValueAt(0, 0), 1);
  EXPECT_EQ(trie.ValueAt(0, 1), 2);

  TrieIndex::Range under1 = trie.ChildRange(0, 0);
  ASSERT_EQ(under1.size(), 2u);
  EXPECT_EQ(trie.ValueAt(1, under1.begin), 10);
  EXPECT_EQ(trie.ValueAt(1, under1.begin + 1), 20);

  TrieIndex::Range under2 = trie.ChildRange(0, 1);
  ASSERT_EQ(under2.size(), 2u);
  EXPECT_EQ(trie.ValueAt(1, under2.begin), 10);
  EXPECT_EQ(trie.ValueAt(1, under2.begin + 1), 30);

  // Last level has no children.
  EXPECT_TRUE(trie.ChildRange(1, under2.begin).empty());
}

TEST(TrieIndexTest, ColumnPermutationAndRepeatedVariableFilter) {
  Relation r("R", 3);
  r.Insert({1, 2, 1});   // t[0] == t[2]: survives the X filter
  r.Insert({1, 2, 3});   // violates it: dropped
  r.Insert({4, 5, 4});

  // Atom R(X, Y, X) keyed as Y then X: level 0 reads column 1, level 1
  // reads columns {0, 2} which must agree.
  TrieIndex trie(r, {{1}, {0, 2}});
  EXPECT_EQ(trie.num_tuples(), 2u);
  TrieIndex::Range root = trie.RootRange();
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(trie.ValueAt(0, 0), 2);  // Y values
  EXPECT_EQ(trie.ValueAt(0, 1), 5);
  EXPECT_EQ(trie.ValueAt(1, trie.ChildRange(0, 0).begin), 1);  // X under Y=2
  EXPECT_EQ(trie.ValueAt(1, trie.ChildRange(0, 1).begin), 4);  // X under Y=5
}

/// Every root-to-leaf key of `trie` in lexicographic (level) order, for
/// comparing a patched trie against a from-scratch build.
std::vector<Tuple> AllKeys(const TrieIndex& trie) {
  std::vector<Tuple> keys;
  if (trie.num_levels() == 0) return keys;
  Tuple key(trie.num_levels());
  std::function<void(int, TrieIndex::Range)> walk =
      [&](int level, TrieIndex::Range range) {
        for (std::size_t i = range.begin; i < range.end; ++i) {
          key[level] = trie.ValueAt(level, i);
          if (level + 1 == trie.num_levels()) {
            keys.push_back(key);
          } else {
            walk(level + 1, trie.ChildRange(level, i));
          }
        }
      };
  walk(0, trie.RootRange());
  return keys;
}

TEST(TrieIndexTest, PatchMatchesFromScratchRebuild) {
  Relation r("R", 2);
  for (Value v : {5, 1, 9, 3}) r.Insert({v, v * 10});
  TrieIndex base(r, {{0}, {1}});

  // Appends interleave with existing keys on both levels. The delta is the
  // tail past the snapshot's watermark: rows [4, 7).
  r.Insert({2, 20});
  r.Insert({9, 5});   // new child under an existing level-0 value
  r.Insert({11, 1});  // past the old maximum
  const RowView appended = RowView::Tail(r.store(), 4, 3);

  TrieIndex patched(base);
  patched.Splice(appended, RowView(), {{0}, {1}});
  TrieIndex scratch(r, {{0}, {1}});
  EXPECT_EQ(patched.num_tuples(), scratch.num_tuples());
  EXPECT_EQ(AllKeys(patched), AllKeys(scratch));
  // The base is untouched (the splice went into a copy).
  EXPECT_EQ(base.num_tuples(), 4u);
}

TEST(TrieIndexTest, PatchIsSetSemanticAndFiltersSelfInconsistent) {
  // Layout for R(X, Y, X): level 0 reads column 1, level 1 requires
  // columns {0, 2} to agree.
  Relation r("R", 3);
  r.Insert({1, 2, 1});
  r.Insert({4, 5, 4});
  TrieIndex base(r, {{1}, {0, 2}});
  ASSERT_EQ(base.num_tuples(), 2u);

  // The delta repeats a base key, adds one genuinely new key, and carries a
  // self-inconsistent tuple: the patch must grow by exactly one. A scratch
  // relation stands in for the appended tail.
  Relation d("D", 3);
  d.Insert({1, 2, 1});  // repeats a base key
  d.Insert({6, 7, 6});  // genuinely new
  d.Insert({8, 9, 1});  // self-inconsistent under {0, 2}: filtered
  base.Splice(RowView::Tail(d.store(), 0, 3), RowView(), {{1}, {0, 2}});
  EXPECT_EQ(base.num_tuples(), 3u);
  EXPECT_EQ(AllKeys(base),
            (std::vector<Tuple>{{2, 1}, {5, 4}, {7, 6}}));
}

TEST(TrieIndexTest, PatchOnNullaryTrieFlipsEmptiness) {
  Relation g("G", 0);
  TrieIndex base(g, {});
  EXPECT_EQ(base.num_levels(), 0);
  EXPECT_EQ(base.num_tuples(), 0u);

  // An empty delta keeps the guard closed; the empty tuple opens it.
  base.Splice(RowView::Tail(g.store(), 0, 0), RowView(), {});
  EXPECT_EQ(base.num_tuples(), 0u);
  Relation d("D", 0);
  d.Insert({});
  base.Splice(RowView::Tail(d.store(), 0, 1), RowView(), {});
  EXPECT_EQ(base.num_tuples(), 1u);
}

TEST(TrieIndexTest, SeekGallopsWithinRange) {
  Relation r("R", 1);
  for (Value v : {2, 3, 5, 7, 11, 13, 17, 19, 23}) r.Insert({v});
  TrieIndex trie(r, {{0}});
  TrieIndex::Range root = trie.RootRange();
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 1)), 2);
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 5)), 5);
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 6)), 7);
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 23)), 23);
  EXPECT_EQ(trie.SeekGE(0, root, 24), root.end);
  // Seeks respect the range's start (mid-descent subranges).
  TrieIndex::Range tail{4, root.end};
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, tail, 3)), 11);
}

// --- The seek protocol -----------------------------------------------------

// SeekGE against std::lower_bound over random sorted levels: empty ranges,
// ranges ending at the level's end, and targets below, inside and above the
// range, at gallop distances from 0 to 2^12 past the range's start.
TEST(TrieIndexTest, SeekGEMatchesLowerBoundOnRandomLevels) {
  Rng rng(4099);
  for (int trial = 0; trial < 6; ++trial) {
    // Two levels: level 0 is one sorted run; level 1 is one sorted run per
    // level-0 key, with value gaps of 1 to 2^(trial+1).
    Relation r("R", 2);
    const Value spread = Value{2} << trial;
    const int groups = 3;
    for (int g = 0; g < groups; ++g) {
      const int n = 1 + static_cast<int>(rng.NextBelow(6000));
      Value v = static_cast<Value>(rng.NextBelow(50)) - 25;
      for (int i = 0; i < n; ++i) {
        r.Insert({g * 7, v});
        v += 1 + static_cast<Value>(rng.NextBelow(
                     static_cast<std::uint64_t>(spread)));
      }
    }
    TrieIndex trie(r, {{0}, {1}});
    ASSERT_EQ(trie.num_levels(), 2);
    std::vector<std::pair<int, TrieIndex::Range>> runs = {
        {0, trie.RootRange()}};
    for (std::size_t g = 0; g < trie.RootRange().size(); ++g) {
      runs.push_back({1, trie.ChildRange(0, g)});
    }
    for (const auto& [level, run] : runs) {
      std::vector<Value> vals;
      for (std::size_t i = run.begin; i < run.end; ++i) {
        vals.push_back(trie.ValueAt(level, i));
      }
      auto expect_seek = [&](TrieIndex::Range q, Value target) {
        const auto lo = vals.begin() + static_cast<std::ptrdiff_t>(
                                           q.begin - run.begin);
        const auto hi = vals.begin() + static_cast<std::ptrdiff_t>(
                                           q.end - run.begin);
        const std::size_t want =
            run.begin +
            static_cast<std::size_t>(std::lower_bound(lo, hi, target) -
                                     vals.begin());
        ASSERT_EQ(trie.SeekGE(level, q, target), want)
            << "level " << level << " range [" << q.begin << ", " << q.end
            << ") target " << target;
      };
      for (int k = 0; k < 300; ++k) {
        const std::size_t b =
            run.begin + rng.NextBelow(run.size() + 1);
        // Every fourth range runs to the end of the parent's run.
        const std::size_t e =
            k % 4 == 0 ? run.end : b + rng.NextBelow(run.end - b + 1);
        const TrieIndex::Range q{b, e};
        if (q.empty()) {
          expect_seek(q, 0);
          expect_seek(q, vals.empty() ? 0 : vals.front() - 1);
          continue;
        }
        const Value first = trie.ValueAt(level, b);
        const Value last = trie.ValueAt(level, e - 1);
        expect_seek(q, first - 1 -
                           static_cast<Value>(rng.NextBelow(1000)));  // below
        expect_seek(q, first);
        expect_seek(q, last);
        expect_seek(q, last + 1 +
                           static_cast<Value>(rng.NextBelow(1000)));  // above
        // Inside: an exact hit and a value just past it, at gap 2^j.
        for (std::size_t gap = 0; gap <= 4096; gap = gap == 0 ? 1 : gap * 2) {
          const std::size_t at = b + std::min(gap, q.size() - 1);
          expect_seek(q, trie.ValueAt(level, at));
          expect_seek(q, trie.ValueAt(level, at) + 1);
        }
      }
    }
  }
}

// --- Golden search counts ---------------------------------------------------

/// FNV-1a over a relation's rows in row order: pins an answer as a
/// sequence, not only as a set.
std::uint64_t RowSequenceHash(const Relation& rel) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Tuple& t : rel.tuples()) {
    for (Value v : t) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ull;
    }
    h ^= 0xFFu;  // row separator
    h *= 1099511628211ull;
  }
  return h;
}

/// A skewed directed graph from integer draws only (so the instance is the
/// same on every platform): endpoint id min(U, V, W) of three independent
/// uniform draws puts most edges on low ids, so a few hubs carry most
/// triangles.
Database SkewedEdges(std::uint64_t vertices, std::size_t edges,
                     std::uint64_t seed) {
  Rng rng(seed);
  auto draw = [&] {
    return static_cast<Value>(
        std::min({rng.NextBelow(vertices), rng.NextBelow(vertices),
                  rng.NextBelow(vertices)}));
  };
  Database db;
  Relation* e = db.AddRelation("E", 2);
  while (e->size() < edges) {
    const Value u = draw();
    const Value v = draw();
    if (u != v) e->Insert({u, v});
  }
  return db;
}

// The search's observable work, pinned: seeks, per-depth bindings and the
// answer row sequence of three queries on one seeded skewed graph, serial
// and over a 3-worker pool. A change to the seek kernel, the leapfrog loop
// or the merge that alters any count or the row order fails here. The
// pooled seeks exceed the serial ones by the depth-0 re-seeks only.
TEST(GenericJoinGoldenTest, SeeksIntermediatesAndRowOrderArePinned) {
  struct Golden {
    const char* query;
    std::uint64_t serial_seeks;
    std::uint64_t pooled_seeks;
    std::vector<std::size_t> intermediates;
    std::size_t rows;
    std::uint64_t row_hash;
  };
  const Golden goldens[] = {
      {"T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).", 175828, 177364,
       {768, 7831, 3024}, 3024, 9300078078067386965ull},
      {"P(X,Y,Z) :- E(X,Y), E(Y,Z).", 125410, 126946, {768, 7914, 115870},
       115870, 4176439257561237412ull},
      {"K(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D).",
       278524, 280975, {817, 7914, 3002, 54}, 54, 3549800537433784049ull},
  };
  const Database db = SkewedEdges(1000, 8000, 7919);
  ThreadPool pool(3);
  for (const Golden& g : goldens) {
    const Query q = ParseQuery(g.query).ValueOrDie();
    EvalStats serial, pooled;
    auto serial_out =
        EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr, nullptr, &serial);
    auto pooled_out =
        EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr, &pool, &pooled);
    ASSERT_TRUE(serial_out.ok()) << serial_out.status();
    ASSERT_TRUE(pooled_out.ok()) << pooled_out.status();
    EXPECT_EQ(serial.intersection_seeks, g.serial_seeks) << g.query;
    EXPECT_EQ(pooled.intersection_seeks, g.pooled_seeks) << g.query;
    EXPECT_EQ(serial.intermediate_sizes, g.intermediates) << g.query;
    EXPECT_EQ(pooled.intermediate_sizes, g.intermediates) << g.query;
    EXPECT_EQ(serial_out->size(), g.rows) << g.query;
    EXPECT_EQ(RowSequenceHash(*serial_out), g.row_hash) << g.query;
    EXPECT_EQ(RowSequenceHash(*pooled_out), g.row_hash) << g.query;
    EXPECT_EQ(pooled.parallel_workers, 4u) << g.query;
  }
}

/// A directed graph with hubs on both sides of TrieIndex::kHeavyChildren,
/// from integer draws only: endpoint id U(U(U(n) + 1) + 1) piles edges on
/// low ids, so a dozen vertices have 64 to ~130 out-neighbours, a few
/// more fall just short of 64, and the rest have a handful.
Database HubEdges(std::uint64_t vertices, std::size_t edges,
                  std::uint64_t seed) {
  Rng rng(seed);
  auto draw = [&] {
    return static_cast<Value>(
        rng.NextBelow(rng.NextBelow(rng.NextBelow(vertices) + 1) + 1));
  };
  Database db;
  Relation* e = db.AddRelation("E", 2);
  while (e->size() < edges) {
    const Value u = draw();
    const Value v = draw();
    if (u != v) e->Insert({u, v});
  }
  return db;
}

// The probe kernel pinned on a graph with heavy nodes: the intermediates
// and row sequences were recorded by the leapfrog-only executor, so the
// kernel changes the work (seeks), never the answer or its order. The
// triangle and K4 probe a heavy child set at their deeper depths; two-hop
// intersects nothing there and keeps the leapfrog's seek count.
TEST(GenericJoinGoldenTest, HubSeeksIntermediatesAndRowOrderArePinned) {
  const Database db = HubEdges(1500, 8000, 7919);
  // Both tries the triangle reads hold heavy nodes, and light nodes with
  // 48 to 63 children sit just under the threshold.
  std::size_t heavy = 0;
  std::size_t near = 0;
  for (const std::vector<std::vector<int>>& layout :
       {std::vector<std::vector<int>>{{0}, {1}},
        std::vector<std::vector<int>>{{1}, {0}}}) {
    const TrieIndex trie(*db.Find("E"), layout);
    std::size_t heavy_here = 0;
    for (std::size_t i = 0; i < trie.RootRange().end; ++i) {
      const TrieIndex::Range kids = trie.ChildRange(0, i);
      const bool big = kids.size() >= TrieIndex::kHeavyChildren;
      EXPECT_EQ(kids.bits != nullptr, big) << i;
      heavy_here += big;
      near += !big && kids.size() >= 48;
    }
    EXPECT_GE(heavy_here, 10u);
    heavy += heavy_here;
  }
  EXPECT_EQ(heavy, 23u);
  EXPECT_GE(near, 10u);

  struct Golden {
    const char* query;
    std::uint64_t serial_seeks;
    std::uint64_t pooled_seeks;
    std::vector<std::size_t> intermediates;
    std::size_t rows;
    std::uint64_t row_hash;
  };
  const Golden goldens[] = {
      {"T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).", 195032, 196626,
       {797, 7613, 16725}, 16725, 15695678420578406063ull},
      {"P(X,Y,Z) :- E(X,Y), E(Y,Z).", 226387, 227981, {797, 7816, 216773},
       216773, 747358374540555635ull},
      {"K(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D).",
       812133, 814929, {932, 7816, 16899, 23120}, 23120,
       1679688789838189824ull},
  };
  ThreadPool pool(3);
  for (const Golden& g : goldens) {
    const Query q = ParseQuery(g.query).ValueOrDie();
    EvalStats serial, pooled;
    auto serial_out =
        EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr, nullptr, &serial);
    auto pooled_out =
        EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr, &pool, &pooled);
    ASSERT_TRUE(serial_out.ok()) << serial_out.status();
    ASSERT_TRUE(pooled_out.ok()) << pooled_out.status();
    EXPECT_EQ(serial.intersection_seeks, g.serial_seeks) << g.query;
    EXPECT_EQ(pooled.intersection_seeks, g.pooled_seeks) << g.query;
    EXPECT_EQ(serial.intermediate_sizes, g.intermediates) << g.query;
    EXPECT_EQ(pooled.intermediate_sizes, g.intermediates) << g.query;
    EXPECT_EQ(serial_out->size(), g.rows) << g.query;
    EXPECT_EQ(RowSequenceHash(*serial_out), g.row_hash) << g.query;
    EXPECT_EQ(RowSequenceHash(*pooled_out), g.row_hash) << g.query;
    EXPECT_EQ(pooled.parallel_workers, 4u) << g.query;
  }
}

// --- Executor correctness --------------------------------------------------

void ExpectSameRelation(const Relation& a, const Relation& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (const Tuple& t : a.tuples()) {
    EXPECT_TRUE(b.Contains(t)) << context;
  }
}

TEST(GenericJoinTest, MatchesBinaryPlansOnHandPickedQueries) {
  const char* queries[] = {
      "Q(X,Y) :- R(X,Y).",
      "Q(X) :- R(X,X).",
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
      "Q(X,X,Y) :- R(X), S(Y).",
      "Q(A) :- R(A,B), R(B,A).",
      "Q(A,D) :- R(A,B), T(C,D), S(B,C).",
      "Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = 99;
    opts.tuples_per_relation = 25;
    opts.domain_size = 5;
    Database db = RandomDatabase(*q, opts);
    auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
    auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin);
    ASSERT_TRUE(naive.ok()) << text;
    ASSERT_TRUE(generic.ok()) << text;
    ExpectSameRelation(*naive, *generic, text);
  }
}

TEST(GenericJoinTest, RespectsExplicitVariableOrders) {
  // Every permutation of the triangle's variables gives the same output.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  RandomDatabaseOptions opts;
  opts.seed = 5;
  opts.tuples_per_relation = 40;
  opts.domain_size = 8;
  Database db = RandomDatabase(*q, opts);
  auto reference = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(reference.ok());

  const std::set<int> body = q->BodyVarSet();
  std::vector<int> order(body.begin(), body.end());
  do {
    EvalStats stats;
    auto result = EvaluateGenericJoin(*q, db, order, &stats);
    ASSERT_TRUE(result.ok());
    ExpectSameRelation(*reference, *result, "permuted order");
    ASSERT_EQ(stats.intermediate_sizes.size(), order.size());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(GenericJoinTest, RejectsBadVariableOrders) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  db.AddRelation("R", 2)->Insert({1, 2});
  db.AddRelation("S", 2)->Insert({2, 3});
  std::vector<int> full = DefaultGenericJoinOrder(*q);
  ASSERT_EQ(full.size(), 3u);

  std::vector<int> missing(full.begin(), full.end() - 1);
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, missing, nullptr).ok());

  std::vector<int> repeated = full;
  repeated.back() = repeated.front();
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, repeated, nullptr).ok());

  std::vector<int> foreign = full;
  foreign.back() = 99;
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, foreign, nullptr).ok());
}

// --- The AGM envelope ------------------------------------------------------

/// rho*(full join): the fractional edge cover number of `query` with every
/// body variable promoted into the head.
Rational FullJoinCoverExponent(const Query& query) {
  auto cover = FractionalEdgeCoverWeights(query, /*cover_all_body_vars=*/true);
  CQB_CHECK(cover.ok());
  return cover->value;
}

TEST(GenericJoinTest, IntermediatesStayWithinAgmEnvelopeOnAdversary) {
  // The fan-in/fan-out chain where the naive left-deep plan carries
  // quadratic intermediates: the generic join must stay within
  // rmax^{rho*(full join)} at every depth (and does much better).
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  const int fanout = 50;
  for (int i = 0; i < fanout; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  const BigInt rmax(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie()));
  const Rational envelope = FullJoinCoverExponent(*q);

  EvalStats generic_stats;
  auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin, nullptr, nullptr,
                               &generic_stats);
  ASSERT_TRUE(generic.ok());
  EXPECT_TRUE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)), rmax,
      envelope));

  // And the adversary does hurt the naive plan as designed.
  EvalStats naive_stats;
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, nullptr, nullptr,
                             &naive_stats);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive_stats.max_intermediate,
            static_cast<std::size_t>(fanout) * fanout);
  EXPECT_LE(generic_stats.max_intermediate, naive_stats.max_intermediate);
  ExpectSameRelation(*naive, *generic, "chain adversary");
}

TEST(GenericJoinTest, IntermediatesStayWithinAgmEnvelopeOnWorstCaseDbs) {
  // On the Prop 4.5 worst-case triangle databases the naive plan's first
  // binary join exceeds the AGM bound; the generic join cannot.
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto bound = ComputeSizeBound(*q);
  ASSERT_TRUE(bound.ok());
  const Rational envelope = FullJoinCoverExponent(*q);
  EXPECT_EQ(envelope, bound->exponent);  // all variables are in the head

  for (std::int64_t m : {4, 8, 16}) {
    auto db = BuildWorstCaseDatabase(*q, bound->witness, m);
    ASSERT_TRUE(db.ok());
    const BigInt rmax(static_cast<std::int64_t>(db->RMax(*q).ValueOrDie()));

    EvalStats generic_stats, naive_stats;
    auto generic = EvaluateQuery(*q, *db, PlanKind::kGenericJoin,
                                 nullptr, nullptr,
                                 &generic_stats);
    auto naive = EvaluateQuery(*q, *db, PlanKind::kNaive, nullptr, nullptr,
                               &naive_stats);
    ASSERT_TRUE(generic.ok());
    ASSERT_TRUE(naive.ok());
    ExpectSameRelation(*naive, *generic, "worst-case triangle");

    EXPECT_TRUE(SatisfiesSizeBound(
        BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)),
        rmax, envelope))
        << "M=" << m;
    // The worst-case databases are tight for the *output*; the naive
    // intermediate R x R (4M^3 vs the ~5.2M^3 cap) sits above it.
    EXPECT_GT(naive_stats.max_intermediate, generic_stats.max_intermediate)
        << "M=" << m;
  }
}

TEST(GenericJoinTest, NaiveExceedsEnvelopeOnStarTriangleGenericJoinCannot) {
  // The star adversary: E = {(0,i)} u {(i,0)} plus one genuine triangle.
  // The naive plan's second step materializes ~n^2 two-step walks through
  // the hub, blowing past the AGM envelope (2n)^{3/2}; the generic join is
  // structurally incapable of that.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(60);
  const BigInt rmax(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie()));
  const Rational envelope = FullJoinCoverExponent(*q);
  EXPECT_EQ(envelope, Rational(3, 2));

  EvalStats naive_stats, generic_stats;
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, nullptr, nullptr,
                             &naive_stats);
  auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin,
                               nullptr, nullptr,
                               &generic_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(generic.ok());
  ExpectSameRelation(*naive, *generic, "star triangle");
  EXPECT_EQ(generic->size(), 3u);  // the cyclic rotations of the triangle

  EXPECT_FALSE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(naive_stats.max_intermediate)), rmax,
      envelope));
  EXPECT_TRUE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)), rmax,
      envelope));
}

TEST(GenericJoinTest, RandomizedFourPlanCrossValidationWithEnvelope) {
  Rng rng(20260731);
  for (int trial = 0; trial < 40; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 3;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 20;
    opts.domain_size = 4;
    Database db = RandomDatabase(q, opts);

    EvalStats generic_stats, hybrid_stats;
    auto naive = EvaluateQuery(q, db, PlanKind::kNaive);
    auto project = EvaluateQuery(q, db, PlanKind::kJoinProject);
    auto generic = EvaluateQuery(q, db, PlanKind::kGenericJoin,
                                 nullptr, nullptr,
                                 &generic_stats);
    auto hybrid = EvaluateQuery(q, db, PlanKind::kHybridYannakakis,
                                nullptr, nullptr,
                                &hybrid_stats);
    ASSERT_TRUE(naive.ok()) << q.ToString();
    ASSERT_TRUE(project.ok()) << q.ToString();
    ASSERT_TRUE(generic.ok()) << q.ToString();
    ASSERT_TRUE(hybrid.ok()) << q.ToString();
    ExpectSameRelation(*naive, *project, q.ToString());
    ExpectSameRelation(*naive, *generic, q.ToString());
    ExpectSameRelation(*naive, *hybrid, q.ToString());

    const std::size_t rmax_size = db.RMax(q).ValueOrDie();
    if (rmax_size > 0) {
      const BigInt rmax(static_cast<std::int64_t>(rmax_size));
      const Rational envelope = FullJoinCoverExponent(q);
      EXPECT_TRUE(SatisfiesSizeBound(
          BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)),
          rmax, envelope))
          << q.ToString();
      // The hybrid enumerates over semi-join-reduced (sub)relations, so it
      // inherits the AGM envelope -- and on reduced inputs can only do
      // better.
      EXPECT_TRUE(SatisfiesSizeBound(
          BigInt(static_cast<std::int64_t>(hybrid_stats.max_intermediate)),
          rmax, envelope))
          << q.ToString();
    }
  }
}

// --- Projection-aware early exit -------------------------------------------

TEST(GenericJoinTest, ProjectionEarlyExitSkipsWitnessSubtrees) {
  // Q(A) :- R(A,X), S(X,B): under the order A < X < B, once A is bound the
  // head tuple is fixed -- a single (X, B) witness suffices. The executor
  // used to enumerate every witness and let output->Insert dedup them away.
  auto projected = ParseQuery("Q(A) :- R(A,X), S(X,B).");
  auto full = ParseQuery("Q(A,X,B) :- R(A,X), S(X,B).");
  ASSERT_TRUE(projected.ok());
  ASSERT_TRUE(full.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  const int fanout = 30;
  for (int a = 0; a < 4; ++a) {
    for (int x = 0; x < fanout; ++x) r->Insert({a, x});
  }
  for (int x = 0; x < fanout; ++x) {
    for (int b = 0; b < fanout; ++b) s->Insert({x, 1000 + b});
  }

  // Same body, same order; only the head differs. ParseQuery interns
  // variables in appearance order, so both queries share variable ids.
  const std::vector<int> order = DefaultGenericJoinOrder(*full);
  EvalStats head_only, full_stats;
  auto result = EvaluateGenericJoin(*projected, db, order, &head_only);
  auto witness_all = EvaluateGenericJoin(*full, db, order, &full_stats);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(witness_all.ok());

  EXPECT_EQ(result->size(), 4u);  // one output tuple per A value
  auto naive = EvaluateQuery(*projected, db, PlanKind::kNaive);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->size(), result->size());
  for (const Tuple& t : naive->tuples()) EXPECT_TRUE(result->Contains(t));

  // The projected query truncated witness enumeration; the full-head query
  // could not (its counter must stay zero).
  EXPECT_GT(head_only.projection_subtrees_skipped, 0u);
  EXPECT_EQ(full_stats.projection_subtrees_skipped, 0u);
  EXPECT_LT(head_only.intersection_seeks, full_stats.intersection_seeks);
  EXPECT_LT(head_only.total_intermediate, full_stats.total_intermediate);
}

TEST(GenericJoinTest, BooleanQueryStopsAtTheFirstWitness) {
  // A variable-free head: the whole search is an existence check, so the
  // executor must touch exactly one binding per depth however large E is.
  Query q;
  const int x = q.InternVariable("X");
  const int y = q.InternVariable("Y");
  q.SetHead("Q", {});
  q.AddAtom("E", {x, y});
  ASSERT_TRUE(q.Validate().ok());

  Database db;
  Relation* e = db.AddRelation("E", 2);
  for (int i = 0; i < 500; ++i) e->Insert({i, i + 1});

  EvalStats stats;
  auto result = EvaluateQuery(q, db, PlanKind::kGenericJoin, nullptr, nullptr,
                              &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains(Tuple{}));
  ASSERT_EQ(stats.intermediate_sizes.size(), 2u);
  EXPECT_EQ(stats.intermediate_sizes[0], 1u);
  EXPECT_EQ(stats.intermediate_sizes[1], 1u);
  EXPECT_GT(stats.projection_subtrees_skipped, 0u);

  // And an unsatisfiable body still reports the empty answer.
  Query dead = q;
  dead.AddAtom("Empty", {x});
  ASSERT_TRUE(dead.Validate().ok());
  db.AddRelation("Empty", 1);
  auto no = EvaluateQuery(dead, db, PlanKind::kGenericJoin);
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(no->size(), 0u);
}

// --- Variable-order selection ----------------------------------------------

TEST(GenericJoinOrderTest, ChainQueryUsesCertifiedDecomposition) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ(order->source, VariableOrderSource::kTreeDecomposition);
  EXPECT_EQ(order->intersection_width, 1);  // the chain's variable graph
  EXPECT_EQ(order->order.size(), q->BodyVarSet().size());
  // rho* of the full chain join: both endpoint atoms pay 1 and the middle
  // variable B still needs a unit of cover.
  EXPECT_EQ(order->envelope_exponent, Rational(3));
  EXPECT_NE(order->ToString(*q).find("tree-decomposition"),
            std::string::npos);
}

TEST(GenericJoinOrderTest, DenseQueryFallsBackToCoverWeights) {
  // K4 as a clique query: variable graph K4 has width 3 > 2, so the order
  // comes from the fractional-cover mass.
  auto q = ParseQuery(
      "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ(order->source, VariableOrderSource::kFractionalCover);
  EXPECT_EQ(order->order.size(), 4u);
  EXPECT_EQ(order->envelope_exponent, Rational(2));  // perfect matching
  EXPECT_EQ(order->recommended_plan, PlanKind::kGenericJoin);
  EXPECT_EQ(std::string(PlanReasonName(*order)), "width>2");
  EXPECT_NE(order->ToString(*q).find("reason=width>2"), std::string::npos);
}

/// `order` as variable names joined by spaces.
std::string OrderNames(const Query& q, const std::vector<int>& order) {
  std::string out;
  for (int v : order) out += (out.empty() ? "" : " ") + q.variable_name(v);
  return out;
}

/// The variable ids of `names`, in order.
std::vector<int> OrderOf(const Query& q,
                         const std::vector<std::string>& names) {
  std::vector<int> order;
  for (const std::string& name : names) {
    for (int v = 0; v < q.num_variables(); ++v) {
      if (q.variable_name(v) == name) order.push_back(v);
    }
  }
  return order;
}

TEST(GenericJoinOrderTest, ProjectionRunsTheCertifiedDefaultOrder) {
  // The reverse elimination order C B A binds the head last, so it fails
  // the certificate; the default order B A C carries it and is returned.
  auto q = ParseQuery("P(A) :- F(A,B), G(B,C).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ(order->source, VariableOrderSource::kGreedy);
  EXPECT_EQ(order->intersection_width, 1);
  EXPECT_EQ(OrderNames(*q, order->order), "B A C");
  EXPECT_EQ(order->order, DefaultGenericJoinOrder(*q));
  EXPECT_EQ(order->recommended_plan, PlanKind::kGenericJoin);
  EXPECT_EQ(std::string(PlanReasonName(*order)), "input-linear");
  EXPECT_NE(order->ToString(*q).find("reason=input-linear"),
            std::string::npos);
}

TEST(GenericJoinOrderTest, UncertifiedLowWidthQueriesKeepOrderAndHybrid) {
  // The default order fails the certificate: the hybrid, over the reverse
  // certified elimination order.
  struct Case {
    const char* text;
    const char* order;
  };
  const Case cases[] = {
      {"Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).", "Y B X C A"},
      {"QC(X,Z) :- H(X), L(X,Y), M(Y,Z).", "Y Z X"},
      {"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", "D C B A"},
  };
  for (const Case& c : cases) {
    auto q = ParseQuery(c.text);
    ASSERT_TRUE(q.ok()) << c.text;
    auto order = ChooseGenericJoinOrder(*q);
    ASSERT_TRUE(order.ok()) << c.text;
    EXPECT_EQ(order->source, VariableOrderSource::kTreeDecomposition)
        << c.text;
    EXPECT_EQ(OrderNames(*q, order->order), c.order) << c.text;
    EXPECT_EQ(order->recommended_plan, PlanKind::kHybridYannakakis) << c.text;
    EXPECT_EQ(std::string(PlanReasonName(*order)), "reduction-may-pay")
        << c.text;
  }
}

TEST(GenericJoinOrderTest, TriangleIsInputLinear) {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->intersection_width, 2);
  // Both orders are certified, so the elimination order stands.
  EXPECT_EQ(order->source, VariableOrderSource::kTreeDecomposition);
  EXPECT_EQ(OrderNames(*q, order->order), "Z Y X");
  EXPECT_EQ(order->recommended_plan, PlanKind::kGenericJoin);
  EXPECT_EQ(std::string(PlanReasonName(*order)), "input-linear");
}

TEST(GenericJoinOrderTest, InputLinearCertificateCases) {
  struct Case {
    const char* text;
    std::vector<std::string> order;
    bool certified;
  };
  const Case cases[] = {
      // Projection: {A,B} lies in F and the projected C binds last.
      {"P(A) :- F(A,B), G(B,C).", {"A", "B", "C"}, true},
      {"P(A) :- F(A,B), G(B,C).", {"B", "A", "C"}, true},
      // The reverse certified elimination order binds the head last.
      {"P(A) :- F(A,B), G(B,C).", {"C", "B", "A"}, false},
      // {A,C} lies in no atom.
      {"P(A) :- F(A,B), G(B,C).", {"A", "C", "B"}, false},
      // Full heads: any two triangle variables share an atom.
      {"T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).", {"Z", "Y", "X"}, true},
      {"T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).", {"X", "Y", "Z"}, true},
      {"QK(X,V) :- K(X), B(X,V).", {"X", "V"}, true},
      // Chains: the prefix spans several atoms.
      {"Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
       {"Y", "B", "X", "C", "A"}, false},
      {"Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
       {"X", "B", "Y", "A", "C"}, false},
      {"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", {"D", "C", "B", "A"}, false},
      {"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", {"B", "C", "A", "D"}, false},
      // QC: {Y,Z} lies in M, but the head variable X binds last and the
      // head misses Y; {X,Y} lies in L, but Z is a head variable.
      {"QC(X,Z) :- H(X), L(X,Y), M(Y,Z).", {"Y", "Z", "X"}, false},
      {"QC(X,Z) :- H(X), L(X,Y), M(Y,Z).", {"X", "Y", "Z"}, false},
      // Not a permutation of the body variables.
      {"P(A) :- F(A,B), G(B,C).", {"A", "B"}, false},
      {"P(A) :- F(A,B), G(B,C).", {"A", "B", "B"}, false},
  };
  for (const Case& c : cases) {
    auto q = ParseQuery(c.text);
    ASSERT_TRUE(q.ok()) << c.text;
    const std::vector<int> order = OrderOf(*q, c.order);
    EXPECT_EQ(GenericJoinIsInputLinear(*q, order), c.certified)
        << c.text << " under " << OrderNames(*q, order);
  }
  // A recommended generic join is certified in the order returned and in
  // the order EvaluateQuery runs.
  for (const char* text : {"P(A) :- F(A,B), G(B,C).",
                           "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)."}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    auto order = ChooseGenericJoinOrder(*q);
    ASSERT_TRUE(order.ok());
    EXPECT_TRUE(GenericJoinIsInputLinear(*q, order->order)) << text;
    EXPECT_TRUE(GenericJoinIsInputLinear(*q, DefaultGenericJoinOrder(*q)))
        << text;
  }
}

TEST(GenericJoinOrderTest, ChosenOrderEvaluatesIdentically) {
  const char* queries[] = {
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
      "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = 31;
    opts.tuples_per_relation = 30;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    auto order = ChooseGenericJoinOrder(*q);
    ASSERT_TRUE(order.ok()) << text;
    auto via_order = EvaluateGenericJoin(*q, db, order->order, nullptr);
    auto reference = EvaluateQuery(*q, db, PlanKind::kNaive);
    ASSERT_TRUE(via_order.ok()) << text;
    ASSERT_TRUE(reference.ok()) << text;
    ExpectSameRelation(*reference, *via_order, text);
  }
}

}  // namespace
}  // namespace cqbounds
