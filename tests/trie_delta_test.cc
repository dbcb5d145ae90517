// TrieIndex::Splice against its oracle: a trie spliced in place by a
// journaled window must equal, node for node and support for support, the
// from-scratch build over the post-window relation. Randomized windows
// cover every layout shape the executors produce (depth 0-3, projections
// where one key carries several rows, repeated-variable equality filters)
// and chain the splices, so each window splices a trie that was itself
// spliced. Windows routinely cross compactions; every one inside the
// journal's epoch retention must splice. Deterministic cases pin the edges
// the random draws hit only by luck: new level-0 nodes before, between and
// after the existing ones, an early erase with a late insert and the
// reverse (the apply phase's two move directions), removals that empty a
// subtree or the whole trie and appends that refill an empty one, a
// projection window that makes a dense trie's supports non-unit and one
// that brings them back to one, a key appended and removed inside one
// window, and a removal the trie never supported (a CQB_CHECK death).
// DeltaCostTest pins the splice's work: a one-row window over a 10^5-key
// trie probes and edits O(depth) nodes, never O(base).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relation/relation.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

using Layout = std::vector<std::vector<int>>;

/// One atom shape: the relation's arity and the trie's level positions.
struct LayoutCase {
  const char* name;
  int arity;
  Layout layout;
};

const std::vector<LayoutCase>& LayoutCases() {
  static const std::vector<LayoutCase> cases = {
      {"nullary guard", 2, {}},
      {"depth 1", 1, {{0}}},
      {"depth 1 projection", 2, {{1}}},
      {"depth 2", 2, {{0}, {1}}},
      {"depth 2 permuted", 2, {{1}, {0}}},
      {"depth 2 projection", 3, {{2}, {0}}},
      {"depth 2 repeated variable", 3, {{1}, {0, 2}}},
      {"depth 3", 3, {{0}, {1}, {2}}},
      {"depth 3 repeated variable + projection", 4, {{3}, {0, 2}, {1}}},
  };
  return cases;
}

Tuple RandomTuple(Rng* rng, int arity, Value lo, Value hi) {
  Tuple t(static_cast<std::size_t>(arity));
  for (int c = 0; c < arity; ++c) t[c] = rng->NextInRange(lo, hi);
  return t;
}

/// Removes every live tuple of `r` whose column `col` holds `v` -- with a
/// level-0 column, the whole subtree under v.
void RemoveWhere(Relation* r, int col, Value v) {
  for (const Tuple& t : r->tuples()) {
    if (t[col] == v) r->Remove(t);
  }
}

/// Splices the window since `*base_gen` into `*base` in place and checks
/// it against a fresh build; the spliced trie is then the next window's
/// base, so chained windows unpatch an unpatch. Compactions inside the
/// window are journaled and the removed keys come from the saved codes, so
/// the window splices unless it fell out of the journal's epoch retention;
/// then this returns false and rebases on the fresh build.
bool SpliceAndCheck(const Relation& r, const Layout& layout,
                    TrieIndex* base, std::uint64_t* base_gen,
                    const std::string& context) {
  Relation::DeltaSet deltas;
  const TrieIndex fresh(r, layout);
  const bool spliced = r.DeltasSince(*base_gen, &deltas);
  if (spliced) {
    base->Splice(deltas.Appended(r.store()), deltas.Removed(r.store()),
                 layout);
    EXPECT_TRUE(*base == fresh) << context;
    EXPECT_EQ(base->num_tuples(), fresh.num_tuples()) << context;
  } else {
    *base = fresh;
  }
  *base_gen = r.generation();
  return spliced;
}

/// A copy of `base` spliced by `appended` minus `removed`.
TrieIndex Spliced(const TrieIndex& base, const RowView& appended,
                  const RowView& removed, const Layout& layout) {
  TrieIndex got(base);
  got.Splice(appended, removed, layout);
  return got;
}

TEST(TrieDeltaPropertyTest, SpliceEqualsFreshBuildOnRandomChainedWindows) {
  Rng rng(20261017);
  for (const LayoutCase& lc : LayoutCases()) {
    std::size_t compacted_windows = 0;
    std::size_t past_retention = 0;
    for (int round = 0; round < 12; ++round) {
      // Narrow domains make projection collisions and repeated-variable
      // matches common; inserts draw from a wider one, so new keys land
      // before, between and after the existing ones. A unary relation gets
      // a wider base domain, or it would hold too few rows to remove from
      // without compacting.
      const Value span = 2 + static_cast<Value>(rng.NextBelow(6));
      Relation r("R", lc.arity);
      const std::size_t n = 20 + rng.NextBelow(80);
      for (std::size_t i = 0; i < n; ++i) {
        r.Insert(RandomTuple(&rng, lc.arity, 0,
                             lc.arity == 1 ? 12 * span : span));
      }
      TrieIndex base(r, lc.layout);
      std::uint64_t base_gen = r.generation();
      for (int window = 0; window < 8; ++window) {
        const std::string context = std::string(lc.name) + " round " +
                                    std::to_string(round) + " window " +
                                    std::to_string(window);
        const int ops = 1 + static_cast<int>(rng.NextBelow(6));
        const std::uint64_t compactions = r.compactions();
        for (int op = 0; op < ops; ++op) {
          const std::uint64_t kind = rng.NextBelow(10);
          const std::vector<Tuple> live = r.tuples();
          if (kind < 4 || live.empty()) {
            r.Insert(RandomTuple(&rng, lc.arity, -span, 2 * span));
          } else if (kind < 8) {
            r.Remove(live[rng.NextBelow(live.size())]);
          } else if (kind == 8) {
            // Appended and removed inside one window: the journal names
            // it on neither side.
            const Tuple t = RandomTuple(&rng, lc.arity, 3 * span, 4 * span);
            r.Insert(t);
            r.Remove(t);
          } else {
            const int col = lc.layout.empty() ? 0 : lc.layout[0][0];
            RemoveWhere(&r, col, live[rng.NextBelow(live.size())][col]);
          }
        }
        const std::uint64_t crossed = r.compactions() - compactions;
        compacted_windows += crossed != 0;
        if (!SpliceAndCheck(r, lc.layout, &base, &base_gen, context)) {
          // The newest epoch is always retained: only a window that
          // crossed two or more compactions can fall out of retention.
          EXPECT_GE(crossed, 2u) << context;
          ++past_retention;
        }
      }
    }
    // The windows that crossed a compaction and still spliced are the ones
    // this test exists for: a sixth of the 96 at least.
    EXPECT_GE(compacted_windows - past_retention, 16u) << lc.name;
  }
}

/// A relation holding `rows`.
Relation Build(const std::string& name, int arity,
               const std::vector<Tuple>& rows) {
  Relation r(name, arity);
  for (const Tuple& t : rows) r.Insert(t);
  return r;
}

/// Every row of `r`'s store (live or not) as a view.
RowView AllRows(const Relation& r) {
  return RowView::Tail(r.store(), 0, r.store().size());
}

TEST(TrieDeltaPropertyTest, NewLevelZeroNodesBeforeBetweenAndAfter) {
  const Layout layout = {{0}, {1}};
  Relation r = Build("R", 2, {{10, 1}, {20, 1}, {20, 2}, {30, 1}});
  const TrieIndex base(r, layout);
  const Relation d = Build("D", 2, {{5, 7}, {15, 7}, {25, 7}, {35, 7}});
  const TrieIndex got = Spliced(base, AllRows(d), RowView(), layout);
  for (const Tuple& t : d.tuples()) r.Insert(t);
  EXPECT_TRUE(got == TrieIndex(r, layout));
  EXPECT_EQ(got.RootRange().size(), 7u);
}

TEST(TrieDeltaPropertyTest, RemovalsEmptyASubtreeOrTheWholeTrie) {
  for (const LayoutCase& lc : LayoutCases()) {
    Rng rng(7);
    std::vector<Tuple> rows;
    for (int i = 0; i < 40; ++i) {
      rows.push_back(RandomTuple(&rng, lc.arity, 0, 3));
    }
    const Relation r = Build("R", lc.arity, rows);
    const TrieIndex base(r, lc.layout);

    // Whole trie: every row of the base removed.
    const TrieIndex emptied = Spliced(base, RowView(), AllRows(r), lc.layout);
    EXPECT_TRUE(emptied == TrieIndex(Relation("E", lc.arity), lc.layout))
        << lc.name;
    EXPECT_EQ(emptied.num_tuples(), 0u) << lc.name;

    // One subtree: every row under the smallest level-0 key removed.
    if (lc.layout.empty()) continue;
    const int col = lc.layout[0][0];
    Value first = r.tuples().front()[col];
    for (const Tuple& t : r.tuples()) first = std::min(first, t[col]);
    RowView gone(&r.store());
    Relation rest("S", lc.arity);
    for (std::size_t row = 0; row < r.store().size(); ++row) {
      const Tuple t = r.store().Row(row);
      if (t[col] == first) {
        gone.rows.push_back(static_cast<std::uint32_t>(row));
      } else {
        rest.Insert(t);
      }
    }
    EXPECT_TRUE(Spliced(base, RowView(), gone, lc.layout) ==
                TrieIndex(rest, lc.layout))
        << lc.name;
  }
}

TEST(TrieDeltaPropertyTest, KeyAppendedAndRemovedInOneWindow) {
  // Projection onto column 0: removing (1, 5) and appending (1, 6) nets
  // key 1 to zero change; a fresh key appended and removed nets to
  // nothing at all. Twenty base rows keep the window clear of compaction.
  const Layout layout = {{0}};
  Relation r("R", 2);
  for (Value k = 1; k <= 20; ++k) r.Insert({k, 5});
  const TrieIndex base(r, layout);
  const std::uint64_t gen = r.generation();
  r.Remove({1, 5});
  r.Insert({1, 6});
  r.Insert({9, 9});
  r.Remove({9, 9});
  Relation::DeltaSet deltas;
  ASSERT_TRUE(r.DeltasSince(gen, &deltas));
  const TrieIndex got = Spliced(base, deltas.Appended(r.store()),
                                deltas.Removed(r.store()), layout);
  EXPECT_TRUE(got == TrieIndex(r, layout));
  EXPECT_TRUE(got == base);
}

TEST(TrieDeltaPropertyTest, EarlyEraseLateInsertAndTheReverse) {
  // An erase near the front with an insert near the back shifts the runs
  // between them left; the reverse shifts them right. Both levels take
  // edits, and the middle of the trie keeps its shift-free runs.
  const Layout layout = {{0}, {1}};
  const auto grid = [] {
    Relation r("R", 2);
    for (Value a = 0; a < 10; ++a) {
      for (Value b = 0; b < 10; ++b) r.Insert({a, 10 * b});
    }
    return r;
  };
  const std::vector<std::pair<std::vector<Tuple>, std::vector<Tuple>>>
      windows = {
          // Left-moving: erase early, insert late (leaf and level 0).
          {{{9, 95}, {12, 0}}, {{0, 0}, {1, 50}}},
          // Right-moving: insert early, erase late.
          {{{-1, 3}, {0, 5}}, {{9, 90}, {8, 40}}},
          // Both directions in one window, a whole subtree erased between.
          {{{0, 1}, {11, 7}}, {{2, 0}, {2, 10}, {2, 20}, {2, 30}, {2, 40},
                               {2, 50}, {2, 60}, {2, 70}, {2, 80}, {2, 90},
                               {7, 70}}},
      };
  for (std::size_t w = 0; w < windows.size(); ++w) {
    Relation r = grid();
    TrieIndex trie(r, layout);
    std::uint64_t gen = r.generation();
    for (const Tuple& t : windows[w].first) ASSERT_TRUE(r.Insert(t));
    for (const Tuple& t : windows[w].second) ASSERT_TRUE(r.Remove(t));
    ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen,
                               "window " + std::to_string(w)));
  }
}

TEST(TrieDeltaPropertyTest, ProjectionWindowsMakeAndUnmakeNonUnitSupports) {
  // Projection onto column 0 of distinct first columns: every key has
  // support one. A second row under key 5 raises its support to two (a
  // dense trie gains supports); removing it brings every key back to one.
  const Layout layout = {{0}};
  Relation r("R", 2);
  for (Value k = 0; k < 20; ++k) r.Insert({k, 0});
  TrieIndex trie(r, layout);
  std::uint64_t gen = r.generation();
  r.Insert({5, 1});
  r.Insert({30, 0});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "raise"));
  r.Remove({5, 0});
  r.Remove({30, 0});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "lower"));
  // Key 5 still holds one row: removing it erases the key outright.
  r.Remove({5, 1});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "erase"));
  EXPECT_EQ(trie.num_tuples(), 19u);
}

TEST(TrieDeltaPropertyTest, EmptyTheTrieThenRefillIt) {
  for (const LayoutCase& lc : LayoutCases()) {
    Rng rng(11);
    std::vector<Tuple> before;
    std::vector<Tuple> after;
    for (int i = 0; i < 30; ++i) {
      before.push_back(RandomTuple(&rng, lc.arity, 0, 4));
      after.push_back(RandomTuple(&rng, lc.arity, -2, 3));
    }
    const Relation r = Build("R", lc.arity, before);
    const Relation refill = Build("S", lc.arity, after);
    const TrieIndex empty(Relation("E", lc.arity), lc.layout);
    const TrieIndex want(refill, lc.layout);
    // Emptied by a splice, then refilled by one ...
    TrieIndex trie(r, lc.layout);
    trie.Splice(RowView(), AllRows(r), lc.layout);
    EXPECT_TRUE(trie == empty) << lc.name;
    trie.Splice(AllRows(refill), RowView(), lc.layout);
    EXPECT_TRUE(trie == want) << lc.name;
    // ... and a trie built empty, refilled.
    TrieIndex built_empty = empty;
    built_empty.Splice(AllRows(refill), RowView(), lc.layout);
    EXPECT_TRUE(built_empty == want) << lc.name;
  }
}

TEST(TrieDeltaPropertyTest, ChainedUnpatchesStayExact) {
  const Layout layout = {{1}, {0}};
  Relation r("R", 2);
  for (Value i = 0; i < 50; ++i) r.Insert({i, i % 7});
  TrieIndex base(r, layout);
  std::uint64_t gen = r.generation();
  for (Value i = 0; i < 10; ++i) {
    r.Remove({i, i % 7});
    r.Insert({100 + i, i % 3});
    ASSERT_TRUE(SpliceAndCheck(r, layout, &base, &gen,
                               "step " + std::to_string(i)));
  }
}

/// Whether node `idx` at `level` carries a rank bitmap.
bool Heavy(const TrieIndex& trie, int level, std::size_t idx) {
  return trie.ChildRange(level, idx).bits != nullptr;
}

TEST(TrieDeltaPropertyTest, HeavyNodesFollowTheirChildren) {
  // Node 5 starts one child short of heavy. Each step splices one window
  // and must equal the fresh build, bitmaps included (operator== compares
  // them node by node).
  const Layout layout = {{0}, {1}};
  Relation r("R", 2);
  for (Value x = 0; x < 63; ++x) r.Insert({5, 2 * x});
  r.Insert({9, 0});
  TrieIndex trie(r, layout);
  std::uint64_t gen = r.generation();
  ASSERT_FALSE(Heavy(trie, 0, 0));

  // Crossing 64 upwards gives node 5 its bitmap.
  r.Insert({5, 1});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "up"));
  EXPECT_TRUE(Heavy(trie, 0, 0));
  // Same child count, other children: the bitmap is redone.
  r.Insert({5, 3});
  r.Remove({5, 0});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "same count"));
  EXPECT_TRUE(Heavy(trie, 0, 0));
  // A parent-level insert before node 5 shifts its index, and its bitmap
  // with it; an erase shifts both back.
  r.Insert({1, 7});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "insert before"));
  EXPECT_FALSE(Heavy(trie, 0, 0));
  EXPECT_TRUE(Heavy(trie, 0, 1));
  r.Remove({1, 7});
  r.Insert({7, 7});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "erase before"));
  EXPECT_TRUE(Heavy(trie, 0, 0));
  EXPECT_FALSE(Heavy(trie, 0, 1));
  // A child far away keeps the count past 64 but breaks the span rule.
  r.Insert({5, 1000000});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "span"));
  EXPECT_FALSE(Heavy(trie, 0, 0));
  r.Remove({5, 1000000});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "span back"));
  EXPECT_TRUE(Heavy(trie, 0, 0));
  // Back down under 64: the bitmap goes, and with it the level's index.
  r.Remove({5, 1});
  r.Remove({5, 3});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "down"));
  EXPECT_FALSE(Heavy(trie, 0, 0));
  // A heavy node erased outright.
  for (Value x = 0; x < 70; ++x) r.Insert({8, x});
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "new heavy node"));
  EXPECT_TRUE(Heavy(trie, 0, 2));
  RemoveWhere(&r, 0, 8);
  ASSERT_TRUE(SpliceAndCheck(r, layout, &trie, &gen, "erase heavy node"));
  EXPECT_EQ(trie.RootRange().size(), 3u);
}

/// Heavy nodes of `trie` at levels 0 and 1.
std::size_t HeavyNodes(const TrieIndex& trie) {
  std::size_t heavy = 0;
  const std::size_t inner = trie.num_levels() == 3 ? 2 : 1;
  std::size_t nodes = trie.RootRange().size();
  for (std::size_t level = 0; level < inner; ++level) {
    for (std::size_t i = 0; i < nodes; ++i) {
      heavy += Heavy(trie, static_cast<int>(level), i);
    }
    if (nodes > 0) {
      nodes = trie.ChildRange(static_cast<int>(level), nodes - 1).end;
    }
  }
  return heavy;
}

TEST(TrieDeltaPropertyTest, HeavyNodeSplicesEqualFreshBuildOnRandomWindows) {
  // Hubs 10, 20 and 30 random-walk around 64 children (the x column), at
  // level 0 or, in the last layout, at level 1; light nodes before,
  // between and after them come and go, shifting their indexes.
  Rng rng(20261022);
  for (const Layout& layout : {Layout{{0}, {1}}, Layout{{0}, {1}, {2}},
                               Layout{{2}, {0}, {1}}}) {
    Relation r("R", 3);
    const auto grow_hub = [&] {
      const Value hub = 10 * (1 + static_cast<Value>(rng.NextBelow(3)));
      while (!r.Insert({hub, rng.NextInRange(0, 99), 0})) {
      }
    };
    for (int i = 0; i < 3 * 62; ++i) grow_hub();
    TrieIndex trie(r, layout);
    std::uint64_t gen = r.generation();
    std::size_t changes = 0;
    std::size_t heavy = HeavyNodes(trie);
    for (int window = 0; window < 60; ++window) {
      const std::string context = "window " + std::to_string(window);
      for (int op = 0; op < 5; ++op) {
        const std::vector<Tuple> live = r.tuples();
        const Tuple pick = live[rng.NextBelow(live.size())];
        switch (rng.NextBelow(5)) {
          case 0:
          case 1:
            grow_hub();
            break;
          case 2:
          case 3:
            r.Remove(pick);
            break;
          default:
            if (pick[0] % 10 != 0) {
              RemoveWhere(&r, 0, pick[0]);
            } else {
              r.Insert({rng.NextInRange(0, 40), 5, rng.NextInRange(0, 1)});
            }
        }
      }
      if (!SpliceAndCheck(r, layout, &trie, &gen, context)) continue;
      const std::size_t now = HeavyNodes(trie);
      changes += now != heavy;
      heavy = now;
    }
    EXPECT_GE(changes, 3u) << layout.size();
  }
}

TEST(TrieDeltaDeathTest, RemovalTheBaseNeverSupportedAborts) {
  const Layout layout = {{0}, {1}};
  const Relation r = Build("R", 2, {{1, 2}});
  TrieIndex base(r, layout);
  EXPECT_EQ(base.num_tuples(), 1u);
#if defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
  const Relation absent = Build("A", 2, {{3, 4}});
  // Projection: key 1 has support one, two removed rows overdraw it.
  const Relation twice = Build("T", 2, {{1, 2}, {1, 3}});
  TrieIndex projected(r, {{0}});
  EXPECT_DEATH(base.Splice(RowView(), AllRows(absent), layout), "net >= 0");
  EXPECT_DEATH(projected.Splice(RowView(), AllRows(twice), {{0}}),
               "net >= 0");
#endif
}

// --- Work pin ---------------------------------------------------------------

/// Splices one window into a 10^5-key two-level trie and returns the nodes
/// the splice visited, after checking it against a fresh build.
std::uint64_t VisitsForWindow(const std::vector<Tuple>& inserts,
                              const std::vector<Tuple>& removes) {
  const Layout layout = {{0}, {1}};
  Relation r("R", 2);
  std::vector<Value> flat;
  for (Value i = 0; i < 100000; ++i) {
    flat.insert(flat.end(), {i / 100, i % 100});
  }
  r.InsertFlat(flat, 100000);
  const TrieIndex base(r, layout);
  const std::uint64_t gen = r.generation();
  for (const Tuple& t : inserts) EXPECT_TRUE(r.Insert(t));
  for (const Tuple& t : removes) EXPECT_TRUE(r.Remove(t));
  Relation::DeltaSet deltas;
  EXPECT_TRUE(r.DeltasSince(gen, &deltas));
  const RowView appended = deltas.Appended(r.store());
  const RowView removed = deltas.Removed(r.store());
  TrieIndex got(base);
  const TrieBuildStats before = GetTrieBuildStats();
  got.Splice(appended, removed, layout);
  const TrieBuildStats after = GetTrieBuildStats();
  EXPECT_TRUE(got == TrieIndex(r, layout));
  return after.delta_nodes_visited - before.delta_nodes_visited;
}

TEST(DeltaCostTest, OneRowWindowsVisitOnlyTheirPath) {
  EXPECT_LE(VisitsForWindow({{500, 1000}}, {}), 64u);
  EXPECT_LE(VisitsForWindow({}, {{500, 50}}), 64u);
  EXPECT_LE(VisitsForWindow({{2000, 0}}, {{0, 0}}), 64u);
}

}  // namespace
}  // namespace cqbounds
