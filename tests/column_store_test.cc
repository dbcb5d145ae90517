#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "relation/column_store.h"
#include "relation/relation.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

// --- ValueDictionary -------------------------------------------------------

TEST(ValueDictionaryTest, InternsInFirstSeenOrderAndRoundTrips) {
  ValueDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.CodeOf(42), ValueDictionary::kNoCode);

  EXPECT_EQ(dict.Intern(42), 0u);
  EXPECT_EQ(dict.Intern(-7), 1u);
  EXPECT_EQ(dict.Intern(42), 0u);  // idempotent
  EXPECT_EQ(dict.Intern(0), 2u);
  EXPECT_EQ(dict.size(), 3u);

  EXPECT_EQ(dict.CodeOf(-7), 1u);
  EXPECT_EQ(dict.ValueOf(0), 42);
  EXPECT_EQ(dict.ValueOf(1), -7);
  EXPECT_EQ(dict.ValueOf(2), 0);
}

TEST(ValueDictionaryTest, ExtremeValuesAndGrowth) {
  ValueDictionary dict;
  const std::vector<Value> extremes = {
      std::numeric_limits<Value>::min(), std::numeric_limits<Value>::max(),
      -1, 0, -2, std::numeric_limits<Value>::min() + 1};
  for (std::size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_EQ(dict.Intern(extremes[i]), i);
  }
  // Strided values (multiples of 2^20) through several table doublings.
  constexpr std::uint32_t kN = 50000;
  const std::uint32_t base = static_cast<std::uint32_t>(extremes.size());
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(dict.Intern(Value{i + 1} << 20), base + i);
  }
  ASSERT_EQ(dict.size(), static_cast<std::size_t>(base + kN));
  for (std::size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_EQ(dict.CodeOf(extremes[i]), i);
    EXPECT_EQ(dict.ValueOf(static_cast<std::uint32_t>(i)), extremes[i]);
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(dict.CodeOf(Value{i + 1} << 20), base + i);
    ASSERT_EQ(dict.ValueOf(base + i), Value{i + 1} << 20);
  }
  // Absent values, after growth, are still kNoCode and mint nothing.
  EXPECT_EQ(dict.CodeOf(1), ValueDictionary::kNoCode);
  EXPECT_EQ(dict.CodeOf((Value{kN} + 1) << 20), ValueDictionary::kNoCode);
  EXPECT_EQ(dict.CodeOf(std::numeric_limits<Value>::max() - 1),
            ValueDictionary::kNoCode);
  EXPECT_EQ(dict.size(), static_cast<std::size_t>(base + kN));
}

// --- ColumnStore round trips ----------------------------------------------

TEST(ColumnStoreTest, AppendContainsAndDecodeAcrossArities) {
  for (int arity : {1, 2, 3, 5}) {
    ColumnStore store(arity);
    EXPECT_TRUE(store.empty());
    std::vector<Tuple> rows;
    for (Value base : {10, -3, 999}) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = base + c;
      rows.push_back(t);
      EXPECT_TRUE(store.Append(t)) << "arity " << arity;
      EXPECT_FALSE(store.Append(t)) << "duplicate must be rejected";
    }
    ASSERT_EQ(store.size(), rows.size()) << "arity " << arity;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(store.Row(r), rows[r]);
      EXPECT_TRUE(store.Contains(rows[r]));
      for (int c = 0; c < arity; ++c) {
        EXPECT_EQ(store.ValueAt(r, c), rows[r][c]);
      }
    }
    Tuple absent(arity, Value{123456});
    EXPECT_FALSE(store.Contains(absent));
    // Columns are contiguous and exactly size() long.
    for (int c = 0; c < arity; ++c) {
      EXPECT_EQ(store.column(c).size(), store.size());
    }
  }
}

TEST(ColumnStoreTest, NullaryStoreHoldsAtMostTheEmptyTuple) {
  ColumnStore store(0);
  EXPECT_FALSE(store.Contains(Tuple{}));
  EXPECT_TRUE(store.Append(Tuple{}));
  EXPECT_FALSE(store.Append(Tuple{}));  // set semantics on zero columns
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Contains(Tuple{}));
  EXPECT_EQ(store.Row(0), Tuple{});
  // A one-row store is past the deferred-compaction threshold the moment
  // its only row dies, so the nullary erase compacts immediately.
  EXPECT_EQ(store.Erase(Tuple{}), ColumnStore::EraseResult::kCompacted);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Erase(Tuple{}), ColumnStore::EraseResult::kNotFound);
}

TEST(ColumnStoreTest, SharedDictionaryMakesRepeatedValuesCodeEqual) {
  // One dictionary per store: the same value in different columns gets the
  // same code, so intra-tuple equality (R(X,X)) is code equality.
  ColumnStore store(3);
  store.Append({7, 7, 9});
  store.Append({9, 7, 7});
  EXPECT_EQ(store.CodeAt(0, 0), store.CodeAt(0, 1));
  EXPECT_EQ(store.CodeAt(0, 0), store.CodeAt(1, 1));
  EXPECT_EQ(store.CodeAt(0, 2), store.CodeAt(1, 0));
  EXPECT_NE(store.CodeAt(0, 0), store.CodeAt(0, 2));
  EXPECT_EQ(store.dict().size(), 2u);  // only {7, 9} were ever interned
}

TEST(ColumnStoreTest, BatchAppendDedupsWithinAndAgainstExisting) {
  ColumnStore store(2);
  store.Append({1, 2});
  const std::size_t added = store.AppendBatch(
      {{1, 2}, {3, 4}, {3, 4}, {5, 6}, {1, 2}});
  EXPECT_EQ(added, 2u);
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.Row(0), (Tuple{1, 2}));
  EXPECT_EQ(store.Row(1), (Tuple{3, 4}));  // first-occurrence order kept
  EXPECT_EQ(store.Row(2), (Tuple{5, 6}));
}

TEST(ColumnStoreTest, FlatAppendMatchesTupleAppend) {
  ColumnStore flat(2);
  ColumnStore slow(2);
  const std::vector<Value> values = {1, 2, 3, 4, 1, 2, 5, 6};
  EXPECT_EQ(flat.AppendFlat(values, 4), 3u);
  for (std::size_t r = 0; r < 4; ++r) {
    slow.Append({values[2 * r], values[2 * r + 1]});
  }
  ASSERT_EQ(flat.size(), slow.size());
  for (std::size_t r = 0; r < flat.size(); ++r) {
    EXPECT_EQ(flat.Row(r), slow.Row(r));
  }
}

// --- The coded-rows door (AppendCoded) --------------------------------------

/// `rows` coded in a fresh dictionary that first interns `unused` -- values
/// no row carries, so source codes and target codes disagree.
CodedRows Coded(const std::vector<Tuple>& rows,
                const std::vector<Value>& unused = {}) {
  CodedRows out;
  for (Value v : unused) out.dict.Intern(v);
  for (const Tuple& t : rows) {
    for (Value v : t) out.codes.push_back(out.dict.Intern(v));
    ++out.num_rows;
  }
  return out;
}

TEST(ColumnStoreTest, CodedDoorMintsTheCodesOfRowWiseAppends) {
  std::vector<CodedRows> sources;
  sources.push_back(Coded({{40, 10}, {10, 40}, {20, 20}}, {99, 98}));
  sources.push_back(Coded({{30, 40}, {50, 10}}, {97}));
  // Slices interleave the sources: rows land slice after slice.
  const std::vector<CodedSlice> slices = {
      {1, 1, 2}, {0, 0, 2}, {1, 0, 1}, {0, 2, 3}};
  ColumnStore bulk(2);
  ColumnStore slow(2);
  bulk.Append({10, 60});  // pre-seeded: 10 already has a code
  slow.Append({10, 60});
  EXPECT_EQ(bulk.AppendCoded(sources, slices), 5u);
  for (const Tuple& t : std::vector<Tuple>{
           {50, 10}, {40, 10}, {10, 40}, {30, 40}, {20, 20}}) {
    slow.Append(t);
  }
  ASSERT_EQ(bulk.size(), slow.size());
  for (std::size_t r = 0; r < bulk.size(); ++r) {
    EXPECT_EQ(bulk.Row(r), slow.Row(r)) << "row " << r;
    for (int c = 0; c < 2; ++c) EXPECT_EQ(bulk.CodeAt(r, c), slow.CodeAt(r, c));
  }
  // Only values some row carries were interned: 99, 98 and 97 never were.
  EXPECT_EQ(bulk.dict().size(), slow.dict().size());
  EXPECT_EQ(bulk.dict().CodeOf(99), ValueDictionary::kNoCode);
}

TEST(ColumnStoreTest, CodedDoorSkipsRowsAlreadyPresent) {
  ColumnStore store(2);
  store.Append({1, 2});
  store.Append({5, 6});
  store.Append({7, 7});
  store.Append({8, 8});
  ASSERT_EQ(store.Erase({5, 6}), ColumnStore::EraseResult::kTombstoned);
  std::vector<CodedRows> sources;
  sources.push_back(Coded({{1, 2}, {3, 4}, {3, 4}, {5, 6}}));
  // Present rows and repeats within the batch are probed away; a
  // tombstoned tuple comes back under a fresh row id.
  EXPECT_EQ(store.AppendCoded(sources, {{0, 0, 4}}), 2u);
  ASSERT_EQ(store.size(), 6u);
  EXPECT_EQ(store.live_size(), 5u);
  EXPECT_EQ(store.Row(4), (Tuple{3, 4}));
  EXPECT_EQ(store.Row(5), (Tuple{5, 6}));
  EXPECT_EQ(store.AppendCoded(sources, {{0, 0, 4}}), 0u);

  // Three slices from two sources add their three rows in one call; a
  // merge of rows already present adds none.
  ColumnStore unary(1);
  unary.Append({1});
  std::vector<CodedRows> two;
  two.push_back(Coded({{2}, {3}}));
  two.push_back(Coded({{4}}));
  EXPECT_EQ(unary.AppendCoded(two, {{0, 0, 1}, {1, 0, 1}, {0, 1, 2}}), 3u);
  EXPECT_EQ(unary.size(), 4u);
  EXPECT_EQ(unary.AppendCoded(two, {{1, 0, 1}}), 0u);
  EXPECT_EQ(unary.size(), 4u);
}

TEST(ColumnStoreTest, CodedDoorAdvancesTheGenerationByRowsAdded) {
  Relation rel("R", 2);
  rel.Insert({1, 2});
  const std::uint64_t before = rel.generation();
  std::vector<CodedRows> sources;
  sources.push_back(Coded({{1, 2}, {3, 4}}));
  sources.push_back(Coded({{3, 4}, {5, 6}}));
  EXPECT_EQ(rel.InsertCoded(sources, {{0, 0, 2}, {1, 0, 2}}), 2u);
  EXPECT_EQ(rel.generation(), before + 2);
  EXPECT_EQ(rel.InsertCoded(sources, {{1, 0, 2}}), 0u);
  EXPECT_EQ(rel.generation(), before + 2);  // nothing added, nothing moved
}

TEST(ColumnStoreTest, CodedDoorOnANullaryStore) {
  // Nullary rows carry no codes; num_rows alone counts them, and set
  // semantics keep at most the empty tuple.
  ColumnStore store(0);
  std::vector<CodedRows> sources(1);
  sources[0].num_rows = 3;
  EXPECT_EQ(store.AppendCoded(sources, {{0, 0, 3}}), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Contains(Tuple{}));
  EXPECT_EQ(store.AppendCoded(sources, {{0, 1, 2}}), 0u);
  EXPECT_EQ(store.size(), 1u);
}

/// Asserts `bulk` is `reference` state for state: rows and their codes in
/// order, liveness, the dictionary and the set of every tuple in `probes`.
void ExpectSameStore(const ColumnStore& bulk, const ColumnStore& reference,
                     const std::vector<Tuple>& probes,
                     const std::string& context) {
  ASSERT_EQ(bulk.size(), reference.size()) << context;
  EXPECT_EQ(bulk.live_size(), reference.live_size()) << context;
  EXPECT_EQ(bulk.dict().size(), reference.dict().size()) << context;
  for (std::size_t r = 0; r < bulk.size(); ++r) {
    EXPECT_EQ(bulk.IsLive(r), reference.IsLive(r)) << context << " row " << r;
    for (int c = 0; c < bulk.arity(); ++c) {
      ASSERT_EQ(bulk.CodeAt(r, c), reference.CodeAt(r, c))
          << context << " row " << r << " col " << c;
    }
  }
  for (const Tuple& t : probes) {
    EXPECT_EQ(bulk.Contains(t), reference.Contains(t)) << context;
  }
}

// The three bulk doors against row-wise Append: random coded sources with
// interleaved, repeated and empty slices, repeats within the batch and
// against the store, tombstoned target rows that come back, and nullary
// stores. Rows, codes, dictionary, liveness and membership must agree.
TEST(ColumnStoreTest, BulkDoorsMatchRowWiseAppend) {
  Rng rng(20261018);
  for (int trial = 0; trial < 80; ++trial) {
    const int arity = static_cast<int>(rng.NextBelow(4));
    const auto width = static_cast<std::size_t>(arity);
    const auto domain = static_cast<Value>(2 + rng.NextBelow(8));
    auto random_row = [&] {
      Tuple t(width);
      for (Value& v : t) {
        v = static_cast<Value>(rng.NextBelow(static_cast<std::uint64_t>(
                domain))) * 1000 - 3;
      }
      return t;
    };
    // Identical targets: some rows, some of them tombstoned.
    ColumnStore coded(arity), flat(arity), batch(arity), reference(arity);
    std::vector<Tuple> probes;
    const std::size_t seeded = rng.NextBelow(12);
    for (std::size_t i = 0; i < seeded; ++i) {
      const Tuple t = random_row();
      probes.push_back(t);
      for (ColumnStore* store : {&coded, &flat, &batch, &reference}) {
        store->Append(t);
      }
    }
    for (std::size_t i = 0; i < seeded; i += 1 + rng.NextBelow(3)) {
      for (ColumnStore* store : {&coded, &flat, &batch, &reference}) {
        store->Erase(probes[i]);
      }
    }
    // Two merges in a row, so the second sees the first's rows.
    for (int round = 0; round < 2; ++round) {
      std::vector<CodedRows> sources(1 + rng.NextBelow(3));
      std::vector<std::vector<Tuple>> source_rows(sources.size());
      for (std::size_t k = 0; k < sources.size(); ++k) {
        // A source dictionary that minted values no row carries first.
        sources[k].dict.Intern(static_cast<Value>(-1 - k));
        const std::size_t n = rng.NextBelow(10);
        for (std::size_t i = 0; i < n; ++i) {
          const Tuple t = random_row();
          source_rows[k].push_back(t);
          for (Value v : t) {
            sources[k].codes.push_back(sources[k].dict.Intern(v));
          }
          ++sources[k].num_rows;
        }
      }
      std::vector<CodedSlice> slices;
      std::vector<Tuple> rows;
      const std::size_t num_slices = rng.NextBelow(7);
      for (std::size_t i = 0; i < num_slices; ++i) {
        const std::size_t k = rng.NextBelow(sources.size());
        const std::size_t begin = rng.NextBelow(sources[k].num_rows + 1);
        const std::size_t end =
            begin + rng.NextBelow(sources[k].num_rows - begin + 1);
        // Sometimes the same slice twice in a row.
        const int copies = rng.NextBool(1, 4) ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          slices.push_back({k, begin, end});
          const auto first = source_rows[k].begin();
          rows.insert(rows.end(), first + static_cast<std::ptrdiff_t>(begin),
                      first + static_cast<std::ptrdiff_t>(end));
        }
      }
      std::vector<Value> values;
      for (const Tuple& t : rows) {
        values.insert(values.end(), t.begin(), t.end());
      }
      std::size_t reference_added = 0;
      for (const Tuple& t : rows) {
        if (reference.Append(t)) ++reference_added;
      }
      EXPECT_EQ(coded.AppendCoded(sources, slices), reference_added);
      EXPECT_EQ(flat.AppendFlat(values, rows.size()), reference_added);
      EXPECT_EQ(batch.AppendBatch(rows), reference_added);
      probes.insert(probes.end(), rows.begin(), rows.end());
      const std::string context =
          "trial " + std::to_string(trial) + " round " + std::to_string(round);
      ExpectSameStore(coded, reference, probes, context + " AppendCoded");
      ExpectSameStore(flat, reference, probes, context + " AppendFlat");
      ExpectSameStore(batch, reference, probes, context + " AppendBatch");
    }
  }
}

TEST(ColumnStoreTest, EraseTombstonesWithoutMovingRows) {
  ColumnStore store(2);
  for (Value v : {1, 2, 3, 4, 5}) store.Append({v, v * 10});
  EXPECT_EQ(store.Erase({9, 90}), ColumnStore::EraseResult::kNotFound);
  std::uint32_t removed = 0;
  EXPECT_EQ(store.Erase({3, 30}, &removed),
            ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(removed, 2u);
  // Physical rows are untouched (the dead row's columns stay readable for
  // delta consumers); only the live view shrinks.
  ASSERT_EQ(store.size(), 5u);
  EXPECT_EQ(store.live_size(), 4u);
  EXPECT_EQ(store.dead_count(), 1u);
  EXPECT_FALSE(store.IsLive(2));
  EXPECT_EQ(store.Row(2), (Tuple{3, 30}));
  // Membership and dedup see only live rows.
  EXPECT_FALSE(store.Contains({3, 30}));
  EXPECT_TRUE(store.Contains({5, 50}));
  EXPECT_FALSE(store.Append({4, 40}));
  EXPECT_EQ(store.Erase({3, 30}), ColumnStore::EraseResult::kNotFound);
}

TEST(ColumnStoreTest, RemoveThenReinsertGetsAFreshRowId) {
  ColumnStore store(2);
  for (Value v : {1, 2, 3, 4, 5, 6, 7}) store.Append({v, v * 10});
  ASSERT_EQ(store.Erase({2, 20}), ColumnStore::EraseResult::kTombstoned);
  // Re-inserting the erased tuple must land on a NEW physical row -- dead
  // row ids never resurrect (removal journals depend on their uniqueness).
  EXPECT_TRUE(store.Append({2, 20}));
  ASSERT_EQ(store.size(), 8u);
  EXPECT_FALSE(store.IsLive(1));
  EXPECT_TRUE(store.IsLive(7));
  EXPECT_EQ(store.Row(7), (Tuple{2, 20}));
  EXPECT_TRUE(store.Contains({2, 20}));
  EXPECT_FALSE(store.Append({2, 20}));  // dedup tracks the live copy
  // Erasing again hits the fresh copy, not the old tombstone.
  std::uint32_t removed = 0;
  ASSERT_EQ(store.Erase({2, 20}, &removed),
            ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(removed, 7u);
}

TEST(ColumnStoreTest, CompactionTriggersPastTheQuarterDeadThreshold) {
  ColumnStore store(1);
  for (Value v = 0; v < 8; ++v) store.Append({v});
  // Threshold is dead * 4 > rows: with 8 physical rows the first two
  // erases tombstone (4 <= 8, 8 <= 8) and the third compacts (12 > 8).
  EXPECT_EQ(store.Erase({0}), ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(store.Erase({2}), ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(store.size(), 8u);
  EXPECT_EQ(store.Erase({4}), ColumnStore::EraseResult::kCompacted);
  // Compaction rewrites the physical rows to the live ones, in order.
  ASSERT_EQ(store.size(), 5u);
  EXPECT_EQ(store.dead_count(), 0u);
  EXPECT_EQ(store.Row(0), (Tuple{1}));
  EXPECT_EQ(store.Row(1), (Tuple{3}));
  EXPECT_EQ(store.Row(2), (Tuple{5}));
  EXPECT_EQ(store.Row(3), (Tuple{6}));
  EXPECT_EQ(store.Row(4), (Tuple{7}));
  // The rebuilt index serves membership and dedup over the new row ids.
  EXPECT_FALSE(store.Contains({4}));
  EXPECT_TRUE(store.Contains({7}));
  EXPECT_FALSE(store.Append({3}));
  EXPECT_TRUE(store.Append({4}));
}

TEST(ColumnStoreTest, ReclaimCodesReMintsOncePastAQuarterUnused) {
  ColumnStore store(2);
  for (Value v = 0; v < 8; ++v) store.Append({v, 100 + v});
  ColumnStore::CompactionRecord dropped;
  for (Value v = 0; v < 3; ++v) store.Erase({v, 100 + v}, nullptr, &dropped);
  ASSERT_EQ(store.size(), 5u);  // compacted: rows {3..7, 103..107}
  ASSERT_EQ(dropped.codes.size(), 6u);
  // Holding dropped row {1, 101} keeps 12 of 16 codes in use: exactly a
  // quarter unused, so nothing is re-minted.
  std::vector<std::uint32_t> held(dropped.codes.begin() + 2,
                                  dropped.codes.begin() + 4);
  EXPECT_FALSE(store.ReclaimCodes({&held}));
  EXPECT_EQ(store.dict().size(), 16u);
  // Holding {101} alone leaves 5 of 16 unused: re-minted in first-seen
  // order, the rows first and then the held code, which is rewritten.
  held = {held[1]};
  EXPECT_TRUE(store.ReclaimCodes({&held}));
  EXPECT_EQ(store.dict().size(), 11u);
  EXPECT_EQ(store.CodeAt(0, 0), 0u);
  EXPECT_EQ(store.CodeAt(0, 1), 1u);
  ASSERT_EQ(held, (std::vector<std::uint32_t>{10}));
  EXPECT_EQ(store.dict().ValueOf(held[0]), 101);
  EXPECT_EQ(store.dict().CodeOf(100), ValueDictionary::kNoCode);
  for (Value v = 3; v < 8; ++v) {
    EXPECT_EQ(store.Row(static_cast<std::size_t>(v - 3)), (Tuple{v, 100 + v}));
  }
  // The rebuilt row index serves membership, dedup and erasure.
  EXPECT_TRUE(store.Contains({4, 104}));
  EXPECT_FALSE(store.Contains({0, 100}));
  EXPECT_FALSE(store.Append({3, 103}));
  EXPECT_TRUE(store.Append({0, 101}));
  EXPECT_EQ(store.CodeAt(5, 1), 10u);  // 101 kept its code
  EXPECT_EQ(store.CodeAt(5, 0), 11u);  // 0 was minted afresh
  EXPECT_EQ(store.Erase({5, 105}), ColumnStore::EraseResult::kTombstoned);
  EXPECT_FALSE(store.Contains({5, 105}));
}

TEST(ColumnStoreTest, ClearOnAlreadyEmptyStoreIsIdempotent) {
  ColumnStore store(2);
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  store.Append({1, 2});
  ASSERT_EQ(store.Erase({1, 2}), ColumnStore::EraseResult::kCompacted);
  store.Clear();  // clearing a compacted-to-empty store
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Append({1, 2}));
}

TEST(ColumnStoreTest, StatsComputeMinMaxDistinctPerColumn) {
  ColumnStore store(2);
  store.Append({5, -1});
  store.Append({-3, -1});
  store.Append({5, 7});
  ColumnStats c0 = store.Stats(0);
  EXPECT_EQ(c0.min, -3);
  EXPECT_EQ(c0.max, 5);
  EXPECT_EQ(c0.distinct, 2u);
  ColumnStats c1 = store.Stats(1);
  EXPECT_EQ(c1.min, -1);
  EXPECT_EQ(c1.max, 7);
  EXPECT_EQ(c1.distinct, 2u);

  ColumnStore empty(1);
  ColumnStats none = empty.Stats(0);
  EXPECT_EQ(none.distinct, 0u);
}

TEST(RowViewTest, TailNamesTheAppendSuffix) {
  ColumnStore store(1);
  for (Value v : {10, 11, 12, 13}) store.Append({v});
  RowView tail = RowView::Tail(store, 2, 2);
  EXPECT_EQ(tail.store, &store);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.rows[0], 2u);
  EXPECT_EQ(tail.rows[1], 3u);
  EXPECT_TRUE(RowView::Tail(store, 4, 0).empty());
}

// --- Relation journal over the columnar store ------------------------------

/// The removed side of `ds` as tuples, decoded from its saved codes.
std::vector<Tuple> RemovedValues(const Relation& r,
                                 const Relation::DeltaSet& ds) {
  const RowView removed = ds.Removed(r.store());
  std::vector<Tuple> out;
  for (const std::uint32_t row : removed.rows) {
    Tuple t(static_cast<std::size_t>(r.arity()));
    for (int c = 0; c < r.arity(); ++c) t[c] = removed.ValueAt(row, c);
    out.push_back(t);
  }
  return out;
}

TEST(RelationJournalTest, BatchInsertAdvancesGenerationByRowsAdded) {
  Relation r("R", 2);
  EXPECT_EQ(r.generation(), 0u);
  r.Insert({1, 2});
  EXPECT_EQ(r.generation(), 1u);
  r.Insert({1, 2});  // duplicate: no change
  EXPECT_EQ(r.generation(), 1u);

  const std::uint64_t snapshot = r.generation();
  EXPECT_EQ(r.InsertBatch({{1, 2}, {3, 4}, {5, 6}, {3, 4}}), 2u);
  EXPECT_EQ(r.generation(), snapshot + 2);

  // The append window is exactly the batch's fresh rows: rows [1, 3), and
  // nothing removed.
  Relation::DeltaSet window;
  ASSERT_TRUE(r.DeltasSince(snapshot, &window));
  ASSERT_TRUE(window.removed_rows.empty());
  EXPECT_EQ(window.appended_rows, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(r.store().Row(window.appended_rows.front()), (Tuple{3, 4}));

  // A removal gives the window a removed side; the current generation's
  // window is empty.
  r.Remove({1, 2});
  ASSERT_TRUE(r.DeltasSince(snapshot, &window));
  EXPECT_FALSE(window.removed_rows.empty());
  ASSERT_TRUE(r.DeltasSince(r.generation(), &window));
  EXPECT_TRUE(window.removed_rows.empty());
  EXPECT_TRUE(window.appended_rows.empty());
}

TEST(RelationJournalTest, DeltasSinceNamesBothSidesOfAMixedWindow) {
  Relation r("R", 1);
  for (Value v = 0; v < 8; ++v) r.Insert({v});
  const std::uint64_t snapshot = r.generation();

  r.Insert({100});               // physical row 8
  EXPECT_TRUE(r.Remove({3}));    // tombstones row 3
  r.Insert({101});               // physical row 9
  EXPECT_TRUE(r.Remove({101}));  // appended then removed in one window

  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  EXPECT_FALSE(ds.removed_rows.empty());  // not an append-only window
  // The append-then-remove of {101} nets out of BOTH sides: row 9 is dead
  // (not appended) and was never visible at the snapshot (not removed).
  EXPECT_EQ(ds.appended_rows, (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(ds.removed_rows, (std::vector<std::uint32_t>{3}));
  // The removed row's codes are saved with the delta -- the trie unpatch
  // path reads its key from there, as a ghost row past the store's end --
  // and the tombstoned columns stay readable until compaction.
  EXPECT_EQ(RemovedValues(r, ds), (std::vector<Tuple>{{3}}));
  EXPECT_FALSE(r.store().IsLive(3));
  EXPECT_EQ(r.store().Row(3), (Tuple{3}));

  // The current generation's delta is empty, a future one is invalid.
  ASSERT_TRUE(r.DeltasSince(r.generation(), &ds));
  EXPECT_TRUE(ds.appended_rows.empty());
  EXPECT_TRUE(ds.removed_rows.empty());
  EXPECT_FALSE(r.DeltasSince(r.generation() + 1, &ds));
  // Clear is a structural break: older snapshots can no longer be served.
  r.Clear();
  EXPECT_FALSE(r.DeltasSince(snapshot, &ds));
}

/// A relation holding the unary tuples 0 .. n-1 in rows 0 .. n-1.
Relation Iota(Value n) {
  Relation r("R", 1);
  for (Value v = 0; v < n; ++v) r.Insert({v});
  return r;
}

std::vector<std::uint32_t> Ids(std::initializer_list<std::uint32_t> ids) {
  return std::vector<std::uint32_t>(ids);
}

TEST(RelationJournalTest, OneCompactionInTheWindow) {
  Relation r = Iota(8);
  const std::uint64_t snapshot = r.generation();
  EXPECT_EQ(r.compactions(), 0u);
  EXPECT_TRUE(r.Remove({0}));
  EXPECT_TRUE(r.Remove({1}));
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));  // tombstones: still servable
  EXPECT_EQ(ds.removed_rows.size(), 2u);
  EXPECT_TRUE(ds.compacted_rows.empty());
  EXPECT_TRUE(r.Remove({2}));  // crosses dead*4 > rows: compacts
  EXPECT_EQ(r.compactions(), 1u);
  EXPECT_EQ(r.store().size(), 5u);  // physically rewritten
  // The epoch keeps the window servable: removed rows by snapshot id with
  // their saved codes, and the monotone map over the dropped rows.
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  EXPECT_EQ(ds.removed_rows, Ids({0, 1, 2}));
  EXPECT_EQ(RemovedValues(r, ds), (std::vector<Tuple>{{0}, {1}, {2}}));
  EXPECT_EQ(ds.compacted_rows, Ids({0, 1, 2}));
  EXPECT_TRUE(ds.appended_rows.empty());
  EXPECT_EQ(r.store().Row(3 - 3), (Tuple{3}));  // snapshot row 3 -> 0
  // The post-compaction generation serves deltas as before, and the older
  // snapshot sees the same append.
  const std::uint64_t after = r.generation();
  r.Insert({100});
  ASSERT_TRUE(r.DeltasSince(after, &ds));
  EXPECT_EQ(ds.appended_rows, Ids({5}));
  EXPECT_TRUE(ds.removed_rows.empty());
  EXPECT_TRUE(ds.compacted_rows.empty());
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  EXPECT_EQ(ds.appended_rows, Ids({5}));
  EXPECT_EQ(ds.removed_rows, Ids({0, 1, 2}));
}

TEST(RelationJournalTest, TwoCompactionsInOneWindow) {
  Relation r = Iota(20);
  const std::uint64_t snapshot = r.generation();
  for (Value v = 0; v < 6; ++v) EXPECT_TRUE(r.Remove({v}));
  EXPECT_EQ(r.compactions(), 1u);  // 6 dead of 20: values 6..19 remain
  r.Insert({100});                 // row 14
  const std::uint64_t middle = r.generation();
  for (Value v : {6, 7, 8, 100}) EXPECT_TRUE(r.Remove({v}));
  EXPECT_EQ(r.compactions(), 2u);  // 4 dead of 15: values 9..19 remain
  r.Insert({101});                 // row 11
  EXPECT_TRUE(r.Remove({10}));     // tombstone at row 1
  EXPECT_EQ(r.compactions(), 2u);

  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  EXPECT_EQ(ds.appended_rows, Ids({11}));
  EXPECT_EQ(r.store().Row(11), (Tuple{101}));
  // {100} was appended and removed inside the window: on neither side.
  EXPECT_EQ(ds.removed_rows, Ids({0, 1, 2, 3, 4, 5, 6, 7, 8, 10}));
  EXPECT_EQ(RemovedValues(r, ds),
            (std::vector<Tuple>{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8},
                                {10}}));
  // Snapshot rows 0..8 are gone from the store; row 10 is still there as a
  // tombstone, under current id 1.
  EXPECT_EQ(ds.compacted_rows, Ids({0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r.store().Row(10 - 9), (Tuple{10}));
  EXPECT_FALSE(r.store().IsLive(1));

  // A snapshot between the compactions spans only the second.
  ASSERT_TRUE(r.DeltasSince(middle, &ds));
  EXPECT_EQ(ds.appended_rows, Ids({11}));
  EXPECT_EQ(ds.removed_rows, Ids({0, 1, 2, 4, 14}));
  EXPECT_EQ(RemovedValues(r, ds),
            (std::vector<Tuple>{{6}, {7}, {8}, {10}, {100}}));
  EXPECT_EQ(ds.compacted_rows, Ids({0, 1, 2, 14}));
}

TEST(RelationJournalTest, AppendThenCompact) {
  Relation r = Iota(8);
  const std::uint64_t snapshot = r.generation();
  r.Insert({100});  // row 8
  r.Insert({101});  // row 9
  for (Value v : {0, 1, 2}) EXPECT_TRUE(r.Remove({v}));
  EXPECT_EQ(r.compactions(), 1u);  // 3 dead of 10
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  // The appended rows moved down with the copy-down: current ids 5, 6.
  EXPECT_EQ(ds.appended_rows, Ids({5, 6}));
  EXPECT_EQ(r.store().Row(5), (Tuple{100}));
  EXPECT_EQ(r.store().Row(6), (Tuple{101}));
  EXPECT_EQ(ds.removed_rows, Ids({0, 1, 2}));
  EXPECT_EQ(ds.compacted_rows, Ids({0, 1, 2}));
}

TEST(RelationJournalTest, AppendRemovedInsideTheWindowNetsOutAcrossEpochs) {
  Relation r = Iota(9);
  const std::uint64_t snapshot = r.generation();
  r.Insert({100});  // row 9
  EXPECT_TRUE(r.Remove({100}));
  EXPECT_TRUE(r.Remove({0}));
  EXPECT_TRUE(r.Remove({1}));  // 3 dead of 10: compacts, drops row 9 too
  EXPECT_EQ(r.compactions(), 1u);
  r.Insert({102});  // after the compaction: row 7
  EXPECT_TRUE(r.Remove({102}));
  EXPECT_EQ(r.compactions(), 1u);
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  // Neither {100} (dropped by the compaction) nor {102} (a tombstone past
  // it) shows up on either side.
  EXPECT_TRUE(ds.appended_rows.empty());
  EXPECT_EQ(ds.removed_rows, Ids({0, 1}));
  EXPECT_EQ(RemovedValues(r, ds), (std::vector<Tuple>{{0}, {1}}));
  EXPECT_EQ(ds.compacted_rows, Ids({0, 1}));
}

TEST(RelationJournalTest, EpochRetentionBoundsTheJournal) {
  // Three compactions save 11 + 8 + 6 rows while the live count falls to
  // 15: the oldest epoch goes, and with it the snapshot that needed it.
  Relation r = Iota(40);
  const std::uint64_t before_first = r.generation();
  for (Value v = 0; v < 11; ++v) EXPECT_TRUE(r.Remove({v}));
  EXPECT_EQ(r.compactions(), 1u);
  const std::uint64_t before_second = r.generation();
  for (Value v = 11; v < 25; ++v) EXPECT_TRUE(r.Remove({v}));
  EXPECT_EQ(r.compactions(), 3u);
  EXPECT_EQ(r.size(), 15u);
  Relation::DeltaSet ds;
  EXPECT_FALSE(r.DeltasSince(before_first, &ds));
  EXPECT_TRUE(ds.removed_rows.empty());
  ASSERT_TRUE(r.DeltasSince(before_second, &ds));
  EXPECT_EQ(ds.removed_rows.size(), 14u);
  EXPECT_EQ(RemovedValues(r, ds).front(), (Tuple{11}));
  EXPECT_EQ(RemovedValues(r, ds).back(), (Tuple{24}));
}

TEST(RelationJournalTest, ChurnThroughFreshValuesKeepsTheDictionaryBounded) {
  // A sliding window: round v removes {v} and inserts {40 + v}. Every 14th
  // removal compacts, and every second compaction finds more than a
  // quarter of the codes unused (95 -> 67 codes). Without reclaiming, the
  // dictionary would hold all 1040 values ever seen.
  Relation r = Iota(40);
  std::uint64_t snapshot = 0;
  bool shrank_in_window = false;
  for (Value v = 0; v < 1000; ++v) {
    if (v == 966) snapshot = r.generation();  // right after a compaction
    const std::size_t dict_before = r.store().dict().size();
    EXPECT_TRUE(r.Remove({v}));
    if (v >= 966 && r.store().dict().size() < dict_before) {
      shrank_in_window = true;
    }
    r.Insert({40 + v});
    EXPECT_LE(r.store().dict().size(), 95u);
  }
  EXPECT_TRUE(shrank_in_window);
  // The window spans a re-mint; both of its sides still decode.
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  std::vector<Tuple> removed, appended;
  for (Value v = 966; v < 1000; ++v) removed.push_back({v});
  for (std::uint32_t row : ds.appended_rows) {
    appended.push_back(r.store().Row(row));
  }
  EXPECT_EQ(RemovedValues(r, ds), removed);
  ASSERT_EQ(appended.size(), 34u);
  EXPECT_EQ(appended.front(), (Tuple{1006}));
  EXPECT_EQ(appended.back(), (Tuple{1039}));
  for (Value v = 1000; v < 1040; ++v) EXPECT_TRUE(r.Contains({v}));
  EXPECT_FALSE(r.Contains({999}));
}

TEST(RelationJournalTest, ClearStillBreaksDeltasAcrossEpochs) {
  Relation r = Iota(8);
  const std::uint64_t snapshot = r.generation();
  for (Value v : {0, 1, 2}) EXPECT_TRUE(r.Remove({v}));
  EXPECT_EQ(r.compactions(), 1u);
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  r.Clear();
  EXPECT_FALSE(r.DeltasSince(snapshot, &ds));
  EXPECT_FALSE(r.DeltasSince(r.generation() - 1, &ds));
  r.Insert({7});
  ASSERT_TRUE(r.DeltasSince(r.generation() - 1, &ds));
  EXPECT_EQ(ds.appended_rows, Ids({0}));
}

TEST(RelationJournalTest, FlatInsertsMatchTupleInserts) {
  Relation flat("F", 2);
  EXPECT_EQ(flat.InsertFlat({1, 2, 3, 4, 1, 2}, 3), 2u);
  EXPECT_EQ(flat.generation(), 2u);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat.store().Row(1), (Tuple{3, 4}));
}

TEST(RelationJournalTest, MaterializingAccessorMatchesStoreRows) {
  Relation r("R", 2);
  r.InsertBatch({{2, 1}, {4, 3}});
  const std::vector<Tuple> tuples = r.tuples();  // by value: a fresh decode
  ASSERT_EQ(tuples.size(), r.size());
  for (std::size_t row = 0; row < r.size(); ++row) {
    EXPECT_EQ(tuples[row], r.store().Row(row));
  }
}

// --- Radix trie builds vs a comparison-sort reference ----------------------

/// Every root-to-leaf key of `trie` in lexicographic (level) order.
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

TEST(RadixTrieBuildTest, MatchesSortedSetReferenceOnRandomRelations) {
  Rng rng(20260808);
  // Mixed-sign values force the sign-biased key packing to prove itself:
  // unsigned byte order must still sort negatives before positives.
  for (int round = 0; round < 20; ++round) {
    const int arity = 1 + static_cast<int>(rng.NextBelow(3));
    Relation r("R", arity);
    const std::size_t n = rng.NextBelow(60);
    for (std::size_t i = 0; i < n; ++i) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = rng.NextInRange(-50, 50);
      r.Insert(t);
    }
    // Identity layout: one level per column.
    std::vector<std::vector<int>> layout;
    for (int c = 0; c < arity; ++c) layout.push_back({c});
    TrieIndex trie(r, layout);

    std::set<Tuple> reference;
    for (std::size_t row = 0; row < r.store().size(); ++row) {
      reference.insert(r.store().Row(row));
    }
    EXPECT_EQ(AllKeys(trie),
              std::vector<Tuple>(reference.begin(), reference.end()))
        << "round " << round << " arity " << arity;
  }
}

TEST(RadixTrieBuildTest, CountsBuildsAndNeverMaterializesTuples) {
  const TrieBuildStats before = GetTrieBuildStats();
  Relation r("R", 2);
  r.InsertBatch({{1, 2}, {3, 4}, {5, 6}});
  TrieIndex scratch(r, {{0}, {1}});
  r.Insert({7, 8});
  TrieIndex patched(scratch);
  patched.Splice(RowView::Tail(r.store(), 3, 1), RowView(), {{0}, {1}});
  const TrieBuildStats after = GetTrieBuildStats();
  EXPECT_EQ(after.radix_builds, before.radix_builds + 1);
  EXPECT_EQ(after.merge_builds, before.merge_builds + 1);
  // The tripwire: columnar builds create no per-tuple Tuple objects.
  EXPECT_EQ(after.tuple_materializations, before.tuple_materializations);
  EXPECT_EQ(patched.num_tuples(), 4u);
}

}  // namespace
}  // namespace cqbounds
