#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/column_store.h"
#include "relation/flat_index.h"

namespace cqbounds {
namespace {

// Interns `key` into `index` over the dense key array `keys`, every key
// hashed to `hash(key)`; returns its id.
template <typename Hash>
std::uint32_t InternKey(FlatIndex* index, std::vector<Value>* keys, Value key,
                        Hash hash) {
  const std::uint32_t id = index->Intern(
      keys->size(), hash(key),
      [keys, key](std::uint32_t i) { return (*keys)[i] == key; },
      [keys, hash](std::size_t i) { return hash((*keys)[i]); });
  if (id == keys->size()) keys->push_back(key);
  return id;
}

std::uint32_t FindKey(const FlatIndex& index, const std::vector<Value>& keys,
                      Value key, std::size_t hash) {
  return index.Find(hash,
                    [&keys, key](std::uint32_t i) { return keys[i] == key; });
}

TEST(FlatIndexTest, ProbeWrapsAroundTheTableEnd) {
  // Every key hashes to the last slot of the 16-slot table, so the probe
  // fills slot 15 and then wraps to slots 0, 1, 2, ...
  const auto last = [](Value) { return ~std::size_t{0}; };
  FlatIndex index;
  std::vector<Value> keys;
  EXPECT_EQ(FindKey(index, keys, 7, last(7)), FlatIndex::kNone);
  for (Value v = 0; v < 5; ++v) {
    EXPECT_EQ(InternKey(&index, &keys, v * 11, last), v);
  }
  EXPECT_EQ(index[15], 0u);
  for (std::size_t slot = 0; slot < 4; ++slot) EXPECT_EQ(index[slot], slot + 1);
  EXPECT_EQ(index[4], FlatIndex::kNone);
  for (Value v = 0; v < 5; ++v) {
    EXPECT_EQ(InternKey(&index, &keys, v * 11, last), v);  // hit: no new id
    EXPECT_EQ(FindKey(index, keys, v * 11, last(0)), v);
  }
  EXPECT_EQ(keys.size(), 5u);
  // A miss walks the wrapped run to its first free slot.
  EXPECT_EQ(FindKey(index, keys, 12, last(12)), FlatIndex::kNone);
}

TEST(FlatIndexTest, DenseFirstSeenIdsAcrossGrowth) {
  // From an empty table through every doubling up to 2^17+ ids: ids are
  // minted densely in first-seen order, and each survives every regrowth.
  const auto hash = [](Value v) {
    return FibonacciHash(static_cast<std::uint64_t>(v));
  };
  constexpr std::uint32_t kN = (1u << 17) + 3;
  FlatIndex index;
  std::vector<Value> keys;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const Value v = (Value{i} << 20) - 5;  // strided, one negative
    ASSERT_EQ(InternKey(&index, &keys, v, hash), i);
    if (i % 1000 == 0) {
      ASSERT_EQ(InternKey(&index, &keys, v, hash), i);  // a hit mints nothing
    }
  }
  ASSERT_EQ(keys.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(FindKey(index, keys, keys[i], hash(keys[i])), i);
  }
  EXPECT_EQ(FindKey(index, keys, 1, hash(1)), FlatIndex::kNone);
}

TEST(FlatIndexTest, GrowthAfterTombstonesIndexesOnlyLiveRows) {
  // Row 3's tuple is tombstoned and re-appended (row 8, its slot
  // re-pointed), then the row index grows. Were the dead row re-indexed,
  // it would sit first on the tuple's probe run and hide the live copy.
  ColumnStore store(1);
  for (Value v = 0; v < 8; ++v) store.Append({v});
  ASSERT_EQ(store.Erase({3}), ColumnStore::EraseResult::kTombstoned);
  ASSERT_TRUE(store.Append({3}));
  ASSERT_EQ(store.size(), 9u);
  for (Value v = 100; v < 140; ++v) ASSERT_TRUE(store.Append({v}));
  EXPECT_EQ(store.dead_count(), 1u);
  EXPECT_FALSE(store.IsLive(3));
  EXPECT_TRUE(store.Contains({3}));
  EXPECT_FALSE(store.Append({3}));  // dedup still sees the live copy
  std::uint32_t removed = 0;
  ASSERT_EQ(store.Erase({3}, &removed), ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(removed, 8u);
  EXPECT_FALSE(store.Contains({3}));
  // A second re-append after the growth re-points the slot once more.
  EXPECT_TRUE(store.Append({3}));
  EXPECT_EQ(store.size(), 50u);
  EXPECT_TRUE(store.Contains({3}));
}

std::vector<std::uint32_t> Chain(const KeyedIndex& index,
                                 std::uint32_t entry) {
  std::vector<std::uint32_t> rows;
  for (std::uint32_t row = index.head(entry); row != KeyedIndex::kNone;
       row = index.next_row(row)) {
    rows.push_back(row);
  }
  return rows;
}

TEST(KeyedIndexTest, WidthZeroKeyChainsEveryRow) {
  KeyedIndex index;
  index.Reset(/*width=*/0, /*expected_keys=*/0, /*rows=*/5);
  EXPECT_EQ(index.Find(nullptr), KeyedIndex::kNone);
  for (std::uint32_t row = 5; row-- > 0;) {
    const std::uint32_t entry = index.FindOrInsert(nullptr);
    ASSERT_EQ(entry, 0u);  // the one key
    index.Link(entry, row);
  }
  EXPECT_EQ(index.Find(nullptr), 0u);
  EXPECT_EQ(Chain(index, 0), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(KeyedIndexTest, DescendingLinksChainAscendingPerKey) {
  // Row r carries key (r % 3, -1): three keys, rows linked last to first.
  constexpr std::uint32_t kRows = 40;
  KeyedIndex index;
  index.Reset(/*width=*/2, /*expected_keys=*/0, kRows);
  for (std::uint32_t row = kRows; row-- > 0;) {
    const Value key[2] = {Value{row % 3}, -1};
    const std::uint32_t entry = index.FindOrInsert(key);
    ++index.count(entry);
    index.Link(entry, row);
  }
  for (Value k = 0; k < 3; ++k) {
    const Value key[2] = {k, -1};
    const std::uint32_t entry = index.Find(key);
    ASSERT_NE(entry, KeyedIndex::kNone);
    std::vector<std::uint32_t> want;
    for (std::uint32_t row = static_cast<std::uint32_t>(k); row < kRows;
         row += 3) {
      want.push_back(row);
    }
    EXPECT_EQ(Chain(index, entry), want);
    EXPECT_EQ(index.count(entry), want.size());
  }
  const Value absent[2] = {0, 0};
  EXPECT_EQ(index.Find(absent), KeyedIndex::kNone);
  // A Reset empties the index for reuse at another width.
  index.Reset(/*width=*/1, /*expected_keys=*/1, /*rows=*/0);
  const Value one = 0;
  EXPECT_EQ(index.Find(&one), KeyedIndex::kNone);
}

TEST(KeyedIndexTest, RemapRowsDropsAndRenumbers) {
  // Rows 0..7 alternate between keys 10 and 20; the remap drops rows 1 and
  // 4 and shifts the rest down, as a compaction would.
  KeyedIndex index;
  index.Reset(/*width=*/1, /*expected_keys=*/2, /*rows=*/8);
  for (std::uint32_t row = 8; row-- > 0;) {
    const Value key = row % 2 == 0 ? 10 : 20;
    index.Link(index.FindOrInsert(&key), row);
  }
  const std::uint32_t kNone = KeyedIndex::kNone;
  index.RemapRows({0, kNone, 1, 2, kNone, 3, 4, 5});
  const Value even = 10;
  const Value odd = 20;
  // Key 10 held rows 0, 2, 4, 6 -> 0, 1, (dropped), 4.
  EXPECT_EQ(Chain(index, index.Find(&even)),
            (std::vector<std::uint32_t>{0, 1, 4}));
  // Key 20 held rows 1, 3, 5, 7 -> (dropped), 2, 3, 5.
  EXPECT_EQ(Chain(index, index.Find(&odd)),
            (std::vector<std::uint32_t>{2, 3, 5}));
  // Dropping every row empties both chains.
  index.RemapRows(std::vector<std::uint32_t>(6, kNone));
  EXPECT_EQ(index.head(index.Find(&even)), kNone);
  EXPECT_EQ(index.head(index.Find(&odd)), kNone);
}

}  // namespace
}  // namespace cqbounds
