#ifndef CQBOUNDS_RELATION_FLAT_INDEX_H_
#define CQBOUNDS_RELATION_FLAT_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "relation/tuple.h"
#include "util/status.h"

namespace cqbounds {

/// Fibonacci multiply, then fold the well-mixed high half into the low bits
/// a slot mask keeps: dense or strided ids spread evenly.
inline std::size_t FibonacciHash(std::uint64_t v) {
  const std::uint64_t h = v * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

/// The one hash index of the storage and evaluation layers: a power-of-two
/// table (at least 16 slots) of dense uint32_t ids, kNone marking a free
/// slot, linear probing, load at most 1/2. Keys stay in the caller's dense
/// arrays: a probe takes the key's hash and a key test on a candidate id,
/// and a growth re-inserts the ids the caller marks live, hashed by it.
class FlatIndex {
 public:
  /// Free-slot marker and "no id" result. Doubles as the capacity limit:
  /// an index holds ids below 2^32 - 1, checked in Set.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Empties the table and sizes it for `count` ids.
  void Reset(std::size_t count) {
    std::size_t capacity = 16;
    while (capacity < count * 2) capacity *= 2;
    slots_.assign(capacity, kNone);
  }

  /// Reset(count), then re-inserts every id in [0, ids) that `live(id)`
  /// accepts under hash `hash_of(id)`. Their keys are distinct: each id
  /// goes straight to the first free slot.
  template <typename HashOf, typename Live>
  void Rebuild(std::size_t count, std::size_t ids, HashOf&& hash_of,
               Live&& live) {
    Reset(count);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < ids; ++id) {
      if (!live(id)) continue;
      std::size_t slot = hash_of(id) & mask;
      while (slots_[slot] != kNone) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(id);
    }
  }

  /// Rebuild(count, ...) unless `count` ids already fit.
  template <typename HashOf, typename Live>
  void Reserve(std::size_t count, std::size_t ids, HashOf&& hash_of,
               Live&& live) {
    if (count * 2 > slots_.size()) Rebuild(count, ids, hash_of, live);
  }

  /// Slot holding the id `matches` accepts, or the free slot where a key
  /// hashing to `hash` would go. Requires a table (Reset or Reserve).
  template <typename Matches>
  std::size_t Probe(std::size_t hash, Matches&& matches) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    while (slots_[slot] != kNone && !matches(slots_[slot])) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// The id `matches` accepts, or kNone -- also before any table exists.
  template <typename Matches>
  std::uint32_t Find(std::size_t hash, Matches&& matches) const {
    return slots_.empty() ? kNone : slots_[Probe(hash, matches)];
  }

  /// The id in `slot`, or kNone when the slot is free.
  std::uint32_t operator[](std::size_t slot) const { return slots_[slot]; }

  /// Points `slot` (as Probe returned it) at `id`, free or re-pointed.
  void Set(std::size_t slot, std::size_t id) {
    CQB_CHECK(id < kNone);
    slots_[slot] = static_cast<std::uint32_t>(id);
  }

  /// Dense first-seen ids over the caller's keys [0, size): the id
  /// `matches` accepts, or on a miss `size` itself, indexed under `hash`
  /// (after growing if needed); the caller then appends the key.
  template <typename Matches, typename HashOf>
  std::uint32_t Intern(std::size_t size, std::size_t hash, Matches&& matches,
                       HashOf&& hash_of) {
    Reserve(size + 1, size, hash_of, [](std::size_t) { return true; });
    const std::size_t slot = Probe(hash, matches);
    if (slots_[slot] == kNone) Set(slot, size);
    return slots_[slot];
  }

 private:
  std::vector<std::uint32_t> slots_;
};

/// A keyed multi-index over caller rows: maps each distinct key -- a tuple
/// of `width` Values; width zero gives one key -- to an entry holding a
/// *support count* and the head of an intrusive *chain* of rows, so a
/// key's rows are found without a scan or a per-key row vector. Link
/// prepends: rows linked in descending order chain in ascending order.
/// Keys sit inline in one arena, in entry order, found through a FlatIndex
/// hashed by a chained Fibonacci multiply. Users: the semi-join books and
/// the binary joins' step index and projection dedup (relation/evaluate.cc).
class KeyedIndex {
 public:
  /// End-of-chain marker and "no such entry" result.
  static constexpr std::uint32_t kNone = FlatIndex::kNone;

  /// Empties the index (keeping buffer capacity), sets the key width, and
  /// sizes it for `expected_keys` keys chained through rows [0, rows).
  void Reset(std::size_t width, std::size_t expected_keys, std::size_t rows) {
    width_ = width;
    keys_.clear();
    entries_.clear();
    keys_.reserve(expected_keys * width);
    entries_.reserve(expected_keys);
    // Sized up front, not row by row in Link, which grows it only for
    // rows past `rows` (a delta pass's appends).
    next_.assign(rows, kNone);
    index_.Reset(expected_keys + 1);
  }
  std::size_t width() const { return width_; }

  /// Entry holding `key` (`width()` values), or kNone.
  std::uint32_t Find(const Value* key) const {
    return index_.Find(Hash(key), Matches{this, key});
  }
  /// Entry holding `key`, inserted with count zero and an empty chain
  /// when new.
  std::uint32_t FindOrInsert(const Value* key) {
    const std::uint32_t entry = index_.Intern(
        entries_.size(), Hash(key), Matches{this, key},
        [this](std::size_t e) { return Hash(keys_.data() + e * width_); });
    if (entry == entries_.size()) {
      keys_.insert(keys_.end(), key, key + width_);
      entries_.push_back(Entry{0, kNone});
    }
    return entry;
  }

  std::uint32_t& count(std::uint32_t entry) { return entries_[entry].count; }

  /// Prepends row `row` to `entry`'s chain. A row is linked at most once
  /// per Reset.
  void Link(std::uint32_t entry, std::uint32_t row) {
    if (row >= next_.size()) next_.resize(row + 1, kNone);
    next_[row] = entries_[entry].head;
    entries_[entry].head = row;
  }
  /// First row of `entry`'s chain, or kNone.
  std::uint32_t head(std::uint32_t entry) const {
    return entries_[entry].head;
  }
  /// The row after `row` in its chain, or kNone.
  std::uint32_t next_row(std::uint32_t row) const { return next_[row]; }

  /// Carries the chains across a renumbering of the rows: row r becomes
  /// `to_current[r]`, and rows mapped to kNone leave their chains. Every
  /// linked row must lie inside `to_current`. O(keys + linked rows).
  void RemapRows(const std::vector<std::uint32_t>& to_current) {
    std::vector<std::uint32_t> next(to_current.size(), kNone);
    for (Entry& e : entries_) {
      // Relink the chain's surviving rows under their new ids, in order.
      std::uint32_t tail = kNone;
      std::uint32_t row = e.head;
      e.head = kNone;
      for (; row != kNone; row = next_[row]) {
        const std::uint32_t moved = to_current[row];
        if (moved == kNone) continue;
        (tail == kNone ? e.head : next[tail]) = moved;
        tail = moved;
      }
    }
    next_ = std::move(next);
  }

 private:
  std::size_t Hash(const Value* key) const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < width_; ++i) {
      h = (h ^ static_cast<std::uint64_t>(key[i])) * 0x9E3779B97F4A7C15ull;
    }
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
  /// Key test of a probe for `key`: does entry `e` hold it?
  struct Matches {
    const KeyedIndex* self;
    const Value* key;
    bool operator()(std::uint32_t e) const {
      return std::equal(key, key + self->width_,
                        self->keys_.data() + e * self->width_);
    }
  };

  std::size_t width_ = 0;
  /// Entry e's key is keys_[e * width_, (e + 1) * width_).
  std::vector<Value> keys_;
  /// An entry's support count next to its chain head: a pass that adjusts
  /// a count reads the head too, and finds both in one cache line.
  struct Entry {
    std::uint32_t count;
    std::uint32_t head;
  };
  std::vector<Entry> entries_;
  FlatIndex index_;
  /// Row -> next row of its chain (kNone ends it).
  std::vector<std::uint32_t> next_;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_FLAT_INDEX_H_
