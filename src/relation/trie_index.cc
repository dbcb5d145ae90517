#include "relation/trie_index.h"

#include <algorithm>
#include <array>
#include <atomic>

namespace cqbounds {

namespace {

std::atomic<std::uint64_t> g_radix_builds{0};
std::atomic<std::uint64_t> g_merge_builds{0};
std::atomic<std::uint64_t> g_delta_nodes_visited{0};
std::atomic<std::uint64_t> g_tuple_materializations{0};

/// Maps a signed Value onto uint64 preserving order: flipping the sign bit
/// makes unsigned byte-wise comparison agree with signed comparison.
inline std::uint64_t BiasValue(Value v) {
  return static_cast<std::uint64_t>(v) ^ (1ull << 63);
}

inline Value UnbiasKey(std::uint64_t k) {
  return static_cast<Value>(k ^ (1ull << 63));
}

/// Lexicographic compare of two packed keys of `depth` words.
inline int CompareKeys(const std::uint64_t* a, const std::uint64_t* b,
                       int depth) {
  for (int l = 0; l < depth; ++l) {
    if (a[l] < b[l]) return -1;
    if (a[l] > b[l]) return 1;
  }
  return 0;
}

/// Stable LSD radix sort of the row permutation `idx` by the packed keys
/// (lexicographic across levels, most significant level last in pass
/// order). Each pass is an 8-bit counting sort; per level, passes above the
/// highest byte where that level's min and max keys differ are skipped --
/// every key in [min, max] shares that byte prefix -- so narrow-domain
/// levels cost one or two passes, not eight.
void RadixSortIndices(const std::vector<std::uint64_t>& keys, std::size_t m,
                      int depth, const std::vector<std::uint64_t>& key_min,
                      const std::vector<std::uint64_t>& key_max,
                      std::vector<std::uint32_t>* idx) {
  std::vector<std::uint32_t> tmp(m);
  std::array<std::size_t, 256> count;
  for (int l = depth - 1; l >= 0; --l) {
    const std::uint64_t lo = key_min[static_cast<std::size_t>(l)];
    const std::uint64_t hi = key_max[static_cast<std::size_t>(l)];
    if (lo == hi) continue;  // Constant column: already in order.
    int top = 7;
    while (((lo >> (8 * top)) & 0xFF) == ((hi >> (8 * top)) & 0xFF)) --top;
    for (int b = 0; b <= top; ++b) {
      const int shift = 8 * b;
      count.fill(0);
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t k =
            keys[static_cast<std::size_t>((*idx)[i]) * depth +
                 static_cast<std::size_t>(l)];
        ++count[(k >> shift) & 0xFF];
      }
      std::size_t sum = 0;
      for (std::size_t j = 0; j < 256; ++j) {
        const std::size_t c = count[j];
        count[j] = sum;
        sum += c;
      }
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t row = (*idx)[i];
        const std::uint64_t k = keys[static_cast<std::size_t>(row) * depth +
                                     static_cast<std::size_t>(l)];
        tmp[count[(k >> shift) & 0xFF]++] = row;
      }
      idx->swap(tmp);
    }
  }
}

/// Radix-sorts the packed `keys` (m rows of `depth` words) and collapses
/// duplicates: `*sorted` receives the distinct sorted key stream and
/// `*counts` one net multiplicity per distinct key, where rows
/// [0, positive) count +1 and rows [positive, m) count -1. Returns the
/// distinct count. Shared by the builds (positive == m) and the delta
/// constructor (appended rows, then removed rows).
template <typename Count>
std::size_t SortCountKeys(const std::vector<std::uint64_t>& keys,
                          std::size_t m, std::size_t positive, int depth,
                          const std::vector<std::uint64_t>& key_min,
                          const std::vector<std::uint64_t>& key_max,
                          std::vector<std::uint64_t>* sorted,
                          std::vector<Count>* counts) {
  std::vector<std::uint32_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = static_cast<std::uint32_t>(i);
  RadixSortIndices(keys, m, depth, key_min, key_max, &idx);
  sorted->clear();
  sorted->reserve(m * static_cast<std::size_t>(depth));
  counts->clear();
  counts->reserve(m);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* key =
        keys.data() + static_cast<std::size_t>(idx[i]) * depth;
    const Count sign = idx[i] < positive ? Count{1} : static_cast<Count>(-1);
    if (kept > 0 &&
        CompareKeys(sorted->data() + (kept - 1) * depth, key, depth) == 0) {
      counts->back() += sign;
      continue;
    }
    sorted->insert(sorted->end(), key, key + depth);
    counts->push_back(sign);
    ++kept;
  }
  return kept;
}

}  // namespace

TrieBuildStats GetTrieBuildStats() {
  TrieBuildStats stats;
  stats.radix_builds = g_radix_builds.load(std::memory_order_relaxed);
  stats.merge_builds = g_merge_builds.load(std::memory_order_relaxed);
  stats.delta_nodes_visited =
      g_delta_nodes_visited.load(std::memory_order_relaxed);
  stats.tuple_materializations =
      g_tuple_materializations.load(std::memory_order_relaxed);
  return stats;
}

std::size_t TrieIndex::ExtractKeys(
    const ColumnStore& store, const RowView* view,
    const std::vector<std::vector<int>>& level_positions,
    std::vector<std::uint64_t>* keys, std::vector<std::uint64_t>* key_min,
    std::vector<std::uint64_t>* key_max) {
  const int depth = static_cast<int>(level_positions.size());
  const std::size_t n = view != nullptr ? view->size() : store.size();
  keys->reserve(keys->size() + n * static_cast<std::size_t>(depth));
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = view != nullptr ? view->rows[i] : i;
    if (view == nullptr && !store.IsLive(row)) continue;
    const auto code_at = [&](int col) {
      return view != nullptr ? view->CodeAt(row, col) : store.CodeAt(row, col);
    };
    const std::size_t mark = keys->size();
    bool consistent = true;
    for (int l = 0; l < depth && consistent; ++l) {
      const std::vector<int>& positions = level_positions[l];
      const std::uint32_t code = code_at(positions.front());
      for (std::size_t p = 1; p < positions.size(); ++p) {
        // One dictionary per store: code equality is value equality.
        if (code_at(positions[p]) != code) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        keys->push_back(BiasValue(store.dict().ValueOf(code)));
      }
    }
    if (!consistent) {
      keys->resize(mark);
      continue;
    }
    for (int l = 0; l < depth; ++l) {
      const std::uint64_t k = (*keys)[mark + static_cast<std::size_t>(l)];
      std::uint64_t& lo = (*key_min)[static_cast<std::size_t>(l)];
      std::uint64_t& hi = (*key_max)[static_cast<std::size_t>(l)];
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
    ++kept;
  }
  return kept;
}

void TrieIndex::BuildFromFlatKeys(const std::vector<std::uint64_t>& keys,
                                  std::size_t m, int depth,
                                  const std::vector<std::uint64_t>& key_min,
                                  const std::vector<std::uint64_t>& key_max) {
  // Write out the sorted, deduplicated key stream once (counting the rows
  // collapsed under each key as its support), then build the levels from it
  // in one scan.
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint32_t> counts;
  num_tuples_ =
      SortCountKeys(keys, m, m, depth, key_min, key_max, &sorted, &counts);

  // Key i opens new nodes at all levels past its common prefix with key
  // i-1. A node's first-child offset is recorded at creation (the next
  // level's current size); the trailing sentinel closes the last node of
  // each level.
  levels_.resize(static_cast<std::size_t>(depth));
  for (std::size_t i = 0; i < num_tuples_; ++i) {
    const std::uint64_t* key = sorted.data() + i * depth;
    int split = 0;
    if (i > 0) {
      const std::uint64_t* prev = key - depth;
      while (split < depth && key[split] == prev[split]) ++split;
    }
    for (int l = split; l < depth; ++l) {
      if (l + 1 < depth) {
        levels_[l].child_begin.push_back(levels_[l + 1].values.size());
      }
      levels_[l].values.push_back(UnbiasKey(key[l]));
    }
  }
  for (int l = 0; l + 1 < depth; ++l) {
    levels_[l].child_begin.push_back(levels_[l + 1].values.size());
  }
  SetCounts(std::move(counts));
}

void TrieIndex::SetCounts(std::vector<std::uint32_t>&& counts) {
  for (const std::uint32_t c : counts) {
    if (c != 1) {
      counts_ = std::move(counts);
      return;
    }
  }
  counts_.clear();
}

TrieIndex::TrieIndex(const Relation& rel,
                     const std::vector<std::vector<int>>& level_positions) {
  g_radix_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  if (depth == 0) {
    // Zero key variables: the trie only records whether any tuple survives
    // the (vacuous) filters -- the atom acts as a boolean guard. The
    // support count remembers how many rows back it, so delta subtraction
    // knows when the guard flips off.
    root_support_ = rel.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> key_min(static_cast<std::size_t>(depth), ~0ull);
  std::vector<std::uint64_t> key_max(static_cast<std::size_t>(depth), 0);
  const std::size_t m = ExtractKeys(rel.store(), nullptr, level_positions,
                                    &keys, &key_min, &key_max);
  BuildFromFlatKeys(keys, m, depth, key_min, key_max);
}

TrieIndex::TrieIndex(const RowView& view,
                     const std::vector<std::vector<int>>& level_positions) {
  g_radix_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  if (depth == 0) {
    root_support_ = view.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }
  CQB_CHECK(view.store != nullptr);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> key_min(static_cast<std::size_t>(depth), ~0ull);
  std::vector<std::uint64_t> key_max(static_cast<std::size_t>(depth), 0);
  const std::size_t m = ExtractKeys(*view.store, &view, level_positions,
                                    &keys, &key_min, &key_max);
  BuildFromFlatKeys(keys, m, depth, key_min, key_max);
}

/// The splice of one sorted net delta into a base trie. Output goes
/// straight into `out`'s levels; `counts` collects its leaf supports in
/// leaf order, and `visits` the nodes probed or emitted one at a time.
struct TrieIndex::Splicer {
  const TrieIndex& base;
  TrieIndex& out;
  /// The net delta: distinct sorted packed keys, depth words each, and one
  /// signed net support per key.
  const std::vector<std::uint64_t>& keys;
  const std::vector<std::int64_t>& nets;
  std::vector<std::uint32_t> counts;
  std::uint64_t visits = 0;

  /// Appends base nodes [a, z) at `level` with all their descendants. The
  /// descendants of a sibling run are one contiguous run per level, so each
  /// level is a single copy: values as-is, first-child offsets shifted by
  /// one constant, and at the leaves the support counts.
  void Copy(int level, std::size_t a, std::size_t z) {
    const int last = out.num_levels() - 1;
    for (int l = level; a < z; ++l) {
      const Level& from = base.levels_[l];
      Level& to = out.levels_[l];
      to.values.insert(to.values.end(), from.values.begin() + a,
                       from.values.begin() + z);
      if (l == last) {
        if (base.counts_.empty()) {
          counts.insert(counts.end(), z - a, 1u);
        } else {
          counts.insert(counts.end(), base.counts_.begin() + a,
                        base.counts_.begin() + z);
        }
        return;
      }
      // Unsigned wrap-around is fine: the shifted offsets are exact.
      const std::size_t shift =
          out.levels_[l + 1].values.size() - from.child_begin[a];
      for (std::size_t i = a; i < z; ++i) {
        to.child_begin.push_back(from.child_begin[i] + shift);
      }
      const std::size_t next_a = from.child_begin[a];
      z = from.child_begin[z];
      a = next_a;
    }
  }

  /// Splices delta keys [d, dend) -- all sharing the path to this sibling
  /// range -- into the base sibling range `r` at `level`.
  void Merge(int level, Range r, std::size_t d, std::size_t dend) {
    const int depth = out.num_levels();
    const auto word = [&](std::size_t i) {
      return keys[i * static_cast<std::size_t>(depth) +
                  static_cast<std::size_t>(level)];
    };
    Level& to = out.levels_[level];
    std::size_t cur = r.begin;
    while (d < dend) {
      std::size_t group_end = d + 1;
      while (group_end < dend && word(group_end) == word(d)) ++group_end;
      const Value v = UnbiasKey(word(d));
      const std::size_t pos = base.SeekGE(level, Range{cur, r.end}, v);
      ++visits;
      Copy(level, cur, pos);
      const bool found = pos < r.end && base.levels_[level].values[pos] == v;
      cur = found ? pos + 1 : pos;
      if (level + 1 == depth) {
        // Leaf: keys are distinct, so the group is this one key.
        const std::int64_t net =
            (found ? base.CountOf(pos) : 0) + nets[d];
        // A negative net means a removal named a row whose key the base
        // (plus this window's appends) never supported -- a journal bug
        // upstream.
        CQB_CHECK(net >= 0);
        if (net > 0) {
          to.values.push_back(v);
          counts.push_back(static_cast<std::uint32_t>(net));
          ++visits;
        }
      } else {
        // Emit the node, splice its children, and take it back if none
        // survived.
        to.child_begin.push_back(out.levels_[level + 1].values.size());
        to.values.push_back(v);
        ++visits;
        Merge(level + 1, found ? base.ChildRange(level, pos) : Range{},
              d, group_end);
        if (out.levels_[level + 1].values.size() == to.child_begin.back()) {
          to.values.pop_back();
          to.child_begin.pop_back();
        }
      }
      d = group_end;
    }
    Copy(level, cur, r.end);
  }
};

TrieIndex::TrieIndex(const TrieIndex& base, const RowView& appended,
                     const RowView& removed,
                     const std::vector<std::vector<int>>& level_positions) {
  g_merge_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  CQB_CHECK(base.num_levels() == depth);
  if (depth == 0) {
    // No key variables, so every row is vacuously self-consistent and the
    // guard is pure arithmetic on row counts.
    CQB_CHECK(base.root_support_ + appended.size() >= removed.size());
    root_support_ = base.root_support_ + appended.size() - removed.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }

  // Both delta sides go through the same extraction as the base build, so
  // self-inconsistent rows are filtered symmetrically, then sort together
  // into one net delta: appended rows count +1, removed rows -1.
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> key_min(static_cast<std::size_t>(depth), ~0ull);
  std::vector<std::uint64_t> key_max(static_cast<std::size_t>(depth), 0);
  const auto extract = [&](const RowView& side) -> std::size_t {
    if (side.empty()) return 0;
    CQB_CHECK(side.store != nullptr);
    return ExtractKeys(*side.store, &side, level_positions, &keys, &key_min,
                       &key_max);
  };
  const std::size_t added = extract(appended);
  const std::size_t m = added + extract(removed);
  std::vector<std::uint64_t> delta;
  std::vector<std::int64_t> nets;
  SortCountKeys(keys, m, added, depth, key_min, key_max, &delta, &nets);

  levels_.resize(static_cast<std::size_t>(depth));
  for (int l = 0; l < depth; ++l) {
    const Level& from = base.levels_[l];
    levels_[l].values.reserve(from.values.size() + nets.size());
    if (l + 1 < depth) {
      levels_[l].child_begin.reserve(from.child_begin.size() + nets.size());
    }
  }
  Splicer splice{base, *this, delta, nets, {}, 0};
  splice.counts.reserve(base.num_tuples_ + nets.size());
  splice.Merge(0, base.RootRange(), 0, nets.size());
  for (int l = 0; l + 1 < depth; ++l) {
    levels_[l].child_begin.push_back(levels_[l + 1].values.size());
  }
  num_tuples_ = levels_.back().values.size();
  SetCounts(std::move(splice.counts));
  g_delta_nodes_visited.fetch_add(splice.visits, std::memory_order_relaxed);
}

bool TrieIndex::operator==(const TrieIndex& other) const {
  if (num_tuples_ != other.num_tuples_ ||
      root_support_ != other.root_support_ ||
      levels_.size() != other.levels_.size()) {
    return false;
  }
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].values != other.levels_[l].values ||
        levels_[l].child_begin != other.levels_[l].child_begin) {
      return false;
    }
  }
  for (std::size_t i = 0; i < num_tuples_; ++i) {
    if (CountOf(i) != other.CountOf(i)) return false;
  }
  return true;
}

}  // namespace cqbounds
