#include "relation/trie_index.h"

#include <algorithm>
#include <array>
#include <atomic>

namespace cqbounds {

namespace {

std::atomic<std::uint64_t> g_radix_builds{0};
std::atomic<std::uint64_t> g_merge_builds{0};
std::atomic<std::uint64_t> g_shared_splices{0};
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
/// distinct count. Shared by the builds (positive == m) and Splice
/// (appended rows, then removed rows).
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
  stats.shared_splices = g_shared_splices.load(std::memory_order_relaxed);
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

struct TrieIndex::Edit {
  enum Kind : std::uint8_t { kInsert, kErase, kSet };
  /// Base node index at the edit's level: an insert lands before it.
  std::size_t pos;
  Kind kind;
  /// The inserted node's key (kInsert only).
  Value value;
  /// kInsert and kSet: the node's leaf support, or its inner child count.
  std::size_t count;
};

/// The splice's plan phase: walks one sorted net delta down the trie and
/// records each level's edits, in node order, without writing to the trie.
struct TrieIndex::SplicePlan {
  const TrieIndex& trie;
  /// The net delta: distinct sorted packed keys, depth words each, and one
  /// signed net support per key.
  const std::vector<std::uint64_t>& keys;
  const std::vector<std::int64_t>& nets;
  std::vector<std::vector<Edit>> edits;
  std::uint64_t visits = 0;

  /// Plans delta keys [d, dend) -- all sharing the path to this sibling
  /// range -- into the sibling range `r` at `level`, and returns the
  /// range's net change in node count (its parent's child-count change).
  std::int64_t Walk(int level, Range r, std::size_t d, std::size_t dend) {
    const int depth = trie.num_levels();
    const bool leaf = level + 1 == depth;
    const auto word = [&](std::size_t i) {
      return keys[i * static_cast<std::size_t>(depth) +
                  static_cast<std::size_t>(level)];
    };
    const Level& at = trie.levels_[level];
    std::vector<Edit>& out = edits[level];
    std::int64_t change = 0;
    std::size_t cur = r.begin;
    while (d < dend) {
      std::size_t group_end = d + 1;
      while (group_end < dend && word(group_end) == word(d)) ++group_end;
      const Value v = UnbiasKey(word(d));
      const std::size_t pos = trie.SeekGE(level, Range{cur, r.end}, v);
      ++visits;
      const bool found = pos < r.end && at.values[pos] == v;
      cur = found ? pos + 1 : pos;
      std::int64_t old_count;
      std::int64_t count;
      if (leaf) {
        // Leaf: keys are distinct, so the group is this one key.
        old_count = found ? trie.CountOf(pos) : 0;
        const std::int64_t net = old_count + nets[d];
        // A negative net means a removal named a row whose key the trie
        // (plus this window's appends) never supported -- a journal bug
        // upstream.
        CQB_CHECK(net >= 0);
        count = net;
      } else {
        // A new node's children go where the next node's begin.
        const Range children = found ? trie.ChildRange(level, pos)
                                     : Range{at.child_begin[pos],
                                             at.child_begin[pos]};
        old_count = static_cast<std::int64_t>(children.size());
        count = old_count + Walk(level + 1, children, d, group_end);
      }
      if (found ? count != old_count : count > 0) {
        const Edit::Kind kind =
            !found ? Edit::kInsert : (count == 0 ? Edit::kErase : Edit::kSet);
        out.push_back(Edit{pos, kind, v, static_cast<std::size_t>(count)});
        change += (kind == Edit::kInsert) - (kind == Edit::kErase);
        ++visits;
      }
      d = group_end;
    }
    return change;
  }
};

void TrieIndex::ApplyEdits(int level, const std::vector<Edit>& edits) {
  if (edits.empty()) return;
  Level& at = levels_[static_cast<std::size_t>(level)];
  const bool leaf = level + 1 == num_levels();
  const std::size_t n = at.values.size();
  const std::size_t from = edits.front().pos;

  // The kept base runs between inserts and erases, each moving by the
  // inserts minus erases before it, and every edited node's final slot.
  struct Run {
    std::size_t begin;
    std::size_t end;
    std::size_t to;
  };
  std::vector<Run> runs;
  std::vector<std::size_t> slots(edits.size());
  std::size_t src = from;
  std::size_t shift_up = 0;    // inserts so far
  std::size_t shift_down = 0;  // erases so far
  for (std::size_t e = 0; e < edits.size(); ++e) {
    const Edit& edit = edits[e];
    slots[e] = edit.pos + shift_up - shift_down;
    if (edit.kind == Edit::kSet) continue;  // The node stays in its run.
    if (edit.pos > src) {
      runs.push_back(Run{src, edit.pos, src + shift_up - shift_down});
      src = edit.pos;
    }
    if (edit.kind == Edit::kInsert) {
      ++shift_up;
    } else {
      ++shift_down;
      src = edit.pos + 1;
    }
  }
  if (src < n) runs.push_back(Run{src, n, src + shift_up - shift_down});
  const std::size_t size = n + shift_up - shift_down;

  // Inner levels edit child counts, not offsets: from the first edit on,
  // child_begin holds counts until the prefix sum below.
  std::vector<std::size_t>& begins = at.child_begin;
  const std::size_t first_child = leaf ? 0 : begins[from];
  if (!leaf) {
    for (std::size_t i = from; i < n; ++i) {
      begins[i] = begins[i + 1] - begins[i];
    }
  }
  // Leaf supports stay absent until a count other than one appears.
  const bool supports =
      leaf && (!counts_.empty() ||
               std::any_of(edits.begin(), edits.end(), [](const Edit& edit) {
                 return edit.kind != Edit::kErase && edit.count != 1;
               }));
  if (supports && counts_.empty()) counts_.assign(n, 1u);

  const std::size_t room = std::max(n, size);
  at.values.resize(room);
  if (!leaf) begins.resize(room + 1);
  if (supports) counts_.resize(room);
  const auto move = [&](const Run& run) {
    const auto shift_run = [&run](auto* column) {
      const auto at_index = [column](std::size_t i) {
        return column->begin() + static_cast<std::ptrdiff_t>(i);
      };
      if (run.to < run.begin) {
        std::copy(at_index(run.begin), at_index(run.end), at_index(run.to));
      } else {
        std::copy_backward(at_index(run.begin), at_index(run.end),
                           at_index(run.to + (run.end - run.begin)));
      }
    };
    shift_run(&at.values);
    if (!leaf) shift_run(&begins);
    if (supports) shift_run(&counts_);
  };
  // A run's destination never reaches a run not yet moved: left-moving runs
  // go front to back, right-moving ones back to front.
  for (const Run& run : runs) {
    if (run.to < run.begin) move(run);
  }
  for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
    if (run->to > run->begin) move(*run);
  }
  for (std::size_t e = 0; e < edits.size(); ++e) {
    const Edit& edit = edits[e];
    if (edit.kind == Edit::kErase) continue;
    const std::size_t slot = slots[e];
    if (edit.kind == Edit::kInsert) at.values[slot] = edit.value;
    if (!leaf) {
      begins[slot] = edit.count;
    } else if (supports) {
      counts_[slot] = static_cast<std::uint32_t>(edit.count);
    }
  }
  at.values.resize(size);
  if (supports) counts_.resize(size);
  if (!leaf) {
    begins.resize(size + 1);
    std::size_t offset = first_child;
    for (std::size_t i = from; i < size; ++i) {
      const std::size_t children = begins[i];
      begins[i] = offset;
      offset += children;
    }
    begins[size] = offset;
  }
}

void TrieIndex::Splice(const RowView& appended, const RowView& removed,
                       const std::vector<std::vector<int>>& level_positions) {
  g_merge_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  CQB_CHECK(num_levels() == depth);
  if (depth == 0) {
    // No key variables, so every row is vacuously self-consistent and the
    // guard is pure arithmetic on row counts.
    CQB_CHECK(root_support_ + appended.size() >= removed.size());
    root_support_ = root_support_ + appended.size() - removed.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }

  // Both delta sides go through the same extraction as the build, so
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

  // Plan every level's edits first: the support checks all run there, so
  // a failed one leaves the trie as it was.
  SplicePlan plan{*this, delta, nets,
                  std::vector<std::vector<Edit>>(
                      static_cast<std::size_t>(depth)),
                  0};
  plan.Walk(0, RootRange(), 0, nets.size());
  for (int l = 0; l < depth; ++l) {
    ApplyEdits(l, plan.edits[static_cast<std::size_t>(l)]);
  }
  num_tuples_ = levels_.back().values.size();
  g_delta_nodes_visited.fetch_add(plan.visits, std::memory_order_relaxed);
}

void SpliceOrCopy(std::shared_ptr<TrieIndex>* trie, const RowView& appended,
                  const RowView& removed,
                  const std::vector<std::vector<int>>& level_positions) {
  if (trie->use_count() != 1) {
    g_shared_splices.fetch_add(1, std::memory_order_relaxed);
    *trie = std::make_shared<TrieIndex>(**trie);
  }
  (*trie)->Splice(appended, removed, level_positions);
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
