#include "relation/relation.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace cqbounds {

bool Relation::Insert(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity());
  if (!store_.Append(t)) return false;
  ++generation_;
  return true;
}

std::size_t Relation::InsertBatch(const std::vector<Tuple>& batch) {
  const std::size_t added = store_.AppendBatch(batch);
  generation_ += added;
  return added;
}

std::size_t Relation::InsertFlat(const std::vector<Value>& flat_values,
                                 std::size_t num_rows) {
  const std::size_t added = store_.AppendFlat(flat_values, num_rows);
  generation_ += added;
  return added;
}

std::size_t Relation::InsertDense(const std::vector<std::uint32_t>& ids,
                                  std::size_t num_rows, std::size_t bound) {
  const std::size_t added = store_.AppendDense(ids, num_rows, bound);
  generation_ += added;
  return added;
}

std::size_t Relation::InsertCoded(const std::vector<CodedRows>& sources,
                                  const std::vector<CodedSlice>& slices) {
  const std::size_t added = store_.AppendCoded(sources, slices);
  generation_ += added;
  return added;
}

bool Relation::Remove(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity());
  std::uint32_t row = 0;
  ColumnStore::CompactionRecord dropped;
  const ColumnStore::EraseResult result = store_.Erase(t, &row, &dropped);
  if (result == ColumnStore::EraseResult::kNotFound) return false;
  ++generation_;
  removed_log_.push_back(RemovalEvent{generation_, row});
  if (result == ColumnStore::EraseResult::kCompacted) {
    // The compaction dropped exactly the rows tombstoned since the last
    // one -- the removal log -- so the log supplies their removal
    // generations.
    std::sort(removed_log_.begin(), removed_log_.end(),
              [](const RemovalEvent& a, const RemovalEvent& b) {
                return a.row < b.row;
              });
    CQB_CHECK(removed_log_.size() == dropped.rows.size());
    Epoch epoch;
    epoch.gen = generation_;
    epoch.size_before = dropped.size_before;
    epoch.removed_at.reserve(removed_log_.size());
    for (std::size_t k = 0; k < removed_log_.size(); ++k) {
      CQB_CHECK(removed_log_[k].row == dropped.rows[k]);
      epoch.removed_at.push_back(removed_log_[k].gen);
    }
    epoch.rows = std::move(dropped.rows);
    epoch.codes = std::move(dropped.codes);
    removed_log_.clear();
    epochs_.push_back(std::move(epoch));
    ++compactions_;
    // Retention: discard the oldest epochs while the saved rows outnumber
    // the live ones.
    std::size_t saved = 0;
    for (const Epoch& e : epochs_) saved += e.rows.size();
    std::size_t discard = 0;
    while (discard + 1 < epochs_.size() && saved > store_.live_size()) {
      saved -= epochs_[discard].rows.size();
      epoch_floor_ = epochs_[discard].gen;
      ++discard;
    }
    epochs_.erase(epochs_.begin(),
                  epochs_.begin() + static_cast<std::ptrdiff_t>(discard));
    // Codes neither a row nor a retained epoch holds are reclaimed: churn
    // through fresh values does not grow the dictionary without bound.
    std::vector<std::vector<std::uint32_t>*> held;
    for (Epoch& e : epochs_) held.push_back(&e.codes);
    store_.ReclaimCodes(held);
  }
  return true;
}

void Relation::Clear() {
  // No-op only when the store holds no physical rows: a live-empty store
  // with tombstones still drops rows (and their ids) here.
  if (store_.size() == 0) return;
  store_.Clear();
  ++generation_;
  structural_floor_ = generation_;
  removed_log_.clear();
  epochs_.clear();
}

namespace {

/// The id a row had before a compaction that dropped the ascending ids
/// `dropped`, given its id after: `id` plus the dropped ids below it.
/// dropped[i] - i counts the survivors below dropped[i], nondecreasing in
/// i, so those below the row are the ones where it is at most `id`.
std::uint32_t BeforeCompaction(const std::vector<std::uint32_t>& dropped,
                               std::uint32_t id) {
  std::size_t lo = 0;
  std::size_t hi = dropped.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (dropped[mid] - mid <= id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint32_t>(id + lo);
}

}  // namespace

bool Relation::DeltasSince(std::uint64_t gen, DeltaSet* out) const {
  out->appended_rows.clear();
  out->removed_rows.clear();
  out->removed_codes.clear();
  out->compacted_rows.clear();
  if (gen < std::max(structural_floor_, epoch_floor_) || gen > generation_) {
    return false;
  }
  const auto width = static_cast<std::size_t>(arity());
  const auto first = std::upper_bound(
      epochs_.begin(), epochs_.end(), gen,
      [](std::uint64_t g, const Epoch& e) { return g < e.gen; });
  const auto later_log = std::upper_bound(
      removed_log_.begin(), removed_log_.end(), gen,
      [](std::uint64_t g, const RemovalEvent& e) { return g < e.gen; });
  // The snapshot's physical row count, in the id space of the first
  // segment (run of rows between compactions) the window reaches: that
  // segment's end less the rows appended to it since `gen`. Every
  // generation unit is one appended row or one removal.
  std::size_t boundary;
  if (first == epochs_.end()) {
    const auto removals =
        static_cast<std::size_t>(removed_log_.end() - later_log);
    const std::size_t appended = (generation_ - gen) - removals;
    CQB_CHECK(appended <= store_.size());
    boundary = store_.size() - appended;
  } else {
    const auto removals = static_cast<std::size_t>(
        std::count_if(first->removed_at.begin(), first->removed_at.end(),
                      [gen](std::uint64_t g) { return g > gen; }));
    const std::size_t appended = (first->gen - gen) - removals;
    CQB_CHECK(appended <= first->size_before);
    boundary = first->size_before - appended;
  }
  // Maps an id after the epochs [first, e) back to its snapshot id.
  const auto to_snapshot = [first](std::vector<Epoch>::const_iterator e,
                                   std::uint32_t id) {
    while (e != first) {
      --e;
      id = BeforeCompaction(e->rows, id);
    }
    return id;
  };
  // (snapshot id, offset of its codes in `codes`)
  std::vector<std::pair<std::uint32_t, std::size_t>> removed;
  std::vector<std::uint32_t> codes;
  // Rows below the boundary descend from snapshot rows; past it they were
  // appended inside the window and net out when dropped.
  for (auto e = first; e != epochs_.end(); ++e) {
    const auto below = static_cast<std::size_t>(
        std::lower_bound(e->rows.begin(), e->rows.end(), boundary) -
        e->rows.begin());
    for (std::size_t k = 0; k < below; ++k) {
      const std::uint32_t snapshot_id = to_snapshot(e, e->rows[k]);
      out->compacted_rows.push_back(snapshot_id);
      if (e->removed_at[k] <= gen) continue;  // already dead at `gen`
      removed.emplace_back(snapshot_id, codes.size());
      codes.insert(codes.end(), e->codes.begin() + k * width,
                   e->codes.begin() + (k + 1) * width);
    }
    boundary -= below;
  }
  for (auto it = later_log; it != removed_log_.end(); ++it) {
    if (it->row >= boundary) continue;
    removed.emplace_back(to_snapshot(epochs_.end(), it->row), codes.size());
    for (int c = 0; c < arity(); ++c) {
      codes.push_back(store_.CodeAt(it->row, c));
    }
  }
  for (std::size_t row = boundary; row < store_.size(); ++row) {
    if (store_.IsLive(row)) {
      out->appended_rows.push_back(static_cast<std::uint32_t>(row));
    }
  }
  if (!std::is_sorted(out->compacted_rows.begin(),
                      out->compacted_rows.end())) {
    std::sort(out->compacted_rows.begin(), out->compacted_rows.end());
  }
  std::sort(removed.begin(), removed.end());
  out->removed_rows.reserve(removed.size());
  out->removed_codes.reserve(removed.size() * width);
  for (const auto& [snapshot_id, offset] : removed) {
    out->removed_rows.push_back(snapshot_id);
    out->removed_codes.insert(out->removed_codes.end(),
                              codes.begin() + offset,
                              codes.begin() + offset + width);
  }
  return true;
}

RowView Relation::DeltaSet::Appended(const ColumnStore& store) const {
  RowView view(&store);
  view.rows = appended_rows;
  return view;
}

RowView Relation::DeltaSet::Removed(const ColumnStore& store) const {
  RowView view(&store);
  view.ghosts = &removed_codes;
  view.rows.resize(removed_rows.size());
  for (std::size_t k = 0; k < removed_rows.size(); ++k) {
    view.rows[k] = static_cast<std::uint32_t>(store.size() + k);
  }
  return view;
}

std::vector<Tuple> Relation::tuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  Tuple t;
  for (std::size_t row = 0; row < store_.size(); ++row) {
    if (!store_.IsLive(row)) continue;
    store_.CopyRow(row, &t);
    out.push_back(t);
  }
  return out;
}

Relation Relation::Project(const std::vector<int>& positions,
                           const std::string& result_name) const {
  for (int pos : positions) CQB_CHECK(pos >= 0 && pos < arity());
  Relation out(result_name, static_cast<int>(positions.size()));
  std::vector<Value> flat;
  flat.reserve(size() * positions.size());
  std::size_t live_rows = 0;
  for (std::size_t row = 0; row < store_.size(); ++row) {
    if (!store_.IsLive(row)) continue;
    for (int pos : positions) flat.push_back(store_.ValueAt(row, pos));
    ++live_rows;
  }
  out.InsertFlat(flat, live_rows);
  return out;
}

std::vector<Value> Relation::ColumnValues(int pos) const {
  CQB_CHECK(pos >= 0 && pos < arity());
  return store_.DistinctValues(pos, pos + 1);
}

std::vector<Value> Relation::ActiveDomain() const {
  return store_.DistinctValues(0, arity());
}

bool Relation::SatisfiesFd(const std::vector<int>& lhs, int rhs) const {
  for (int pos : lhs) CQB_CHECK(pos >= 0 && pos < arity());
  CQB_CHECK(rhs >= 0 && rhs < arity());
  std::map<Tuple, Value> seen;
  Tuple key(lhs.size());
  for (std::size_t row = 0; row < store_.size(); ++row) {
    if (!store_.IsLive(row)) continue;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      key[i] = store_.ValueAt(row, lhs[i]);
    }
    const Value dependent = store_.ValueAt(row, rhs);
    auto [it, inserted] = seen.emplace(key, dependent);
    if (!inserted && it->second != dependent) return false;
  }
  return true;
}

}  // namespace cqbounds
