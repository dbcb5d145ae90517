#include "relation/column_store.h"

#include <algorithm>

namespace cqbounds {

namespace {

std::size_t HashValue(Value v) {
  // Fibonacci multiply, then fold the well-mixed high half into the low
  // bits the slot mask keeps: dense or strided ids spread evenly.
  const std::uint64_t h =
      static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

/// Lazy code translation from a foreign dictionary into `into`: a source
/// code is interned on first use, so codes are minted in exactly the order
/// a row-wise decode-and-intern pass would mint them, and each distinct
/// source code costs one intern however many rows carry it.
class CodeRemap {
 public:
  CodeRemap(const ValueDictionary& from, ValueDictionary* into)
      : from_(&from),
        into_(into),
        map_(from.size(), ValueDictionary::kNoCode) {}

  std::uint32_t operator()(std::uint32_t code) {
    std::uint32_t& mapped = map_[code];
    if (mapped == ValueDictionary::kNoCode) {
      mapped = into_->Intern(from_->ValueOf(code));
    }
    return mapped;
  }

 private:
  const ValueDictionary* from_;
  ValueDictionary* into_;
  std::vector<std::uint32_t> map_;
};

}  // namespace

std::size_t ValueDictionary::ProbeSlot(Value v) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = HashValue(v) & mask;
  while (slots_[slot] != kNoCode && values_[slots_[slot]] != v) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ValueDictionary::Grow() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, kNoCode);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t code = 0; code < values_.size(); ++code) {
    // Values are distinct: probe straight to the first free slot.
    std::size_t slot = HashValue(values_[code]) & mask;
    while (slots_[slot] != kNoCode) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(code);
  }
}

std::uint32_t ValueDictionary::Intern(Value v) {
  // Keep the load factor under 1/2 counting the value about to land.
  if ((values_.size() + 1) * 2 > slots_.size()) Grow();
  const std::size_t slot = ProbeSlot(v);
  if (slots_[slot] != kNoCode) return slots_[slot];
  CQB_CHECK(values_.size() < kNoCode);
  const auto code = static_cast<std::uint32_t>(values_.size());
  slots_[slot] = code;
  values_.push_back(v);
  return code;
}

ColumnStore::ColumnStore(int arity) : arity_(arity) {
  CQB_CHECK(arity >= 0);
  columns_.resize(static_cast<std::size_t>(arity));
  scratch_.resize(static_cast<std::size_t>(arity));
}

void ColumnStore::CopyRow(std::size_t row, Tuple* out) const {
  out->resize(static_cast<std::size_t>(arity_));
  for (int c = 0; c < arity_; ++c) (*out)[static_cast<std::size_t>(c)] = ValueAt(row, c);
}

Tuple ColumnStore::Row(std::size_t row) const {
  Tuple t;
  CopyRow(row, &t);
  return t;
}

std::uint64_t ColumnStore::HashCodes(const std::uint32_t* codes) const {
  // FNV-1a over the code words. Codes are dense and per-store, so hashing
  // codes is equivalent to hashing the decoded values.
  std::uint64_t h = 1469598103934665603ull;
  for (int c = 0; c < arity_; ++c) {
    h ^= codes[c];
    h *= 1099511628211ull;
  }
  return h;
}

bool ColumnStore::RowEqualsCodes(std::size_t row,
                                 const std::uint32_t* codes) const {
  for (int c = 0; c < arity_; ++c) {
    if (columns_[static_cast<std::size_t>(c)][row] != codes[c]) return false;
  }
  return true;
}

std::size_t ColumnStore::ProbeSlot(const std::uint32_t* codes) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(HashCodes(codes)) & mask;
  while (slots_[slot] != kEmptySlot &&
         !RowEqualsCodes(slots_[slot], codes)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ColumnStore::EnsureSlotCapacity(std::size_t upcoming_rows) {
  // Keep load factor under 1/2; power-of-two table for mask probing. The
  // early return keeps the per-row call in AppendCodedRow a compare.
  if (!slots_.empty() && upcoming_rows * 2 <= slots_.size()) return;
  std::size_t want = 16;
  while (want < upcoming_rows * 2) want <<= 1;
  if (want <= slots_.size()) return;
  ReindexInto(want);
}

void ColumnStore::RehashAll() {
  std::size_t want = 16;
  while (want < rows_ * 2) want <<= 1;
  ReindexInto(want);
}

void ColumnStore::ReindexInto(std::size_t capacity) {
  slots_.assign(capacity, kEmptySlot);
  const std::size_t mask = slots_.size() - 1;
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(arity_));
  for (std::size_t row = 0; row < rows_; ++row) {
    // Tombstoned rows are unindexed: a rehash would otherwise leave two
    // slots matching one code-set, and a later probe could stop at the
    // dead one and report a live tuple absent.
    if (!IsLive(row)) continue;
    for (int c = 0; c < arity_; ++c) {
      codes[static_cast<std::size_t>(c)] = CodeAt(row, c);
    }
    // Live rows are already distinct: probe straight to the first free
    // slot.
    std::size_t slot = static_cast<std::size_t>(HashCodes(codes.data())) & mask;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(row);
  }
}

bool ColumnStore::AppendCodedRow(const std::uint32_t* codes) {
  EnsureSlotCapacity(rows_ + 1);
  const std::size_t slot = ProbeSlot(codes);
  const bool over_dead =
      slots_[slot] != kEmptySlot && !IsLive(slots_[slot]);
  if (slots_[slot] != kEmptySlot && !over_dead) return false;
  CQB_CHECK(rows_ < kEmptySlot);
  // Re-appending a tombstoned tuple mints a NEW physical row (ids never
  // resurrect, so journaled removals stay valid) and re-points the dead
  // row's slot at it, keeping one indexed slot per code-set.
  slots_[slot] = static_cast<std::uint32_t>(rows_);
  for (int c = 0; c < arity_; ++c) {
    columns_[static_cast<std::size_t>(c)].push_back(codes[c]);
  }
  if (!dead_.empty()) dead_.push_back(false);
  ++rows_;
  return true;
}

bool ColumnStore::Contains(const Tuple& t) const {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  if (rows_ == 0) return false;
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(arity_));
  for (int c = 0; c < arity_; ++c) {
    const std::uint32_t code = dict_.CodeOf(t[static_cast<std::size_t>(c)]);
    if (code == ValueDictionary::kNoCode) return false;
    codes[static_cast<std::size_t>(c)] = code;
  }
  const std::size_t slot = ProbeSlot(codes.data());
  return slots_[slot] != kEmptySlot && IsLive(slots_[slot]);
}

bool ColumnStore::Append(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  for (int c = 0; c < arity_; ++c) {
    scratch_[static_cast<std::size_t>(c)] =
        dict_.Intern(t[static_cast<std::size_t>(c)]);
  }
  return AppendCodedRow(scratch_.data());
}

template <typename NextRow>
std::size_t ColumnStore::AppendBulk(std::size_t incoming, NextRow&& next_row) {
  EnsureSlotCapacity(rows_ + incoming);
  const auto width = static_cast<std::size_t>(arity_);
  // Room for every incoming row up front; the columns are trimmed to the
  // rows actually added at the end.
  std::vector<std::uint32_t*> cols(width);
  for (std::size_t c = 0; c < width; ++c) {
    columns_[c].resize(rows_ + incoming);
    cols[c] = columns_[c].data();
  }
  std::uint32_t* const codes = scratch_.data();
  std::uint32_t* const slots = slots_.data();
  const std::size_t mask = slots_.size() - 1;
  // Rows added by this call are live; only earlier rows can be tombstoned.
  const std::size_t dead_rows = dead_.size();
  std::size_t rows = rows_;
  for (std::size_t r = 0; r < incoming; ++r) {
    next_row(codes);
    std::size_t slot = static_cast<std::size_t>(HashCodes(codes)) & mask;
    bool present = false;
    for (; slots[slot] != kEmptySlot; slot = (slot + 1) & mask) {
      const std::size_t row = slots[slot];
      std::size_t c = 0;
      while (c < width && cols[c][row] == codes[c]) ++c;
      if (c == width) {
        present = row >= dead_rows || !dead_[row];
        break;
      }
    }
    // A repeat keeps its first occurrence. An equal tombstoned row gets a
    // NEW physical row (ids never resurrect, so journaled removals stay
    // valid) and its slot is re-pointed at it, keeping one indexed slot per
    // code-set.
    if (present) continue;
    CQB_CHECK(rows < kEmptySlot);
    slots[slot] = static_cast<std::uint32_t>(rows);
    for (std::size_t c = 0; c < width; ++c) cols[c][rows] = codes[c];
    ++rows;
  }
  for (auto& col : columns_) col.resize(rows);
  if (!dead_.empty()) dead_.resize(rows, false);
  const std::size_t added = rows - rows_;
  rows_ = rows;
  return added;
}

std::size_t ColumnStore::AppendBatch(const std::vector<Tuple>& batch) {
  const Tuple* t = batch.data();
  return AppendBulk(batch.size(), [this, &t](std::uint32_t* codes) {
    CQB_CHECK(static_cast<int>(t->size()) == arity_);
    for (int c = 0; c < arity_; ++c) {
      codes[c] = dict_.Intern((*t)[static_cast<std::size_t>(c)]);
    }
    ++t;
  });
}

std::size_t ColumnStore::AppendFlat(const std::vector<Value>& flat,
                                    std::size_t num_rows) {
  const auto width = static_cast<std::size_t>(arity_);
  CQB_CHECK(flat.size() == num_rows * width);
  const Value* values = flat.data();
  return AppendBulk(num_rows, [this, width, &values](std::uint32_t* codes) {
    for (std::size_t c = 0; c < width; ++c) codes[c] = dict_.Intern(values[c]);
    values += width;
  });
}

std::size_t ColumnStore::AppendCoded(const std::vector<CodedRows>& sources,
                                     const std::vector<CodedSlice>& slices) {
  const auto width = static_cast<std::size_t>(arity_);
  for (const CodedRows& src : sources) {
    CQB_CHECK(src.codes.size() == src.num_rows * width);
  }
  std::size_t incoming = 0;
  for (const CodedSlice& s : slices) {
    CQB_CHECK(s.source < sources.size() && s.begin <= s.end &&
              s.end <= sources[s.source].num_rows);
    incoming += s.end - s.begin;
  }
  std::vector<CodeRemap> remaps;
  remaps.reserve(sources.size());
  for (const CodedRows& src : sources) remaps.emplace_back(src.dict, &dict_);
  // Walks the slices in order, one row per call.
  const CodedSlice* slice = slices.data();
  const std::uint32_t* src = nullptr;
  std::size_t left = 0;
  CodeRemap* remap = nullptr;
  return AppendBulk(incoming, [&](std::uint32_t* codes) {
    for (; left == 0; ++slice) {
      src = sources[slice->source].codes.data() + slice->begin * width;
      left = slice->end - slice->begin;
      remap = &remaps[slice->source];
    }
    for (std::size_t c = 0; c < width; ++c) codes[c] = (*remap)(src[c]);
    src += width;
    --left;
  });
}

ColumnStore::EraseResult ColumnStore::Erase(const Tuple& t,
                                            std::uint32_t* removed_row,
                                            CompactionRecord* compaction) {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  if (live_size() == 0) return EraseResult::kNotFound;
  for (int c = 0; c < arity_; ++c) {
    const std::uint32_t code = dict_.CodeOf(t[static_cast<std::size_t>(c)]);
    if (code == ValueDictionary::kNoCode) return EraseResult::kNotFound;
    scratch_[static_cast<std::size_t>(c)] = code;
  }
  const std::size_t slot = ProbeSlot(scratch_.data());
  if (slots_[slot] == kEmptySlot || !IsLive(slots_[slot])) {
    return EraseResult::kNotFound;
  }
  const std::size_t row = slots_[slot];
  // Tombstone: columns and index untouched, every live row id stable. The
  // slot keeps pointing at the dead row so a re-append of the same tuple
  // can re-point it in place.
  if (dead_.empty()) dead_.assign(rows_, false);
  dead_[row] = true;
  ++dead_count_;
  if (removed_row != nullptr) *removed_row = static_cast<std::uint32_t>(row);
  // Deferred compaction: once more than a quarter of the physical rows are
  // dead, the O(size * arity) rewrite amortizes against the removals that
  // earned it.
  if (dead_count_ * 4 > rows_) {
    Compact(compaction);
    return EraseResult::kCompacted;
  }
  return EraseResult::kTombstoned;
}

void ColumnStore::Compact(CompactionRecord* record) {
  if (record != nullptr) {
    // Sized exactly: the record outlives the call as a journal epoch.
    record->size_before = rows_;
    record->rows.clear();
    record->rows.reserve(dead_count_);
    record->codes.clear();
    record->codes.reserve(dead_count_ * static_cast<std::size_t>(arity_));
  }
  std::size_t write = 0;
  for (std::size_t row = 0; row < rows_; ++row) {
    if (!IsLive(row)) {
      // Every write so far landed below `row`: its codes are still intact.
      if (record != nullptr) {
        record->rows.push_back(static_cast<std::uint32_t>(row));
        for (int c = 0; c < arity_; ++c) {
          record->codes.push_back(CodeAt(row, c));
        }
      }
      continue;
    }
    if (write != row) {
      for (int c = 0; c < arity_; ++c) {
        std::vector<std::uint32_t>& col =
            columns_[static_cast<std::size_t>(c)];
        col[write] = col[row];
      }
    }
    ++write;
  }
  for (auto& col : columns_) col.resize(write);
  rows_ = write;
  dead_.clear();
  dead_count_ = 0;
  RehashAll();
}

void ColumnStore::Clear() {
  for (auto& col : columns_) col.clear();
  rows_ = 0;
  dead_.clear();
  dead_count_ = 0;
  slots_.clear();
}

ColumnStats ColumnStore::Stats(int col) const {
  CQB_CHECK(col >= 0 && col < arity_);
  ColumnStats stats;
  if (live_size() == 0) return stats;
  const std::vector<std::uint32_t>& codes =
      columns_[static_cast<std::size_t>(col)];
  std::vector<bool> seen(dict_.size(), false);
  bool seeded = false;
  for (std::size_t row = 0; row < rows_; ++row) {
    if (!IsLive(row)) continue;
    const std::uint32_t code = codes[row];
    if (seen[code]) continue;
    seen[code] = true;
    ++stats.distinct;
    const Value v = dict_.ValueOf(code);
    if (!seeded) {
      stats.min = stats.max = v;
      seeded = true;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
  }
  return stats;
}

RowView RowView::Tail(const ColumnStore& store, std::size_t first,
                      std::size_t count) {
  CQB_CHECK(first + count <= store.size());
  RowView view(&store);
  view.rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    view.rows.push_back(static_cast<std::uint32_t>(first + i));
  }
  return view;
}

}  // namespace cqbounds
