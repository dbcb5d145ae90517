#include "relation/column_store.h"

#include <algorithm>
#include <utility>

namespace cqbounds {

namespace {

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

std::uint32_t ValueDictionary::Intern(Value v) {
  const std::uint32_t code = index_.Intern(
      values_.size(), FibonacciHash(static_cast<std::uint64_t>(v)),
      [this, v](std::uint32_t c) { return values_[c] == v; },
      [this](std::size_t c) {
        return FibonacciHash(static_cast<std::uint64_t>(values_[c]));
      });
  if (code == values_.size()) values_.push_back(v);
  return code;
}

void ValueDictionary::Assign(std::vector<Value> values) {
  values_ = std::move(values);
  index_.Rebuild(
      values_.size(), values_.size(),
      [this](std::size_t c) {
        return FibonacciHash(static_cast<std::uint64_t>(values_[c]));
      },
      [](std::size_t) { return true; });
}

void ValueDictionary::AppendNew(const std::vector<Value>& values) {
  const std::size_t first = values_.size();
  values_.insert(values_.end(), values.begin(), values.end());
  const auto hash = [this](std::size_t c) {
    return FibonacciHash(static_cast<std::uint64_t>(values_[c]));
  };
  index_.Reserve(values_.size(), first, hash, [](std::size_t) { return true; });
  // The values are new, so each goes to the first free slot of its probe.
  for (std::size_t c = first; c < values_.size(); ++c) {
    index_.Set(index_.Probe(hash(c), [](std::uint32_t) { return false; }), c);
  }
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

std::size_t ColumnStore::HashCodes(const std::uint32_t* codes) const {
  // FNV-1a over the code words. Codes are dense and per-store, so hashing
  // codes is equivalent to hashing the decoded values.
  std::uint64_t h = 1469598103934665603ull;
  for (int c = 0; c < arity_; ++c) {
    h ^= codes[c];
    h *= 1099511628211ull;
  }
  return h;
}

bool ColumnStore::CodesOf(const Tuple& t, std::uint32_t* codes) const {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  for (int c = 0; c < arity_; ++c) {
    codes[c] = dict_.CodeOf(t[static_cast<std::size_t>(c)]);
    if (codes[c] == ValueDictionary::kNoCode) return false;
  }
  return true;
}

std::size_t ColumnStore::SlotOf(const std::uint32_t* codes) const {
  return index_.Probe(HashCodes(codes), [this, codes](std::uint32_t row) {
    for (int c = 0; c < arity_; ++c) {
      if (CodeAt(row, c) != codes[c]) return false;
    }
    return true;
  });
}

void ColumnStore::ReserveRows(std::size_t rows) {
  index_.Reserve(
      rows, rows_,
      [this](std::size_t row) {
        // HashCodes over the row's codes, read down the columns.
        std::size_t h = 1469598103934665603ull;
        for (const std::vector<std::uint32_t>& col : columns_) {
          h ^= col[row];
          h *= 1099511628211ull;
        }
        return h;
      },
      [this](std::size_t row) { return IsLive(row); });
}

bool ColumnStore::Append(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  for (int c = 0; c < arity_; ++c) {
    scratch_[static_cast<std::size_t>(c)] =
        dict_.Intern(t[static_cast<std::size_t>(c)]);
  }
  ReserveRows(rows_ + 1);
  const std::size_t slot = SlotOf(scratch_.data());
  if (index_[slot] != FlatIndex::kNone && IsLive(index_[slot])) return false;
  // Re-appending a tombstoned tuple mints a NEW physical row (ids never
  // resurrect, so journaled removals stay valid) and re-points the dead
  // row's slot at it, keeping one indexed slot per code-set.
  index_.Set(slot, rows_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(scratch_[c]);
  }
  if (!dead_.empty()) dead_.push_back(false);
  ++rows_;
  return true;
}

bool ColumnStore::Contains(const Tuple& t) const {
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(arity_));
  if (!CodesOf(t, codes.data()) || rows_ == 0) return false;
  const std::uint32_t row = index_[SlotOf(codes.data())];
  return row != FlatIndex::kNone && IsLive(row);
}

template <typename NextRow>
std::size_t ColumnStore::AppendBulk(std::size_t incoming, NextRow&& next_row) {
  ReserveRows(rows_ + incoming);
  const auto width = static_cast<std::size_t>(arity_);
  // Room for every incoming row up front; the columns are trimmed to the
  // rows actually added at the end.
  std::vector<std::uint32_t*> cols(width);
  for (std::size_t c = 0; c < width; ++c) {
    columns_[c].resize(rows_ + incoming);
    cols[c] = columns_[c].data();
  }
  std::uint32_t* const codes = scratch_.data();
  const auto matches = [&cols, width, codes](std::uint32_t row) {
    std::size_t c = 0;
    while (c < width && cols[c][row] == codes[c]) ++c;
    return c == width;
  };
  // Rows added by this call are live; only earlier rows can be tombstoned.
  const std::size_t dead_rows = dead_.size();
  std::size_t rows = rows_;
  for (std::size_t r = 0; r < incoming; ++r) {
    next_row(codes);
    const std::size_t slot = index_.Probe(HashCodes(codes), matches);
    const std::uint32_t row = index_[slot];
    // A repeat keeps its first occurrence. An equal tombstoned row gets a
    // NEW physical row (ids never resurrect, so journaled removals stay
    // valid) and its slot is re-pointed at it, keeping one indexed slot per
    // code-set.
    if (row != FlatIndex::kNone && (row >= dead_rows || !dead_[row])) {
      continue;
    }
    index_.Set(slot, rows);
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

std::size_t ColumnStore::AppendDense(const std::vector<std::uint32_t>& ids,
                                     std::size_t num_rows, std::size_t bound) {
  const auto width = static_cast<std::size_t>(arity_);
  CQB_CHECK(ids.size() == num_rows * width);
  // Id -> code, seeded with the values the dictionary holds, so a miss is a
  // value new to the store: it takes the next code, as Intern would mint it.
  std::vector<std::uint32_t> code_of(bound, ValueDictionary::kNoCode);
  for (std::uint32_t code = 0; code < dict_.size(); ++code) {
    const Value v = dict_.ValueOf(code);
    if (v >= 0 && static_cast<std::size_t>(v) < bound) {
      code_of[static_cast<std::size_t>(v)] = code;
    }
  }
  const std::size_t first = dict_.size();
  std::vector<Value> fresh;
  const std::uint32_t* id = ids.data();
  const std::size_t added = AppendBulk(num_rows, [&](std::uint32_t* codes) {
    for (std::size_t c = 0; c < width; ++c, ++id) {
      CQB_CHECK(*id < bound);
      std::uint32_t& code = code_of[*id];
      if (code == ValueDictionary::kNoCode) {
        CQB_CHECK(first + fresh.size() < ValueDictionary::kNoCode);
        code = static_cast<std::uint32_t>(first + fresh.size());
        fresh.push_back(*id);
      }
      codes[c] = code;
    }
  });
  dict_.AppendNew(fresh);
  return added;
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
  if (!CodesOf(t, scratch_.data()) || live_size() == 0) {
    return EraseResult::kNotFound;
  }
  const std::uint32_t row = index_[SlotOf(scratch_.data())];
  if (row == FlatIndex::kNone || !IsLive(row)) return EraseResult::kNotFound;
  // Tombstone: columns and index untouched, every live row id stable. The
  // slot keeps pointing at the dead row so a re-append of the same tuple
  // can re-point it in place.
  if (dead_.empty()) dead_.assign(rows_, false);
  dead_[row] = true;
  ++dead_count_;
  if (removed_row != nullptr) *removed_row = row;
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
  // A fresh index, sized to the rows left.
  index_ = FlatIndex();
  ReserveRows(rows_);
}

void ColumnStore::Clear() {
  for (auto& col : columns_) col.clear();
  rows_ = 0;
  dead_.clear();
  dead_count_ = 0;
  index_ = FlatIndex();
}

bool ColumnStore::ReclaimCodes(
    const std::vector<std::vector<std::uint32_t>*>& held) {
  // Old code -> new code, minted on first sight; kNoCode marks unused.
  std::vector<std::uint32_t> remap(dict_.size(), ValueDictionary::kNoCode);
  std::vector<Value> values;
  auto mint = [&](std::uint32_t code) {
    if (remap[code] == ValueDictionary::kNoCode) {
      remap[code] = static_cast<std::uint32_t>(values.size());
      values.push_back(dict_.ValueOf(code));
    }
  };
  for (std::size_t row = 0; row < rows_; ++row) {
    for (const std::vector<std::uint32_t>& col : columns_) mint(col[row]);
  }
  for (const std::vector<std::uint32_t>* codes : held) {
    for (std::uint32_t code : *codes) mint(code);
  }
  if (values.size() * 4 >= dict_.size() * 3) return false;
  for (std::vector<std::uint32_t>& col : columns_) {
    for (std::uint32_t& code : col) code = remap[code];
  }
  for (std::vector<std::uint32_t>* codes : held) {
    for (std::uint32_t& code : *codes) code = remap[code];
  }
  // One table sized for the codes kept: re-interning them one by one would
  // grow it through every doubling, and raised the peak RSS.
  dict_.Assign(std::move(values));
  // Rows hash by their codes: a fresh index, as after a compaction.
  index_ = FlatIndex();
  ReserveRows(rows_);
  return true;
}

std::vector<Value> ColumnStore::DistinctValues(int first, int last) const {
  CQB_CHECK(0 <= first && first <= last && last <= arity_);
  std::vector<bool> seen(dict_.size(), false);
  std::vector<Value> values;
  for (int col = first; col < last; ++col) {
    for (std::size_t row = 0; row < rows_; ++row) {
      const std::uint32_t code = CodeAt(row, col);
      if (!IsLive(row) || seen[code]) continue;
      seen[code] = true;
      values.push_back(dict_.ValueOf(code));
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

ColumnStats ColumnStore::Stats(int col) const {
  CQB_CHECK(col >= 0 && col < arity_);
  const std::vector<Value> values = DistinctValues(col, col + 1);
  if (values.empty()) return ColumnStats{};
  return ColumnStats{values.front(), values.back(), values.size()};
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
