#ifndef CQBOUNDS_RELATION_COLUMN_STORE_H_
#define CQBOUNDS_RELATION_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/flat_index.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace cqbounds {

/// Per-column summary over the live rows: value bounds and distinct count.
/// Computed on demand (one column scan, one sort of its distinct values);
/// undefined fields are zero when the store is empty.
struct ColumnStats {
  Value min = 0;
  Value max = 0;
  std::size_t distinct = 0;
};

/// Per-store dictionary mapping arbitrary 64-bit Values to dense uint32_t
/// codes in first-seen order. One dictionary is shared by all columns of a
/// ColumnStore so that intra-tuple equality (repeated query variables such
/// as R(X,X)) reduces to code equality across columns.
///
/// Storage is flat: the values in code order, found through a FlatIndex
/// (relation/flat_index.h) hashed by FibonacciHash, so an intern hit
/// allocates nothing.
class ValueDictionary {
 public:
  /// Sentinel returned by CodeOf for values never interned. Doubles as the
  /// hard capacity limit (FlatIndex's id cap): a store holds fewer than
  /// 2^32 - 1 distinct values.
  static constexpr std::uint32_t kNoCode = FlatIndex::kNone;

  /// Code for `v`, minting the next dense code on first sight.
  std::uint32_t Intern(Value v);

  /// Code for `v`, or kNoCode if `v` was never interned.
  std::uint32_t CodeOf(Value v) const {
    return index_.Find(FibonacciHash(static_cast<std::uint64_t>(v)),
                       [this, v](std::uint32_t code) {
                         return values_[code] == v;
                       });
  }

  Value ValueOf(std::uint32_t code) const { return values_[code]; }
  std::size_t size() const { return values_.size(); }

  /// Replaces the contents with `values` (distinct): value i gets code i.
  void Assign(std::vector<Value> values);

  /// Appends `values` -- distinct, none yet interned -- as the next codes,
  /// in order, indexing them in one pass.
  void AppendNew(const std::vector<Value>& values);

 private:
  std::vector<Value> values_;
  FlatIndex index_;
};

/// Rows coded in a dictionary of their own: the flat buffer a producer
/// (a search worker) fills without touching any store -- no Tuple, no row
/// index -- and hands to ColumnStore::AppendCoded. `codes` holds
/// `num_rows` rows of the target store's arity, row-major, every code
/// minted by `dict`. `num_rows` is kept apart so nullary rows count.
struct CodedRows {
  ValueDictionary dict;
  std::vector<std::uint32_t> codes;
  std::size_t num_rows = 0;
};

/// Rows [begin, end) of `sources[source]`: one run of an AppendCoded merge.
struct CodedSlice {
  std::size_t source = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Dictionary-encoded columnar tuple storage with set semantics: `arity`
/// contiguous uint32_t code columns plus a FlatIndex over row ids (no
/// per-row heap nodes, no shadow tuple copies). Row order is
/// first-insertion order; appends only ever extend the columns, so row ids
/// are stable across appends and a row-id suffix is a well-defined delta.
///
/// Removal is a *tombstone*: Erase marks the row dead in a lazily-allocated
/// bitmap and leaves the columns, the row index, and every live row id
/// untouched, so a point deletion is O(arity) and delta consumers can name
/// it by row id. Dead rows keep their codes readable (CodeAt/ValueAt still
/// work) until the store *compacts* -- a deferred structural pass triggered
/// when more than a quarter of the physical rows are dead -- which copies
/// the live rows down in order and rebuilds the index. The copy-down is
/// stable and keeps every code, so the old -> new row map is monotone (new
/// id = old id - dead rows below it) and drops exactly the dead rows;
/// Erase hands their ids and code tuples to the caller (CompactionRecord),
/// which is what lets Relation journal the compaction instead of treating
/// it as a break. size() stays the PHYSICAL row count (columns, row-id
/// ranges); live_size()/empty() are the logical set. A tombstoned tuple
/// re-appended later gets a NEW physical row id (ids never resurrect), and
/// the row index always points at the newest row for a code-set.
///
/// Appends land at the end: a reader holding a row-count watermark finds
/// everything appended since as the suffix [watermark, size()).
///
/// Same concurrency contract as Relation (externally synchronized:
/// readers-xor-writer, owned by EvalContext's documented discipline). All
/// const methods are pure reads -- there is no lazily-mutated cache state --
/// so any number of concurrent readers are safe between mutations.
class ColumnStore {
 public:
  /// What Erase did. kTombstoned leaves row ids stable; kCompacted means
  /// the deferred compaction ran -- row ids shifted down over the dropped
  /// dead rows.
  enum class EraseResult { kNotFound, kTombstoned, kCompacted };

  /// What one compaction dropped, read before the copy-down: the physical
  /// row count before it, the dead rows' ids in that id space (ascending),
  /// and their code tuples (arity() codes per row, same order).
  struct CompactionRecord {
    std::size_t size_before = 0;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint32_t> codes;
  };

  explicit ColumnStore(int arity);

  int arity() const { return arity_; }
  /// PHYSICAL row count: live + tombstoned. Column sizes and valid row-id
  /// ranges are [0, size()); logical cardinality is live_size().
  std::size_t size() const { return rows_; }
  std::size_t live_size() const { return rows_ - dead_count_; }
  std::size_t dead_count() const { return dead_count_; }
  bool empty() const { return live_size() == 0; }

  /// True iff `row` has not been tombstoned. Dead rows' codes stay readable
  /// until compaction, but they are not part of the logical set.
  bool IsLive(std::size_t row) const {
    return dead_.empty() || !dead_[row];
  }

  /// The code column for position `col` (size() entries, contiguous).
  const std::vector<std::uint32_t>& column(int col) const {
    CQB_CHECK(col >= 0 && col < arity_);
    return columns_[static_cast<std::size_t>(col)];
  }

  std::uint32_t CodeAt(std::size_t row, int col) const {
    return columns_[static_cast<std::size_t>(col)][row];
  }

  Value ValueAt(std::size_t row, int col) const {
    return dict_.ValueOf(CodeAt(row, col));
  }

  /// Decodes row `row` into `*out` (resized to arity()).
  void CopyRow(std::size_t row, Tuple* out) const;
  Tuple Row(std::size_t row) const;

  bool Contains(const Tuple& t) const;

  /// Appends `t` unless already present; returns true iff a row was added.
  bool Append(const Tuple& t);

  /// Bulk appends with one dedup pass (each candidate is a single probe of
  /// the row index -- no per-tuple node allocation). Returns the number of
  /// rows actually added.
  std::size_t AppendBatch(const std::vector<Tuple>& batch);

  /// As AppendBatch over row-major flat values: `flat` holds
  /// `num_rows * arity()` values (empty for nullary stores).
  std::size_t AppendFlat(const std::vector<Value>& flat, std::size_t num_rows);

  /// As AppendFlat over values that are dense ids below `bound`, such as a
  /// ValuePool's: `ids` holds `num_rows * arity()` of them. An id -> code
  /// table replaces the dictionary probe: each distinct id costs one table
  /// miss and a repeat one array load, the codes minted are exactly those
  /// AppendFlat would mint, and the new values are indexed once, at the
  /// end. Returns the number of rows added.
  std::size_t AppendDense(const std::vector<std::uint32_t>& ids,
                          std::size_t num_rows, std::size_t bound);

  /// The bulk door for rows coded in foreign dictionaries: appends the rows
  /// of `slices`, slice after slice. Source codes are remapped lazily --
  /// each interned into this store's dictionary on first use -- so the
  /// codes minted are exactly those a row-wise Append of the decoded rows
  /// would mint. Every row is probed against the row index once and
  /// skipped when already present, so repeats -- within the slices or
  /// against the store -- keep their first occurrence: producers need not
  /// dedup. Returns the number of rows added.
  std::size_t AppendCoded(const std::vector<CodedRows>& sources,
                          const std::vector<CodedSlice>& slices);

  /// Removes `t` if present. The common case is a tombstone: O(arity), row
  /// ids stable, the open-addressing index untouched. When the tombstone
  /// pushes the dead fraction past the compaction threshold (dead rows >
  /// 1/4 of physical rows) the store compacts as well -- O(size * arity),
  /// row ids shift -- and reports kCompacted, filling
  /// `*compaction` (when non-null) so the journal above can record what
  /// was dropped. `*removed_row` (when non-null) receives the removed
  /// row's id, before any compaction.
  EraseResult Erase(const Tuple& t, std::uint32_t* removed_row = nullptr,
                    CompactionRecord* compaction = nullptr);

  /// Drops all rows, live and dead (structural). The dictionary survives
  /// until ReclaimCodes.
  void Clear();

  /// Re-mints the dictionary over the codes in use -- the columns' (dead
  /// rows included) and those of `held`, code tuples the caller keeps
  /// outside the store (Relation's compaction journal) -- once more than a
  /// quarter of its codes are unused, so a store whose values churn keeps
  /// a dictionary the size of what it holds, not of every value it ever
  /// saw. New codes follow first-seen order (the rows in order, then
  /// `held`); the columns and `held` are rewritten and the row index is
  /// rebuilt. Returns whether it re-minted.
  bool ReclaimCodes(const std::vector<std::vector<std::uint32_t>*>& held);

  const ValueDictionary& dict() const { return dict_; }

  /// The distinct values of the LIVE rows in columns [first, last), sorted:
  /// a dictionary-sized seen bitmap over the codes, then one sort. Pure
  /// read.
  std::vector<Value> DistinctValues(int first, int last) const;

  /// min/max/distinct over the LIVE rows of column `col`. Pure read.
  ColumnStats Stats(int col) const;

 private:
  /// FNV-1a over a row's code words.
  std::size_t HashCodes(const std::uint32_t* codes) const;
  /// Codes `t` (arity() values) into `codes` without interning; false when
  /// a value was never interned, so no row can hold `t`.
  bool CodesOf(const Tuple& t, std::uint32_t* codes) const;
  /// Index slot holding the row equal to `codes` (live or tombstoned), or
  /// the free slot where it would go. Requires a table (rows ever added).
  std::size_t SlotOf(const std::uint32_t* codes) const;
  /// Grows the row index so `rows` physical rows fit; a growth indexes the
  /// live rows only (a dead row left indexed would shadow a re-appended
  /// copy of its tuple).
  void ReserveRows(std::size_t rows);
  /// Deferred structural pass: copies the live rows down in order, drops
  /// the tombstone bitmap, rebuilds the index. Row ids shift. Records the
  /// dropped rows in `*record` when non-null.
  void Compact(CompactionRecord* record);
  /// The one bulk loop behind AppendBatch, AppendFlat, AppendDense and
  /// AppendCoded:
  /// appends `incoming` rows, each coded into the scratch buffer by one call
  /// of `next_row(codes)` (in row order, so codes are minted as a row-wise
  /// Append would mint them), with Append's semantics per row. The columns
  /// are sized once and trimmed at the end. Returns the rows added.
  template <typename NextRow>
  std::size_t AppendBulk(std::size_t incoming, NextRow&& next_row);

  int arity_;
  ValueDictionary dict_;
  std::vector<std::vector<std::uint32_t>> columns_;
  std::size_t rows_ = 0;
  /// Tombstone bitmap over physical rows. Lazily allocated: empty means
  /// every row is live (the append-only fast path never pays for it).
  std::vector<bool> dead_;
  std::size_t dead_count_ = 0;
  /// Row index: one slot per live code-set, pointing at its newest row.
  FlatIndex index_;
  /// Scratch code buffer for probe/append paths (non-const methods only).
  std::vector<std::uint32_t> scratch_;
};

/// A borrowed, ordered list of row ids into one ColumnStore -- the columnar
/// replacement for the old `vector<const Tuple*>` filtered views (semi-join
/// survivors, delta windows). Nothing is copied: consumers read key columns
/// straight out of the store. The store must outlive the view.
///
/// A view may also name *ghost* rows: row id store->size() + k resolves to
/// the k-th code tuple of `ghosts` (arity codes each) instead of the store.
/// Relation::DeltaSet hands out a window's removed rows this way, so they
/// never collide with a live row's id after a compaction and are never read
/// from the store.
struct RowView {
  const ColumnStore* store = nullptr;
  const std::vector<std::uint32_t>* ghosts = nullptr;
  std::vector<std::uint32_t> rows;

  RowView() = default;
  explicit RowView(const ColumnStore* s) : store(s) {}

  std::size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  /// Code of row `row` (a store row or a ghost) at column `col`.
  std::uint32_t CodeAt(std::size_t row, int col) const {
    return row < store->size()
               ? store->CodeAt(row, col)
               : (*ghosts)[(row - store->size()) *
                               static_cast<std::size_t>(store->arity()) +
                           static_cast<std::size_t>(col)];
  }
  Value ValueAt(std::size_t row, int col) const {
    return store->dict().ValueOf(CodeAt(row, col));
  }

  /// The contiguous suffix [first, first + count) of `store` -- the shape of
  /// an append window.
  static RowView Tail(const ColumnStore& store, std::size_t first,
                      std::size_t count);
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_COLUMN_STORE_H_
