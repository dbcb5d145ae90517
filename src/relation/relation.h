#ifndef CQBOUNDS_RELATION_RELATION_H_
#define CQBOUNDS_RELATION_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/column_store.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace cqbounds {

/// A named, set-semantics relation instance: a deduplicated bag of tuples of
/// fixed arity, stored dictionary-encoded in contiguous uint32_t columns
/// (relation/column_store.h). Insertion order of first occurrences is
/// preserved so that iteration (and thus every algorithm built on it) is
/// deterministic, and row ids are stable across appends and tombstone
/// removals; a compaction shifts them, monotonically, and is journaled.
///
/// ## Concurrency contract (externally synchronized)
///
/// Relation is deliberately lock-free and carries **no capability**: the
/// readers-xor-writer discipline is owned by the caller (EvalContext's
/// documented contract -- mutations never overlap evaluations; any number
/// of concurrent readers between mutations). The delta journal below
/// (generation_, the removal log and the compaction epochs) is what makes
/// that contract auditable by its consumers: every cached artifact
/// snapshots generation() at build time and revalidates against it, so a
/// violated contract surfaces as a TSan race in CI, never as silently stale
/// data. The machine-checked (Clang -Wthread-safety,
/// docs/STATIC_ANALYSIS.md) annotations live at the synchronization
/// boundary -- relation/eval_context.h and util/thread_pool.h -- because a
/// guard annotation here would claim a lock this class intentionally does
/// not have.
class Relation {
 public:
  /// The widest arity a database file may declare (a store allocates one
  /// column per position up front); far above any arity the engine builds.
  static constexpr int kMaxArity = 4096;

  Relation() : name_("R"), store_(0) {}
  Relation(std::string name, int arity)
      : name_(std::move(name)), store_(arity) {
    CQB_CHECK(arity >= 0);
  }

  const std::string& name() const { return name_; }
  int arity() const { return store_.arity(); }
  /// Logical cardinality: live rows only. The store may hold tombstoned
  /// physical rows beyond this until it compacts (store().size()).
  std::size_t size() const { return store_.live_size(); }
  bool empty() const { return store_.empty(); }

  /// Mutation counter: advanced by the number of rows an operation actually
  /// changed (a duplicate Insert or a Remove of an absent tuple leaves it
  /// unchanged; a batch insert of k fresh rows advances it by k in one
  /// journal update). Index caches (EvalContext in eval_context.h) snapshot
  /// it at build time and refresh when it moves -- generation-based
  /// invalidation instead of content hashing.
  std::uint64_t generation() const { return generation_; }

  /// The delta journal: everything that changed since `gen`.
  ///  - `appended_rows`: the still-live rows appended since `gen`, by
  ///    current id (a subsequence of the physical row suffix, ascending).
  ///  - `removed_rows`: the rows live at `gen` and gone now, by their id AT
  ///    THE SNAPSHOT (ascending), with their code tuples in
  ///    `removed_codes` (arity() codes per row, same order) -- a removed
  ///    row may since have been compacted away, or its snapshot id reused
  ///    by a live row, so consumers read it only from the saved codes.
  ///  - `compacted_rows`: when compactions lie in the window, the snapshot
  ///    ids (ascending) of every snapshot row they dropped, dead at `gen`
  ///    or removed since. They define the monotone snapshot -> current row
  ///    map: row r keeps current id r - |{compacted_rows < r}|. Empty means
  ///    the map is the identity.
  /// A tuple appended AND removed inside the window appears on neither
  /// side. Valid for any `gen` at or after the last Clear and inside epoch
  /// retention (see Remove); returns false otherwise -- the caller falls
  /// back to a full rebuild.
  struct DeltaSet {
    std::vector<std::uint32_t> appended_rows;
    std::vector<std::uint32_t> removed_rows;
    std::vector<std::uint32_t> removed_codes;
    std::vector<std::uint32_t> compacted_rows;

    /// `appended_rows` as a view into `store`.
    RowView Appended(const ColumnStore& store) const;
    /// The removed rows as ghost rows of `store` (RowView): removed row k
    /// is row id store.size() + k, resolving to its saved codes. Borrows
    /// `removed_codes`.
    RowView Removed(const ColumnStore& store) const;
  };
  bool DeltasSince(std::uint64_t gen, DeltaSet* out) const;

  /// Number of deferred compactions this relation has performed (each one
  /// a journaled epoch). Lets tests and benches see which windows crossed
  /// one.
  std::uint64_t compactions() const { return compactions_; }

  /// Inserts `t` if not present; returns true if inserted. Aborts if the
  /// arity does not match (a programming error, not a data error).
  bool Insert(const Tuple& t);

  /// Bulk insert with a single dedup pass and one journal bump (the
  /// generation advances by the number of rows actually added). Returns
  /// that count.
  std::size_t InsertBatch(const std::vector<Tuple>& batch);

  /// As InsertBatch over row-major flat values (`num_rows * arity()`
  /// entries) -- the bulk-ingestion path: no per-tuple Tuple allocation.
  std::size_t InsertFlat(const std::vector<Value>& flat_values,
                         std::size_t num_rows);

  /// As InsertFlat over dense ids below `bound` (a ValuePool's ids: the
  /// text reader's door) -- ColumnStore::AppendDense: one array load per
  /// repeated value instead of a dictionary probe, the same codes minted.
  std::size_t InsertDense(const std::vector<std::uint32_t>& ids,
                          std::size_t num_rows, std::size_t bound);

  /// As InsertBatch over rows coded in foreign dictionaries, slice after
  /// slice -- the bulk door of ColumnStore::AppendCoded: codes minted as a
  /// row-wise Insert would mint them, present rows skipped. With
  /// `distinct`, a large merge into an empty relation adopts the column
  /// dictionaries instead (see AppendCoded): the same rows, other codes.
  std::size_t InsertCoded(const std::vector<CodedRows>& sources,
                          const std::vector<CodedSlice>& slices,
                          const DistinctRows* distinct = nullptr);

  /// Removes `t` if present; returns true if removed. Preserves the order
  /// of the remaining tuples. A removal is a *tombstone*: row ids stay
  /// stable, the removal is journaled in the removed-row log, and
  /// DeltasSince() names it -- delta consumers patch in O(δ) instead of
  /// rebuilding. When it trips the store's deferred compaction, the
  /// compaction is journaled as an *epoch*: its generation, the physical
  /// size before it, and the ids, removal generations and code tuples of
  /// the dead rows it dropped. DeltasSince() answers across epochs.
  /// Retention is a fixed rule: the oldest epochs are discarded while the
  /// rows they saved add up to more than the live row count (the newest is
  /// always kept), so the journal holds at most live_size() * arity() saved
  /// codes, or the newest epoch's alone when that is larger; snapshots
  /// older than a discarded epoch get no delta.
  bool Remove(const Tuple& t);

  /// Drops every tuple. The one hard structural break: bumps the generation
  /// and the structural floor, and discards the journal, unless the store
  /// held no physical rows at all.
  void Clear();

  bool Contains(const Tuple& t) const { return store_.Contains(t); }

  /// Materializes every tuple, in row order. This is a compatibility and
  /// test/tooling accessor -- an O(size * arity) decode on every call, NOT a
  /// view into storage. Library code outside src/relation/ must read columns
  /// through store() instead (enforced by the raw-row-access lint rule).
  std::vector<Tuple> tuples() const;

  /// The underlying dictionary-encoded columns: the read path for
  /// evaluation, index builds, and IO.
  const ColumnStore& store() const { return store_; }

  /// Per-column min/max/distinct summary (ColumnStore::Stats).
  ColumnStats Stats(int col) const { return store_.Stats(col); }

  /// Projection onto `positions` (0-based, may repeat), with set semantics.
  Relation Project(const std::vector<int>& positions,
                   const std::string& result_name = "pi") const;

  /// The set of distinct values appearing in column `pos`.
  std::vector<Value> ColumnValues(int pos) const;

  /// All distinct values appearing anywhere in the relation.
  std::vector<Value> ActiveDomain() const;

  /// Checks a positional functional dependency lhs -> rhs on this instance.
  bool SatisfiesFd(const std::vector<int>& lhs, int rhs) const;

 private:
  std::string name_;
  ColumnStore store_;
  std::uint64_t generation_ = 0;
  // All journal state is written only under the caller-owned writer phase
  // (see the class comment) -- it is read concurrently by cached readers,
  // which is safe precisely because writes never overlap reads.
  //
  // Generation value as of the last Clear: older snapshots can never be
  // served a delta.
  std::uint64_t structural_floor_ = 0;
  // Generation of the newest epoch retention discarded: older snapshots
  // lost the epoch their delta needs.
  std::uint64_t epoch_floor_ = 0;
  // One entry per tombstoned row since the last compaction or Clear,
  // generation-ascending, in current row ids -- exactly the store's dead
  // rows.
  struct RemovalEvent {
    std::uint64_t gen = 0;
    std::uint32_t row = 0;
  };
  std::vector<RemovalEvent> removed_log_;
  // One compaction: the generation of the removal that tripped it, the
  // physical row count before it, and the dead rows it dropped -- ids in
  // the pre-compaction id space (ascending), each with its removal
  // generation and arity() codes.
  struct Epoch {
    std::uint64_t gen = 0;
    std::size_t size_before = 0;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> removed_at;
    std::vector<std::uint32_t> codes;
  };
  // Retained epochs, generation-ascending.
  std::vector<Epoch> epochs_;
  std::uint64_t compactions_ = 0;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_RELATION_H_
