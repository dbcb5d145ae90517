#ifndef CQBOUNDS_RELATION_DATABASE_H_
#define CQBOUNDS_RELATION_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "relation/flat_index.h"
#include "relation/relation.h"
#include "util/status.h"

namespace cqbounds {

/// Interns arbitrary string spellings as Value ids, dense and in first-seen
/// order. Used by the text reader and by generators whose natural value
/// space is structured (e.g. the color-index vectors of the Proposition 4.5
/// product construction, or Shamir shares tagged by group).
///
/// Storage is flat: the spellings back to back in one char arena, bounded
/// by u32 offsets, and one packed u64 key per id, found through a FlatIndex
/// (relation/flat_index.h) hashed by FibonacciHash of the key. A key holds
/// the spelling's length (saturated at 255) in its top byte; below it, a
/// spelling of at most 7 bytes stores its bytes, so a probe that hits it
/// compares no bytes, and a longer one stores a hash of its bytes and is
/// compared against the arena. A growth re-hashes the stored keys, not the
/// spellings. An intern hit allocates nothing; a miss appends to the arena.
class ValuePool {
 public:
  /// Capacity limit: FlatIndex's id cap, so a pool holds at most 2^32 - 1
  /// spellings.
  static constexpr std::size_t kMaxSpellings = FlatIndex::kNone;
  /// Arena limit: spelling offsets are u32, so the spellings add up to at
  /// most 2^32 - 1 bytes.
  static constexpr std::size_t kMaxArenaBytes = 0xFFFFFFFFu;

  /// Whether an arena holding `used` bytes (at most kMaxArenaBytes) has
  /// room for `bytes` more.
  static constexpr bool Fits(std::size_t used, std::size_t bytes) {
    return bytes <= kMaxArenaBytes - used;
  }
  /// Whether `bytes` more spelling bytes fit this pool's arena.
  bool HasRoom(std::size_t bytes) const { return Fits(arena_.size(), bytes); }

  /// Returns the id of `spelling`, interning it on first use. Aborts when a
  /// new spelling would exceed kMaxSpellings or the arena's room; callers
  /// loading untrusted input check full() and HasRoom first.
  Value Intern(std::string_view spelling);
  /// Reverse lookup; returns "?<id>" if the id was never interned.
  std::string Spelling(Value id) const;
  /// The spelling of an interned id, without a copy. Requires
  /// 0 <= id < size().
  std::string_view SpellingView(Value id) const;
  std::size_t size() const { return keys_.size(); }
  bool full() const { return size() >= kMaxSpellings; }

 private:
  /// Spelling `id` occupies arena_[offsets_[id], offsets_[id + 1]).
  std::string_view View(std::size_t id) const {
    return std::string_view(arena_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  std::string arena_;
  std::vector<std::uint32_t> offsets_ = {0};
  std::vector<std::uint64_t> keys_;
  FlatIndex index_;
};

/// A database instance D = (U_D, R_1, ..., R_n): named relations over a
/// shared value space.
class Database {
 public:
  /// Creates (empty) or fetches the relation `name` with the given arity.
  /// Returns nullptr -- a recoverable schema conflict, not a crash -- if
  /// the relation already exists with a *different* arity: the existing
  /// relation and its tuples are left untouched, and the caller decides
  /// whether to error (as the text reader does) or pick another name.
  Relation* AddRelation(const std::string& name, int arity);

  /// Returns the relation or nullptr.
  const Relation* Find(const std::string& name) const;
  Relation* FindMutable(const std::string& name);

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  /// rmax(D) restricted to the relations occurring in the body of `query`
  /// (the paper's rmax is over the relations R_{i1},...,R_{im} referenced
  /// by the query). A *missing* body relation is kNotFound -- previously it
  /// was silently skipped, making "relation absent" indistinguishable from
  /// "every referenced relation genuinely empty", and a size bound
  /// rmax^{rho*} computed against the wrong database read as a legitimate
  /// 0. A variable-free body (no atoms) and present-but-empty relations
  /// both yield 0, which is the honest envelope in those cases.
  Result<std::size_t> RMax(const Query& query) const;

  /// Largest relation size over all relations in the database.
  std::size_t MaxRelationSize() const;

  /// Verifies that every positional FD declared on `query` holds in this
  /// instance. Returns the first violated FD in the error message.
  Status CheckFds(const Query& query) const;

  /// The pool used to mint structured values (shared by generators).
  ValuePool* value_pool() { return &pool_; }
  const ValuePool& value_pool() const { return pool_; }

 private:
  std::map<std::string, Relation> relations_;
  ValuePool pool_;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_DATABASE_H_
