#ifndef CQBOUNDS_RELATION_TRIE_INDEX_H_
#define CQBOUNDS_RELATION_TRIE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "relation/column_store.h"
#include "relation/relation.h"
#include "relation/tuple.h"

namespace cqbounds {

/// Monotonic process-wide counters over TrieIndex construction, readable by
/// benches and tests. `radix_builds` counts from-scratch builds (Relation and
/// RowView constructors), `merge_builds` counts splices (TrieIndex::Splice).
/// `shared_splices` counts the splices that first had to copy their trie
/// because another holder still read it (SpliceOrCopy): the E16 bench
/// asserts that an unheld cached trie never takes that path.
/// `delta_nodes_visited` is the splice's work counter: nodes it probed (one
/// SeekGE each) or edited one at a time, leaving out the kept runs it moves
/// in bulk -- O(delta * depth), never O(base).
/// `tuple_materializations` is a tripwire: it counts per-tuple heap `Tuple`
/// objects created during trie construction, which is zero by design on the
/// columnar radix and splice paths -- bench_e15_columnar_scale asserts it
/// stays zero, so any future build path that regresses to materializing
/// row-major tuples must bump it and will trip the bench.
struct TrieBuildStats {
  std::uint64_t radix_builds = 0;
  std::uint64_t merge_builds = 0;
  std::uint64_t shared_splices = 0;
  std::uint64_t delta_nodes_visited = 0;
  std::uint64_t tuple_materializations = 0;
};
TrieBuildStats GetTrieBuildStats();

/// A sorted-column trie over one relation instance, the per-atom index of
/// the worst-case-optimal generic-join executor (PlanKind::kGenericJoin
/// and the hybrid plan's enumeration, relation/evaluate.h).
///
/// Level l of the trie holds the distinct values of the atom's l-th key
/// variable, grouped under their level-(l-1) parent and sorted within each
/// group, so a node's children form a contiguous sorted range that supports
/// galloping `SeekGE` -- the primitive the leapfrog intersection loop is
/// built on. The key variables (and hence the column permutation) are chosen
/// by the caller to follow one global variable order shared by every atom of
/// the query; see docs/EVALUATION.md.
///
/// A *heavy* node -- at least kHeavyChildren children, spanning at most
/// kHeavySpan values per child -- also carries a RankBitmap over its
/// children: ChildRange hands it out with the range, and Probe finds a
/// value's index among them in O(1), so an intersection that meets a hub's
/// child set can drive the shorter range and probe the hub's. The span rule
/// bounds bitmap plus ranks at 12x the node's own 8-byte keys, and a level
/// carries a per-node bitmap index only while one of its nodes is heavy.
/// Bitmaps are derived data: a splice keeps them equal to a fresh build's.
///
/// Storage is flat vectors per level (value, first-child offset), not
/// pointer-chased nodes. Construction reads key columns straight out of the
/// relation's ColumnStore into a packed flat key buffer, LSD-radix-sorts a
/// row permutation over it, and builds every level in one scan of the sorted
/// stream -- no comparison sort, and no per-tuple Tuple materialization
/// (see TrieBuildStats::tuple_materializations). After a mutation, `Splice`
/// brings a built trie forward in place by the window's net delta, without
/// re-sorting or copying the base; a trie that others may still read is
/// copied first (SpliceOrCopy).
class TrieIndex {
 public:
  /// A node at a non-last level is *heavy* when it has at least
  /// kHeavyChildren children spanning at most kHeavySpan values per child
  /// ((last - first + 1) <= kHeavySpan * count).
  static constexpr std::size_t kHeavyChildren = 64;
  static constexpr std::size_t kHeavySpan = 512;

  /// The rank bitmap over a heavy node's children: bit (v - lo) is set iff
  /// v is a child, and before[w] counts the set bits of words[0, w), so the
  /// child v sits before[w] + (set bits below it in words[w]) places past
  /// its first sibling.
  struct RankBitmap {
    Value lo = 0;
    std::vector<std::uint64_t> words;
    std::vector<std::uint32_t> before;

    bool operator==(const RankBitmap& other) const {
      return lo == other.lo && words == other.words && before == other.before;
    }
  };

  /// A contiguous run of sibling nodes at one level: indices [begin, end).
  /// `bits` is the run's rank bitmap when the run is all the children of a
  /// heavy node (as ChildRange returns it), null otherwise.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
    const RankBitmap* bits = nullptr;

    std::size_t size() const { return end - begin; }
    bool empty() const { return begin >= end; }
  };

  /// Builds the trie for an atom over `rel`. `level_positions[l]` lists
  /// every tuple position (0-based column of `rel`) holding the atom's l-th
  /// key variable; a tuple is indexed only if all positions of each level
  /// carry the same value (intra-atom repeated variables act as equality
  /// filters, e.g. R(X,X)), and that shared value is the level-l key.
  /// Positions may cover the relation's columns in any order or partially
  /// (projection happens implicitly, with set semantics on the keys).
  TrieIndex(const Relation& rel,
            const std::vector<std::vector<int>>& level_positions);

  /// As above over a borrowed filtered view: `view` names rows of some
  /// ColumnStore (e.g. the survivors of a semi-join reduction pass).
  /// Nothing is copied out of the store beyond the key columns, so building
  /// from a filtered view costs the same as building from a relation of
  /// that size, with no intermediate Relation materialization. The store
  /// need only outlive the constructor.
  TrieIndex(const RowView& view,
            const std::vector<std::vector<int>>& level_positions);

  /// Splices one mutation window into this trie in place: afterwards it
  /// indexes its old key multiset plus `appended` minus `removed` (either
  /// side may be empty; an empty `removed` is an append patch). Every trie
  /// carries a per-key *support count* (how many self-consistent rows
  /// project onto the key; stored sparsely, since counts exceed one only
  /// under projection or repeated-variable layouts), so a key is kept iff
  /// old_count + appended_count - removed_count > 0. Rows are extracted
  /// with the same `level_positions` layout the trie was built with.
  /// Removed rows usually come as ghost rows resolving to saved code tuples
  /// (Relation::DeltaSet::Removed), so a window that crossed compactions
  /// splices like any other -- the trie holds no row ids. Rows failing the
  /// repeated-variable filter are skipped symmetrically on both sides,
  /// mirroring what the build did.
  ///
  /// The two sides collapse into one sorted net delta of (key, signed
  /// count), spliced in two phases. The *plan* walks the delta down the
  /// levels with SeekGE inside each parent's child range and records, per
  /// level, a sorted list of edits: insert a node before node p, erase node
  /// p, or set a leaf's support / an inner node's child count. A leaf goes
  /// when its support reaches zero, an inner node when it is left with no
  /// children. Every support check runs in the plan, before anything is
  /// written, so a failed check never leaves a half-spliced trie. The
  /// *apply* rewrites each level from its first edit on (the prefix before
  /// it is never touched): kept runs move once -- left-moving runs front
  /// to back, then right-moving runs back to front, so no run overwrites
  /// one not yet moved -- and the inserted nodes land in their final
  /// slots; first-child offsets are edited as child counts and
  /// prefix-summed back. A level's bitmap index moves with its runs, and
  /// once every level is applied, each inner node whose child set changed
  /// and that has a bitmap or at least kHeavyChildren children gets its
  /// bitmap rebuilt or dropped (the plan marks them; a trie without heavy
  /// nodes pays nothing more). Cost: O(k log k) to sort k delta rows,
  /// O(k * depth) probes of O(log gap) each (TrieBuildStats::
  /// delta_nodes_visited), a memmove-speed shift of each level's suffix
  /// past its first edit, plus one bitmap rebuild per marked heavy node.
  ///
  /// Readers of this trie must not overlap the splice: a trie someone else
  /// may still read is spliced through SpliceOrCopy, which copies it first.
  /// Checks that no key's support goes negative.
  void Splice(const RowView& appended, const RowView& removed,
              const std::vector<std::vector<int>>& level_positions);

  /// Structural equality: same levels, child offsets, rank bitmaps (node
  /// by node), per-key support counts (an absent counts vector equals all
  /// ones) and root support. A spliced trie equals the from-scratch build
  /// of the post-window relation.
  bool operator==(const TrieIndex& other) const;

  /// Number of key levels (the atom's distinct-variable count).
  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Distinct key tuples indexed (after equality filtering + projection).
  std::size_t num_tuples() const { return num_tuples_; }

  /// The children of the (implicit) root: all level-0 nodes.
  Range RootRange() const {
    return Range{0, levels_.empty() ? 0 : levels_[0].values.size()};
  }

  /// Key value of node `idx` at `level`.
  Value ValueAt(int level, std::size_t idx) const {
    return levels_[level].values[idx];
  }

  /// Children (at level+1) of node `idx` at `level`, carrying the node's
  /// rank bitmap when it is heavy; empty at the last level.
  Range ChildRange(int level, std::size_t idx) const {
    if (level + 1 >= num_levels()) return Range{0, 0};
    const Level& at = levels_[static_cast<std::size_t>(level)];
    Range r{at.child_begin[idx], at.child_begin[idx + 1]};
    if (!at.bitmap_of.empty() && at.bitmap_of[idx] != kNoBitmap) {
      r.bits = &at.bitmaps[at.bitmap_of[idx]];
    }
    return r;
  }

  /// Looks `v` up among the children `r` of a heavy node (r.bits set): on
  /// a hit sets `*pos` to v's index -- SeekGE's answer -- and returns true.
  /// O(1): one bit test, plus a popcount on a hit.
  static bool Probe(const Range& r, Value v, std::size_t* pos) {
    const RankBitmap& b = *r.bits;
    if (v < b.lo) return false;
    const std::uint64_t off =
        static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(b.lo);
    const std::uint64_t w = off >> 6;
    if (w >= b.words.size()) return false;
    // v's bit on top, the bits below it under it.
    const std::uint64_t upto = b.words[w] << (63 - (off & 63));
    if ((upto >> 63) == 0) return false;
    *pos = r.begin + b.before[w] +
           static_cast<std::size_t>(__builtin_popcountll(upto)) - 1;
    return true;
  }

  /// First index in [r.begin, r.end) whose value is >= v, or r.end if none.
  /// Galloping search: O(log gap), so a full leapfrog intersection costs
  /// O(sum of log-sized jumps), not a linear merge. Defined here so the
  /// leapfrog loops (relation/evaluate.cc) and the splice inline it: a
  /// typical seek ends at r.begin or a step or two past it, so an
  /// out-of-line call costs as much as the search.
  std::size_t SeekGE(int level, Range r, Value v) const {
    const std::vector<Value>& vals =
        levels_[static_cast<std::size_t>(level)].values;
    if (r.empty() || vals[r.begin] >= v) return r.begin;
    // Gallop from the current position, then binary-search the final window.
    std::size_t lo = r.begin;
    std::size_t step = 1;
    while (lo + step < r.end && vals[lo + step] < v) {
      lo += step;
      step <<= 1;
    }
    const std::size_t hi = std::min(lo + step + 1, r.end);
    return static_cast<std::size_t>(
        std::lower_bound(vals.begin() + static_cast<std::ptrdiff_t>(lo),
                         vals.begin() + static_cast<std::ptrdiff_t>(hi), v) -
        vals.begin());
  }

 private:
  struct Level {
    /// Node keys, grouped by parent, sorted within each group.
    std::vector<Value> values;
    /// child_begin[i]..child_begin[i+1] delimit node i's children at the
    /// next level (size values.size()+1); empty for the last level.
    std::vector<std::size_t> child_begin;
    /// bitmap_of[i]: the slot in `bitmaps` of heavy node i's rank bitmap,
    /// kNoBitmap for a light node. Empty while no node of the level is
    /// heavy, so a level without one carries nothing per node.
    std::vector<std::uint32_t> bitmap_of;
    std::vector<RankBitmap> bitmaps;
    /// Slots of `bitmaps` a splice released, reused before growing it.
    std::vector<std::uint32_t> free_bitmaps;
  };
  static constexpr std::uint32_t kNoBitmap = ~0u;

  /// Packed key extraction: appends the sign-biased key words of every
  /// self-consistent row of `view` (or all LIVE rows of `store` when `view`
  /// is null; a view is taken as-is, ghost rows included, so delta paths
  /// read removed rows from their saved codes) to `*keys`, depth words per
  /// kept row, and widens [`*key_min`, `*key_max`] per level (the caller
  /// starts them at [all-ones, 0], so several calls can share one buffer).
  /// Returns the kept-row count.
  static std::size_t ExtractKeys(
      const ColumnStore& store, const RowView* view,
      const std::vector<std::vector<int>>& level_positions,
      std::vector<std::uint64_t>* keys, std::vector<std::uint64_t>* key_min,
      std::vector<std::uint64_t>* key_max);

  /// Radix-sorts + dedups the packed `keys` (m rows of depth words),
  /// recording per-key duplicate counts as support, then builds every
  /// level in one scan of the sorted stream. Shared tail of the
  /// from-scratch constructors.
  void BuildFromFlatKeys(const std::vector<std::uint64_t>& keys,
                         std::size_t m, int depth,
                         const std::vector<std::uint64_t>& key_min,
                         const std::vector<std::uint64_t>& key_max);

  /// Support count of leaf key `i` (lexicographic/DFS order).
  std::uint32_t CountOf(std::size_t i) const {
    return counts_.empty() ? 1u : counts_[i];
  }
  /// Installs per-key counts, dropping the vector when every count is one
  /// (the dense common case costs nothing).
  void SetCounts(std::vector<std::uint32_t>&& counts);

  /// Gives node `idx` at inner level `level` the rank bitmap of its
  /// current children if it is heavy, and takes it away otherwise.
  void IndexNode(int level, std::size_t idx);
  /// Frees node `idx`'s bitmap slot, if it has one; a level left without
  /// heavy nodes drops its per-node index too.
  static void DropBitmap(Level* at, std::size_t idx);

  /// One planned change to a level at base node `pos` (defined in
  /// trie_index.cc), a node whose bitmap a splice must redo, and the
  /// read-only walk that plans a splice.
  struct Edit;
  struct Remark;
  struct SplicePlan;
  /// Applies one level's sorted edits (Splice's apply phase).
  void ApplyEdits(int level, const std::vector<Edit>& edits);
  /// Redoes the bitmaps of the nodes `marks` names at `level` once every
  /// level is applied (`edits` maps base positions to final ones).
  void ReindexNodes(int level, const std::vector<Edit>& edits,
                    const std::vector<Remark>& marks);

  std::vector<Level> levels_;
  std::size_t num_tuples_ = 0;
  /// Per-leaf-key support counts in lexicographic (DFS/leaf) order; empty
  /// means every key has support one. Only Splice consumes these --
  /// enumeration and seeks never look at them.
  std::vector<std::uint32_t> counts_;
  /// Depth-0 (nullary key) support: how many rows back the boolean guard.
  /// num_tuples_ is 1 iff this is nonzero.
  std::size_t root_support_ = 0;
};

/// Splices one window into `*trie` (TrieIndex::Splice) and leaves `*trie`
/// pointing at the result. When `*trie` is the trie's only owner the splice
/// runs in place; when anyone else holds it, the trie is copied first and
/// the copy spliced, so the other holders' trie is never touched (counted
/// in TrieBuildStats::shared_splices). Sole ownership is decided by the
/// pointer's use count, so the caller must be the only thread that can
/// copy `*trie`.
void SpliceOrCopy(std::shared_ptr<TrieIndex>* trie, const RowView& appended,
                  const RowView& removed,
                  const std::vector<std::vector<int>>& level_positions);

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_TRIE_INDEX_H_
