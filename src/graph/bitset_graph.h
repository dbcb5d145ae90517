#ifndef CQBOUNDS_GRAPH_BITSET_GRAPH_H_
#define CQBOUNDS_GRAPH_BITSET_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cqbounds {

/// A fixed-stride set of vertices over the universe {0, ..., universe-1},
/// packed into 64-bit blocks. This is the word-parallel workhorse of the
/// exact-treewidth engine (docs/TREEWIDTH.md): neighbourhood intersection,
/// fill-edge counting, simplicial detection and the MMD+ lower bound all
/// reduce to AND/OR/POPCOUNT loops over `(universe + 63) / 64` words.
///
/// All binary operations require both operands to share the same universe
/// (and hence the same block count); this is checked in debug builds.
class VertexBitset {
 public:
  using Block = std::uint64_t;
  static constexpr int kBitsPerBlock = 64;

  VertexBitset() = default;
  /// Empty set over {0, ..., universe-1}. O(universe / 64).
  explicit VertexBitset(int universe);

  int universe() const { return universe_; }
  int num_blocks() const { return static_cast<int>(blocks_.size()); }

  /// Membership test / insertion / removal of one vertex. O(1).
  bool Test(int v) const {
    return (blocks_[static_cast<std::size_t>(v) / kBitsPerBlock] >>
            (static_cast<std::size_t>(v) % kBitsPerBlock)) &
           1u;
  }
  void Set(int v) {
    blocks_[static_cast<std::size_t>(v) / kBitsPerBlock] |=
        Block{1} << (static_cast<std::size_t>(v) % kBitsPerBlock);
  }
  void Reset(int v) {
    blocks_[static_cast<std::size_t>(v) / kBitsPerBlock] &=
        ~(Block{1} << (static_cast<std::size_t>(v) % kBitsPerBlock));
  }

  /// Inserts every vertex of the universe / removes every vertex. O(n/64).
  void SetAll();
  void Clear();

  /// Cardinality via POPCOUNT over blocks. O(n/64).
  int Count() const;

  /// Smallest member, or -1 when empty. O(n/64).
  int First() const;

  /// Word-parallel set algebra; `this` is the destination. O(n/64).
  void InplaceOr(const VertexBitset& other);

  /// |this & other| without materializing the intersection. O(n/64).
  int CountAnd(const VertexBitset& other) const;
  /// |this & ~other| without materializing the difference. O(n/64).
  int CountAndNot(const VertexBitset& other) const;
  /// this subseteq other, word-parallel. O(n/64).
  bool IsSubsetOf(const VertexBitset& other) const;
  /// (this & other) non-empty, with early exit. O(n/64).
  bool Intersects(const VertexBitset& other) const;

  /// Calls `fn(v)` for every member in increasing order, using
  /// count-trailing-zeros to jump between set bits. O(n/64 + |set|).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      Block word = blocks_[b];
      while (word) {
        const int bit = __builtin_ctzll(word);
        word &= word - 1;
        fn(static_cast<int>(b) * kBitsPerBlock + bit);
      }
    }
  }

  friend bool operator==(const VertexBitset& a, const VertexBitset& b) {
    return a.universe_ == b.universe_ && a.blocks_ == b.blocks_;
  }
  friend bool operator!=(const VertexBitset& a, const VertexBitset& b) {
    return !(a == b);
  }

  /// FNV-1a over the packed blocks; used for the B&B memo table keyed by
  /// the alive-vertex set.
  std::size_t Hash() const;

 private:
  int universe_ = 0;
  std::vector<Block> blocks_;
};

/// Hash functor so a VertexBitset can key std::unordered_map.
struct VertexBitsetHash {
  std::size_t operator()(const VertexBitset& s) const { return s.Hash(); }
};

/// An undirected graph on {0, ..., n-1} stored as one VertexBitset
/// neighbourhood row per vertex (a packed adjacency matrix). Mirrors the
/// `Graph` interface the treewidth code needs, but every neighbourhood
/// query is word-parallel; converting from `Graph` costs O(n^2 / 64 + m).
///
/// Rows are mutable on purpose: the branch-and-bound engine performs
/// eliminate/undo surgery directly on them (docs/TREEWIDTH.md).
class BitsetGraph {
 public:
  BitsetGraph() = default;
  /// Edgeless graph on n vertices. O(n^2 / 64).
  explicit BitsetGraph(int n);
  /// Copy of `g`'s adjacency into bitset rows. O(n^2 / 64 + m log n).
  explicit BitsetGraph(const Graph& g);

  int num_vertices() const { return static_cast<int>(rows_.size()); }

  /// Neighbourhood of v as a bitset (never contains v itself).
  const VertexBitset& Row(int v) const { return rows_[v]; }
  VertexBitset& MutableRow(int v) { return rows_[v]; }

  /// Adds / removes the undirected edge {u, v}; ignores u == v. O(1).
  void AddEdge(int u, int v);
  void RemoveEdge(int u, int v);
  bool HasEdge(int u, int v) const { return rows_[u].Test(v); }

  /// deg(v) by POPCOUNT. O(n/64).
  int Degree(int v) const { return rows_[v].Count(); }

 private:
  std::vector<VertexBitset> rows_;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_GRAPH_BITSET_GRAPH_H_
