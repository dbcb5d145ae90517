#include "graph/bitset_graph.h"

namespace cqbounds {

VertexBitset::VertexBitset(int universe)
    : universe_(universe),
      blocks_(static_cast<std::size_t>((universe + kBitsPerBlock - 1) /
                                       kBitsPerBlock),
              0) {}

void VertexBitset::SetAll() {
  if (blocks_.empty()) return;
  for (Block& b : blocks_) b = ~Block{0};
  // Mask off the bits past `universe_` in the last block so Count(),
  // operator== and Hash() see a canonical representation.
  const int tail = universe_ % kBitsPerBlock;
  if (tail != 0) blocks_.back() &= (Block{1} << tail) - 1;
}

void VertexBitset::Clear() {
  for (Block& b : blocks_) b = 0;
}

int VertexBitset::Count() const {
  int total = 0;
  for (Block b : blocks_) total += __builtin_popcountll(b);
  return total;
}

int VertexBitset::First() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i] != 0) {
      return static_cast<int>(i) * kBitsPerBlock +
             __builtin_ctzll(blocks_[i]);
    }
  }
  return -1;
}

void VertexBitset::InplaceOr(const VertexBitset& other) {
  CQB_CHECK(universe_ == other.universe_);
  for (std::size_t i = 0; i < blocks_.size(); ++i) blocks_[i] |= other.blocks_[i];
}

int VertexBitset::CountAnd(const VertexBitset& other) const {
  CQB_CHECK(universe_ == other.universe_);
  int total = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    total += __builtin_popcountll(blocks_[i] & other.blocks_[i]);
  }
  return total;
}

int VertexBitset::CountAndNot(const VertexBitset& other) const {
  CQB_CHECK(universe_ == other.universe_);
  int total = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    total += __builtin_popcountll(blocks_[i] & ~other.blocks_[i]);
  }
  return total;
}

bool VertexBitset::IsSubsetOf(const VertexBitset& other) const {
  CQB_CHECK(universe_ == other.universe_);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i] & ~other.blocks_[i]) return false;
  }
  return true;
}

bool VertexBitset::Intersects(const VertexBitset& other) const {
  CQB_CHECK(universe_ == other.universe_);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i] & other.blocks_[i]) return true;
  }
  return false;
}

std::size_t VertexBitset::Hash() const {
  std::size_t h = 1469598103934665603ull;  // FNV offset basis
  for (Block b : blocks_) {
    h ^= static_cast<std::size_t>(b);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

BitsetGraph::BitsetGraph(int n)
    : rows_(static_cast<std::size_t>(n), VertexBitset(n)) {}

BitsetGraph::BitsetGraph(const Graph& g) : BitsetGraph(g.num_vertices()) {
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int u : g.Neighbors(v)) rows_[v].Set(u);
  }
}

void BitsetGraph::AddEdge(int u, int v) {
  if (u == v) return;
  rows_[u].Set(v);
  rows_[v].Set(u);
}

void BitsetGraph::RemoveEdge(int u, int v) {
  if (u == v) return;
  rows_[u].Reset(v);
  rows_[v].Reset(u);
}

}  // namespace cqbounds
