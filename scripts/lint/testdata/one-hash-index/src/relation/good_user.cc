// Good twin: lookups through FlatIndex, and the banned spellings only in
// comments and strings (e.g. the old std::unordered_map index, or its
// `(slot + 1) & mask` probe) -- neither is code.
#include <string>
#include <vector>

#include "relation/flat_index.h"

namespace cqbounds {

const char* kHistory = "replaced std::unordered_set and (slot + 1) & mask";

std::uint32_t FindRow(const FlatIndex& index,
                      const std::vector<std::uint32_t>& rows,
                      std::uint32_t row) {
  return index.Find(FibonacciHash(row),
                    [&](std::uint32_t i) { return rows[i] == row; });
}

struct unordered_maplike {};  // a longer identifier, not the std container
std::size_t NextSlot(std::size_t slot, std::size_t mask_bits) {
  return (slot + 1) & mask_bits;
}

}  // namespace cqbounds
