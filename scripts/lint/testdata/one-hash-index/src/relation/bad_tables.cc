// A second hash index inside src/relation/: std containers and a copy of
// the slot-table probe. Every one is flagged.
#include <unordered_map>  // LINT-EXPECT: one-hash-index
#include <unordered_set>  // LINT-EXPECT: one-hash-index
#include <vector>

#include "relation/tuple.h"

namespace cqbounds {

struct RowIds {
  std::unordered_map<std::uint32_t, std::size_t> index;  // LINT-EXPECT: one-hash-index
};

std::size_t CountDistinct(const std::vector<Value>& values) {
  std::unordered_set<Value> seen(values.begin(),  // LINT-EXPECT: one-hash-index
                                 values.end());
  return seen.size();
}

std::size_t ProbeCopy(const std::vector<std::uint32_t>& slots, std::size_t h) {
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = h & mask;
  while (slots[slot] != 0xFFFFFFFFu) slot = (slot + 1) & mask;  // LINT-EXPECT: one-hash-index
  return slot;
}

std::size_t ProbeCopySpaced(const std::vector<std::uint32_t>& slots,
                            std::size_t slot, std::size_t mask) {
  return slots[( slot+1 )&mask];  // LINT-EXPECT: one-hash-index
}

}  // namespace cqbounds
