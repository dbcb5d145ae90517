// The index itself owns the one probe loop: out of the rule's scope.
#ifndef CQBOUNDS_RELATION_FLAT_INDEX_H_
#define CQBOUNDS_RELATION_FLAT_INDEX_H_

#include <cstdint>
#include <vector>

namespace cqbounds {

class FlatIndex {
 public:
  template <typename Matches>
  std::size_t Probe(std::size_t hash, Matches&& matches) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    while (slots_[slot] != 0xFFFFFFFFu && !matches(slots_[slot])) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

 private:
  std::vector<std::uint32_t> slots_;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_FLAT_INDEX_H_
