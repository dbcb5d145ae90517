// Outside src/relation/ the rule does not apply.
#include <unordered_map>

#include "relation/tuple.h"

namespace cqbounds {

using ValueMap = std::unordered_map<Value, Value>;

}  // namespace cqbounds
