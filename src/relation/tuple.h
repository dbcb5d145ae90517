#ifndef CQBOUNDS_RELATION_TUPLE_H_
#define CQBOUNDS_RELATION_TUPLE_H_

#include <cstdint>
#include <vector>

namespace cqbounds {

/// Domain values are interned 64-bit ids. The universe U_D of a database is
/// whatever ids its tuples mention; a `ValuePool` (database.h) optionally
/// maps ids back to human-readable spellings.
using Value = std::int64_t;

/// A database tuple: a fixed-arity list of values.
using Tuple = std::vector<Value>;

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_TUPLE_H_
