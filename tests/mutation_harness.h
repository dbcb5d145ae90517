// Shared randomized-mutation harness for the cache/delta test suites
// (plan_cache_test.cc, delta_oracle_test.cc): a scripted mutation-op
// vocabulary over Database relations, a deterministic op generator, and
// the from-scratch oracle comparison helpers. The perft-style pattern is
// the point -- a failing interleaving must be replayable from its seed, so
// every op is a value (loggable via ToString / ScriptTrace) and every
// random draw flows through the caller's Rng.

#ifndef CQBOUNDS_TESTS_MUTATION_HARNESS_H_
#define CQBOUNDS_TESTS_MUTATION_HARNESS_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/color_number.h"
#include "core/size_bounds.h"
#include "relation/database.h"
#include "relation/evaluate.h"
#include "util/rng.h"

namespace cqbounds {
namespace testutil {

inline std::string TupleToString(const Tuple& t) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i != 0) os << ',';
    os << t[i];
  }
  os << ')';
  return os.str();
}

/// Asserts `a` and `b` hold the same tuple set (both directions via the
/// size check), with `context` on every failure message.
inline void ExpectSameRelation(const Relation& a, const Relation& b,
                               const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (const Tuple& t : a.tuples()) {
    EXPECT_TRUE(b.Contains(t)) << context << " missing " << TupleToString(t);
  }
}

/// rho*(full join): the fractional edge cover number of `query` with every
/// body variable promoted into the head -- the AGM envelope exponent.
inline Rational FullJoinCoverExponent(const Query& query) {
  auto cover = FractionalEdgeCoverWeights(query, /*cover_all_body_vars=*/true);
  CQB_CHECK(cover.ok());
  return cover->value;
}

inline constexpr PlanKind kAllPlans[] = {PlanKind::kNaive,
                                         PlanKind::kJoinProject,
                                         PlanKind::kGenericJoin,
                                         PlanKind::kHybridYannakakis};

/// One scripted mutation against a named relation. Append/BulkAppend feed
/// the trie-patch and semi-join delta paths; Remove tombstones (served by
/// trie unpatches and delta-pass kills/revivals), and when it trips
/// deferred compaction the journal records an epoch, so the same delta
/// paths serve it after a remap; Clear is the one hard structural break.
struct MutationOp {
  enum class Kind { kAppend, kBulkAppend, kRemove, kClear };
  Kind kind = Kind::kAppend;
  std::string relation;
  /// Tuples appended (kAppend holds one, kBulkAppend several) or removed
  /// (kRemove holds one); empty for kClear.
  std::vector<Tuple> tuples;
};

inline const char* MutationKindName(MutationOp::Kind kind) {
  switch (kind) {
    case MutationOp::Kind::kAppend:
      return "append";
    case MutationOp::Kind::kBulkAppend:
      return "bulk-append";
    case MutationOp::Kind::kRemove:
      return "remove";
    case MutationOp::Kind::kClear:
      return "clear";
  }
  return "?";
}

inline std::string ToString(const MutationOp& op) {
  std::ostringstream os;
  os << MutationKindName(op.kind) << ' ' << op.relation;
  for (const Tuple& t : op.tuples) os << ' ' << TupleToString(t);
  return os.str();
}

/// Applies `op` to `db`. Returns true iff the relation actually changed
/// (its generation moved): duplicate appends and removes of absent tuples
/// are no-ops under set semantics, as is clearing an empty relation.
inline bool ApplyMutation(const MutationOp& op, Database* db) {
  Relation* rel = db->FindMutable(op.relation);
  CQB_CHECK(rel != nullptr);
  const std::uint64_t before = rel->generation();
  switch (op.kind) {
    case MutationOp::Kind::kAppend:
    case MutationOp::Kind::kBulkAppend:
      for (const Tuple& t : op.tuples) rel->Insert(t);
      break;
    case MutationOp::Kind::kRemove:
      for (const Tuple& t : op.tuples) rel->Remove(t);
      break;
    case MutationOp::Kind::kClear:
      rel->Clear();
      break;
  }
  return rel->generation() != before;
}

inline Tuple RandomTuple(int arity, std::uint64_t domain, Rng* rng) {
  Tuple t(static_cast<std::size_t>(arity));
  for (int p = 0; p < arity; ++p) {
    t[p] = static_cast<Value>(rng->NextBelow(domain));
  }
  return t;
}

/// Draws a random mutation against `rel` with values inside [0, domain):
/// mostly appends (single and bulk -- the delta paths under test), plus,
/// when `allow_structural`, occasional removes of an existing tuple (the
/// tombstone and compaction paths) and rare clears (the rebuild path). Duplicate appends are deliberately
/// possible -- set semantics must make them free.
inline MutationOp RandomMutationOp(const Relation& rel, std::uint64_t domain,
                                   bool allow_structural, Rng* rng) {
  MutationOp op;
  op.relation = rel.name();
  const std::uint64_t roll = rng->NextBelow(allow_structural ? 12 : 8);
  if (roll < 5) {
    op.kind = MutationOp::Kind::kAppend;
    op.tuples.push_back(RandomTuple(rel.arity(), domain, rng));
  } else if (roll < 8) {
    op.kind = MutationOp::Kind::kBulkAppend;
    const std::uint64_t n = 2 + rng->NextBelow(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      op.tuples.push_back(RandomTuple(rel.arity(), domain, rng));
    }
  } else if (roll < 11 && !rel.empty()) {
    op.kind = MutationOp::Kind::kRemove;
    op.tuples.push_back(rel.tuples()[rng->NextBelow(rel.size())]);
  } else {
    op.kind = MutationOp::Kind::kClear;
  }
  return op;
}

/// Failure breadcrumb for randomized scripts: the seed plus the ops of the
/// current round, enough to replay the interleaving deterministically.
inline std::string ScriptTrace(std::uint64_t seed, int round,
                               const std::vector<MutationOp>& round_ops) {
  std::ostringstream os;
  os << "seed=" << seed << " round=" << round << " ops=[";
  for (std::size_t i = 0; i < round_ops.size(); ++i) {
    if (i != 0) os << "; ";
    os << ToString(round_ops[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace testutil
}  // namespace cqbounds

#endif  // CQBOUNDS_TESTS_MUTATION_HARNESS_H_
