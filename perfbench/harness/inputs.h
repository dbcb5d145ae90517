#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

// Seeded inputs of the three workloads. Everything here is a pure function
// of the seed: the same seed gives byte-identical text files, relations,
// query rotations and mutation scripts (checked by test_inputs.py through
// the harness's --dump-inputs mode).

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/evaluate.h"
#include "relation/tuple.h"
#include "util/rng.h"

namespace perfbench {

using cqbounds::Tuple;
using cqbounds::Value;

/// An independent generator stream for (seed, stream id).
cqbounds::Rng StreamRng(std::uint64_t seed, std::uint64_t stream);

/// How the oracle computes a query's reference answer: always without a
/// context, and always by another plan than the ops use.
enum class ReferencePlan {
  kJoinProject,
  /// The generic join over the reverse of DefaultGenericJoinOrder, so every
  /// trie has another layout than in the ops. Only for queries whose
  /// reversed order stays connected (else it enumerates a cross product).
  kReversedGenericJoin,
};

/// A query of a workload's mix and the plan its ops evaluate it with.
/// `use_recommended` ops take ChooseGenericJoinOrder's recommended plan
/// instead of `plan`.
struct QuerySpec {
  std::string name;
  std::string text;
  cqbounds::PlanKind plan = cqbounds::PlanKind::kGenericJoin;
  bool use_recommended = false;
  ReferencePlan reference = ReferencePlan::kJoinProject;
};

/// One relation's generated rows, row-major.
struct FlatRelation {
  std::string name;
  int arity = 0;
  std::vector<Value> values;
  std::size_t rows() const {
    return arity == 0 ? 0 : values.size() / static_cast<std::size_t>(arity);
  }
};

/// Renders relations in the text database format (ReadDatabaseText).
std::string ToText(const std::vector<FlatRelation>& relations);

// ---- cold-file -----------------------------------------------------------

/// One text database file and the query its ops run on it.
struct ColdFileCase {
  QuerySpec query;
  std::string file_name;
  std::string text;
};

/// Three cases, 6*10^4 tuples each: a 4-clique query on a local random graph
/// (width 3, so generic join), a mostly-dangling three-atom chain and a
/// projection of a two-atom chain (both width 1, so hybrid).
std::vector<ColdFileCase> ColdFileInputs(std::uint64_t seed);

// ---- warm-mutate -----------------------------------------------------------

/// Base instance: K (200 keys) and B (2*10^5 rows) for the key join; H (the
/// hot relation, 500 rows), L and M (10^5 rows each) for the dangling chain.
std::vector<FlatRelation> WarmMutateBase(std::uint64_t seed);

std::vector<QuerySpec> WarmMutateQueries();

/// One relation's share of a mutation batch.
struct RelationDelta {
  std::string relation;
  std::vector<Tuple> inserts;
  std::vector<Tuple> removes;
};

/// One op's mutations: `delta` fresh tuples inserted into and `delta` live
/// tuples removed from B and L, plus a fixed churn of H.
struct MutationBatch {
  std::size_t delta = 0;
  std::vector<RelationDelta> changes;
};

/// The seeded mutation script over WarmMutateBase(seed). It tracks the live
/// rows itself, so batch i depends only on the seed and i, never on the
/// engine.
class MutationScript {
 public:
  MutationScript(std::uint64_t seed, const std::vector<FlatRelation>& base);
  MutationBatch Next();

 private:
  /// Live rows of one relation, packed, with O(1) random removal.
  struct LiveSet {
    std::vector<std::uint64_t> rows;
    std::unordered_map<std::uint64_t, std::size_t> index;
    bool Contains(std::uint64_t key) const { return index.count(key) != 0; }
    void Add(std::uint64_t key);
    std::uint64_t RemoveAt(std::size_t i);
  };

  cqbounds::Rng rng_;
  LiveSet b_, l_, h_;
  Value next_b_value_ = 0;
};

// ---- warm-read -------------------------------------------------------------

/// Base instance: E, a skewed-degree graph of ~10^5 edges; F, a uniform
/// graph for the 2-hop chain; R, S, T, U for the E11-style projection
/// chain; C, the 300-vertex chorded cycle of bench E13.
std::vector<FlatRelation> WarmReadBase(std::uint64_t seed);

/// The read mix, in rotation order (a query may repeat to set its weight).
std::vector<QuerySpec> WarmReadQueries();

/// Writes every workload's inputs for `seed` under `dir` (which must
/// exist): the cold-file text files, the warm bases as text, the first 200
/// warm-mutate batches and the query mixes. Returns false on an I/O error.
bool DumpInputs(std::uint64_t seed, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
