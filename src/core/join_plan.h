#ifndef CQBOUNDS_CORE_JOIN_PLAN_H_
#define CQBOUNDS_CORE_JOIN_PLAN_H_

#include <string>
#include <vector>

#include "cq/query.h"
#include "relation/database.h"
#include "relation/evaluate.h"
#include "util/rational.h"
#include "util/status.h"

namespace cqbounds {

/// An explicit join-project plan in the sense of Corollary 4.8 / Atserias
/// et al. Theorem 15: an atom order plus per-step projections. Run it with
/// ExecuteJoinPlan(query, plan.steps, db, stats) (relation/evaluate.h).
struct JoinPlan {
  std::vector<JoinPlanStep> steps;
  /// The Corollary 4.8 time-budget exponent: intermediates stay within
  /// rmax^{C(chase(Q))} and the work within rmax^{C+1} when the guarantee
  /// applies.
  Rational cost_exponent;
  /// True when the paper's guarantee applies: simple FDs only and every
  /// variable occurs in the head (Cor 4.8's precondition). The plan is
  /// still correct otherwise; only the complexity envelope is unproven --
  /// indeed evaluating projection queries with C == 1 can already be
  /// NP-hard (remark after Cor 4.8).
  bool guaranteed = false;

  std::string ToString(const Query& query) const;
};

/// Builds the join-project plan for `query`:
///  - atoms are ordered greedily for connectivity (each next atom shares a
///    maximal number of variables with the already-joined prefix, breaking
///    ties toward smaller new-variable count -- a standard heuristic that
///    avoids accidental cartesian products);
///  - after each step, bindings are projected onto head variables plus the
///    variables of not-yet-joined atoms;
///  - the cost exponent is C(chase(Q)) + 1 from the simple-FD pipeline.
Result<JoinPlan> BuildJoinProjectPlan(const Query& query);

/// How ChooseGenericJoinOrder derived its variable order.
enum class VariableOrderSource {
  /// Reverse elimination order of the certified TreewidthExact decomposition
  /// of the query's variable-intersection graph (taken when the graph is
  /// acyclic or low-width): each variable's already-bound neighbours form a
  /// clique, so trie descents stay aligned.
  kTreeDecomposition,
  /// Greedy by fractional-edge-cover mass: variables whose atoms carry more
  /// optimal cover weight bind first (they are intersected by more of the
  /// relations that pay for the AGM envelope), extended connected-first.
  kFractionalCover,
  /// Atom-degree greedy order (DefaultGenericJoinOrder): the fallback when
  /// the cover LP is unavailable, and the low-width order when it carries
  /// the input-linear certificate and the elimination order does not.
  kGreedy,
};

/// Short lowercase name for `source` ("tree-decomposition", ...).
const char* VariableOrderSourceName(VariableOrderSource source);

/// A variable order for the generic-join executor, plus the certificates
/// that chose it. Any order is correct and worst-case optimal; this module
/// only tunes the constants (seek counts, trie reuse).
struct GenericJoinOrder {
  /// Every body variable exactly once, in binding order. Feed to
  /// EvaluateGenericJoin (relation/evaluate.h).
  std::vector<int> order;
  VariableOrderSource source = VariableOrderSource::kGreedy;
  /// rho*(full join) -- the AGM envelope exponent: the generic join
  /// enumerates at most rmax^envelope_exponent bindings at every depth.
  Rational envelope_exponent;
  /// Certified treewidth of the variable-intersection graph when the
  /// low-width path (width <= kHybridWidthThreshold) was taken; -1
  /// otherwise.
  int intersection_width = -1;
  /// The executor this module recommends: kHybridYannakakis exactly when
  /// the low-width path certified (the same gate the hybrid executor
  /// re-derives, so EvaluateQuery's kHybridYannakakis semi-join pass will
  /// actually engage) and the generic join is not provably input-linear
  /// (GenericJoinIsInputLinear) under DefaultGenericJoinOrder, the order
  /// EvaluateQuery's kGenericJoin binds in; kGenericJoin otherwise.
  /// PlanReasonName says which case.
  PlanKind recommended_plan = PlanKind::kGenericJoin;

  std::string ToString(const Query& query) const;
};

/// Why ChooseGenericJoinOrder recommended `order.recommended_plan`, read off
/// its fields: "width>2" (no certified width <= kHybridWidthThreshold, so
/// the hybrid's reduction pass cannot engage), "input-linear" (low width,
/// and the certificate holds: no semi-join pass can lower any depth's
/// bound) or "reduction-may-pay" (low width without the certificate).
const char* PlanReasonName(const GenericJoinOrder& order);

/// The planner's certificate that the generic join over `order` (a
/// permutation of the body variables) enumerates O(input + output)
/// bindings. True when (1) the variables before the last all lie in one
/// atom R_j, so every depth below the last binds distinct tuples of a
/// projection of R_j, at most |R_j| of them; and (2) the last variable is
/// projected away, so its depth runs witness-only (at most one binding per
/// binding of the depth above), or the head covers the body, so that
/// depth's bindings are the answers. A semi-join reduction only removes
/// tuples, so it cannot lower either bound. False for an `order` that is
/// not a permutation of the body variables.
bool GenericJoinIsInputLinear(const Query& query,
                              const std::vector<int>& order);

/// Derives the generic-join variable order for `query`: solves the
/// full-body fractional edge cover LP (the AGM envelope and the weight
/// heuristic), and runs the exact treewidth engine on the query's
/// variable-intersection graph, preferring the certified elimination order
/// when the graph is low-width (<= 2; chains, trees, cycles, triangles).
/// On that path the generic join is recommended when
/// DefaultGenericJoinOrder carries the input-linear certificate, and the
/// order is then the elimination order if it carries the certificate too,
/// else the default order: a recommended generic join is certified in the
/// order returned and in the order EvaluateQuery runs. Without the
/// certificate the hybrid is recommended over the elimination order.
///
/// A non-null `ctx` shares its plan tier (relation/eval_context.h) for the
/// treewidth probe: the planner and the hybrid executor then derive their
/// low-width certificates from the same cached entry, so planning a query
/// that was already evaluated (or evaluating one that was already planned)
/// re-runs zero TreewidthExact calls.
Result<GenericJoinOrder> ChooseGenericJoinOrder(const Query& query,
                                                EvalContext* ctx = nullptr);

}  // namespace cqbounds

#endif  // CQBOUNDS_CORE_JOIN_PLAN_H_
