#ifndef CQBOUNDS_RELATION_EVALUATE_H_
#define CQBOUNDS_RELATION_EVALUATE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "cq/query.h"
#include "graph/treewidth_bb.h"
#include "relation/database.h"
#include "relation/eval_context.h"
#include "util/status.h"

namespace cqbounds {

class ThreadPool;  // util/thread_pool.h

/// How intermediate results are managed during conjunctive query evaluation.
enum class PlanKind {
  /// Left-deep hash joins keeping every bound variable until the end: the
  /// textbook baseline, whose intermediates can exceed the final output.
  kNaive,
  /// The join-project plan of Corollary 4.8 / Atserias et al. Theorem 15:
  /// after each join, intermediates are projected onto the variables still
  /// needed (head variables plus variables of unprocessed atoms), keeping
  /// intermediate sizes within the rmax^C envelope.
  kJoinProject,
  /// Worst-case-optimal generic join: one sorted-column trie per atom
  /// (trie_index.h), variables bound one at a time by a leapfrog-style
  /// multiway intersection. The number of bindings enumerated at every
  /// depth is bounded by the AGM envelope rmax^{rho*} of the full join --
  /// the executor *meets* the Prop 4.1/4.3 size bound instead of merely
  /// stating it. See docs/EVALUATION.md.
  kGenericJoin,
  /// Hybrid for low-width queries: when the exact treewidth engine
  /// certifies that the variable-intersection graph has width <=
  /// kHybridWidthThreshold, a Yannakakis-style semi-join reduction pass
  /// runs up and down the certified TreeDecomposition, filtering dangling
  /// tuples out of every atom before a generic-join enumeration over the
  /// reduced relations (whose intermediates are a subset of the plain
  /// generic join's, so the AGM envelope still holds), binding along the
  /// reverse elimination order (LowWidthProbe::order). High-width queries
  /// fall back to plain generic join over DefaultGenericJoinOrder.
  /// ChooseGenericJoinOrder recommends this plan only where the generic
  /// join is not provably input-linear (core/join_plan.h,
  /// GenericJoinIsInputLinear). The reduction is
  /// zero-copy: atoms that lost tuples hand a filtered view of their
  /// survivors straight to trie construction. Through an EvalContext the
  /// width probe runs once per query shape and the reduction's books are
  /// kept in the plan tier and maintained by one counting delta pass
  /// (docs/EVALUATION.md "Delta maintenance"): from empty books on first
  /// use or after a Clear, by the mutation windows afterwards, and with no
  /// work at all on unchanged generations, where the cached survivor views
  /// are reused outright -- zero TreewidthExact calls, zero semi-joins,
  /// zero trie builds, zero tuple copies.
  kHybridYannakakis,
};

/// Short display name for `kind` ("naive", "join-project", "generic-join",
/// "hybrid-yannakakis").
const char* PlanKindName(PlanKind kind);

/// Width gate of the hybrid plan and of ChooseGenericJoinOrder's
/// tree-decomposition path: the certified-decomposition machinery engages
/// only when the variable-intersection graph has treewidth <= this.
inline constexpr int kHybridWidthThreshold = 2;

/// Vertex cap for the exact treewidth probe on variable-intersection
/// graphs (matches the engine's practical range on sparse graphs).
inline constexpr int kHybridExactVertexLimit = 40;

/// Builds the variable-intersection graph (body variables adjacent iff
/// they share an atom) and, when it is small and sparse enough
/// (kHybridExactVertexLimit; width-<=2 graphs are K4-minor-free with at
/// most 2n-3 edges, so denser graphs skip the exponential probe), runs the
/// certified exact treewidth engine. The single implementation shared by
/// ChooseGenericJoinOrder (core/join_plan.cc) and the hybrid executor, so
/// the planner's recommendation and the executor's own gate cannot drift
/// apart. The LowWidthProbe result type lives in relation/eval_context.h,
/// whose plan tier memoizes this probe by query shape -- prefer evaluating
/// through an EvalContext so warm runs never re-probe.
LowWidthProbe ProbeLowWidthStructure(const Query& query);

/// Counters reported by the evaluators, used by the E10 benchmark and the
/// oracle tests to contrast the three plans against the paper's envelopes.
struct EvalStats {
  /// Largest intermediate binding set encountered.
  std::size_t max_intermediate = 0;
  /// Sum of intermediate sizes after each join step.
  std::size_t total_intermediate = 0;
  /// Number of tuples in the output relation.
  std::size_t output_size = 0;
  /// Intermediate size per step: bindings alive after each join for the
  /// binary-join plans; bindings enumerated per *variable depth* (in the
  /// global variable order) for the generic join. max/total above aggregate
  /// this vector.
  std::vector<std::size_t> intermediate_sizes;
  /// Tuples inserted into per-atom indexes (hash buckets for the binary
  /// plans, trie keys for the generic join). Guards the empty-join
  /// short-circuit: once no binding survives, later atoms are not indexed.
  std::size_t indexed_tuples = 0;
  /// Generic join only: the intersections' unit of work -- one per
  /// SeekGE or gallop and one per rank-bitmap probe of a heavy node's
  /// children; advancing the shortest range that drives a probed depth is
  /// not counted.
  std::size_t intersection_seeks = 0;
  /// Tries served from the EvalContext cache without rebuilding.
  std::size_t trie_cache_hits = 0;
  /// Tries (re)built this call: cache misses of the caller's EvalContext,
  /// or of the context local to a context-free call, whose every distinct
  /// (relation, layout) misses once (the rebuild-per-call cost a kept
  /// context exists to eliminate).
  std::size_t trie_cache_misses = 0;
  /// Plans served from the EvalContext plan tier without re-probing.
  std::size_t plan_cache_hits = 0;
  /// Plans (re)derived this call: plan-tier misses of the caller's
  /// EvalContext, or the one miss of a context-free call's local context
  /// (the re-probe cost a kept plan tier exists to eliminate).
  std::size_t plan_cache_misses = 0;
  /// TreewidthExact invocations made by this call (0 on every warm
  /// plan-cache hit; also 0 when the variable graph failed the size or
  /// sparsity gates and the exponential probe never ran).
  std::size_t treewidth_probe_runs = 0;
  /// Hybrid plan only: tuples removed from atom relations by the
  /// Yannakakis semi-join reduction pass (0 when the plan fell back to
  /// plain generic join or nothing dangled).
  std::size_t semijoin_dropped_tuples = 0;
  /// Hybrid plan only: true iff the semi-join reduction pass did work:
  /// from empty books (the first pass of a plan, so every pass of a
  /// context-free call, or after a Clear or a window past the journal's
  /// epoch retention) or as a delta pass (semijoin_delta_pass). False when
  /// the plan fell back to plain generic join, when the pass found nothing
  /// to do (see semijoin_pass_skipped), or when an uncertified bag
  /// assignment abandoned it -- previously that abandonment was silent and
  /// the stats read as if the hybrid had engaged.
  bool semijoin_pass_ran = false;
  /// Hybrid plan only: true iff the cached semi-join books' generation
  /// vector matches every atom relation's current generation, so every
  /// mutation window was empty and the pass did no work: the previous
  /// pass's outcome (clean or not) is still exact, and its survivor views
  /// are reused outright (survivor_view_hits counts the atoms that reused
  /// a cached survivor trie).
  bool semijoin_pass_skipped = false;
  /// Trie tier: cache misses served by *patching* a cached trie -- the
  /// journal names the window since the cached build (Relation::
  /// DeltasSince) and it removed no rows, so the appended keys were
  /// spliced into the cached trie instead of sorting the whole relation --
  /// in place when no reader still holds it, on a copy otherwise
  /// (SpliceOrCopy in relation/trie_index.h). Every patch also counts in
  /// trie_cache_misses (the cached entry was stale).
  std::size_t trie_patches = 0;
  /// Trie tier: cache misses served by *unpatching* a cached trie -- as a
  /// patch, but the window removed rows too, so the splice also subtracts
  /// the removed keys' support: O(delta * depth) probes and edits, with the
  /// untouched runs moved in bulk, no sort of the base, and in place unless
  /// a reader holds the trie. Every unpatch also counts in
  /// trie_cache_misses.
  std::size_t trie_unpatches = 0;
  /// Trie tier: cache misses that ran the full from-scratch relation sort
  /// -- cold entries, or stale entries whose relation was cleared (or
  /// whose snapshot fell out of the journal's epoch retention) since the
  /// cached build. trie_patches + trie_unpatches + trie_rebuilds <=
  /// trie_cache_misses: survivor-view tries built by the hybrid's
  /// reduction pass count as misses only.
  std::size_t trie_rebuilds = 0;
  /// Hybrid plan only: atoms whose enumeration reused the cached semi-join
  /// survivor view (survivor trie) from a previous pass under the same
  /// plan, keyed by the atom relations' generation vector -- no re-filter,
  /// no survivor-trie rebuild.
  std::size_t survivor_view_hits = 0;
  /// Mutated tuples routed through a delta path this call: tuples spliced
  /// into patched tries plus the appended and removed rows of the
  /// semi-join pass's mutation windows (the "k" in the O(k . index work)
  /// cost of a small mutation). A pass from empty books has no window and
  /// adds nothing here.
  std::size_t delta_tuples_processed = 0;
  /// Hybrid plan only: true iff the semi-join reduction ran on cached
  /// books -- the SemijoinState's per-step key support counts were
  /// adjusted by the mutation windows instead of re-reducing the database.
  /// A delta pass sets semijoin_pass_ran too; a pass from empty books
  /// leaves this false.
  bool semijoin_delta_pass = false;
  /// Hybrid delta pass only: previously-dropped tuples revived because a
  /// semi-join key they were waiting on came back from support zero.
  std::size_t semijoin_revived_tuples = 0;
  /// Hybrid delta pass only: previously-surviving tuples killed because a
  /// key supporting them dropped to zero (plus appended tuples that arrived
  /// dangling count under semijoin_dropped_tuples, not here).
  std::size_t semijoin_killed_tuples = 0;
  /// Hybrid plan: total tuples currently dangling (dropped by the semi-join
  /// state in force after this call), whether the pass ran, delta-ran, or
  /// was skipped. The oracle checks this against a from-scratch
  /// re-reduction's semijoin_dropped_tuples.
  std::size_t semijoin_dangling_tuples = 0;
  /// Hybrid plan: row visits of the semi-join pass that ran this call --
  /// one per row key a step read, plus one per row reached through a key's
  /// chain (the kill and revival walks). A pass from empty books visits
  /// every live self-consistent row once per step it takes part in (as a
  /// source only while it survives); a delta pass visits each appended row
  /// at most once per step it takes part in, plus the removed rows and the
  /// rows sharing a key whose support crossed zero. 0 when the pass found
  /// nothing to do.
  std::size_t semijoin_rows_visited = 0;
  /// Generic join: sibling scans truncated by the projection-aware early
  /// exit -- once the bound prefix covers every head variable, a single
  /// witness of the remaining variables suffices, so the search returns as
  /// soon as one completion is found instead of enumerating (and deduping
  /// away) every other witness.
  std::size_t projection_subtrees_skipped = 0;
  /// Generic join: number of threads (pool workers plus the calling
  /// thread) that executed the partitioned depth-0 search, or 0 when the
  /// evaluation ran single-threaded (no pool, no workers, too few depth-0
  /// bindings to split, or a plan that never reaches the trie executor).
  std::size_t parallel_workers = 0;
};

/// One step of a binary join plan: join body atom `atom_index` into the
/// current bindings, then project the bindings onto `keep_vars`.
struct JoinPlanStep {
  int atom_index = 0;
  /// Variable ids kept after the join, each once.
  std::vector<int> keep_vars;
};

/// The one binary-join executor (kNaive and kJoinProject run their
/// query-order plans through it): left-deep hash joins in `steps` order,
/// each projected and deduped onto its keep set when that drops a bound
/// variable. Once no binding survives, later atoms are resolved but not
/// indexed.
///
/// Errors: kInvalidArgument, before any data is read, unless `steps` is a
/// permutation of the body atoms, each keep set is bound after its step,
/// no step drops a variable a later atom reads, and the last keep set
/// holds the head; otherwise as EvaluateQuery, `stats` included.
Result<Relation> ExecuteJoinPlan(const Query& query,
                                 const std::vector<JoinPlanStep>& steps,
                                 const Database& db, EvalStats* stats);

/// Evaluates `query` over `db`, producing the head relation Q(D) with set
/// semantics: all tuples theta(u0) for substitutions theta satisfying every
/// body atom (Section 2 of the paper). PlanKind::kGenericJoin runs
/// EvaluateGenericJoin's executor over DefaultGenericJoinOrder (use
/// ChooseGenericJoinOrder in core/join_plan.h for the LP/treewidth-derived
/// order).
///
/// `ctx` (may be null) caches the trie-based plans' (kGenericJoin,
/// kHybridYannakakis) per-atom tries and plans across calls; it must be
/// attached to `db`. Without one, those plans run through a context local
/// to the call: atoms that index one relation under one layout share a
/// trie within the call, and nothing is kept past it. The binary-join plans
/// accept but ignore `ctx` (their transient hash indexes are not cached).
///
/// `pool` (may be null; util/thread_pool.h) fans the trie-based plans'
/// enumeration out by partitioning the depth-0 leapfrog intersection: the
/// matches of the first variable in the binding order are enumerated once
/// (cheap -- one trie level), then claimed dynamically by the pool's
/// workers plus the calling thread, each descending its claimed subtrees
/// with private scratch and a private answer sink; answers and stats are
/// merged when every subtree finishes. Every worker's per-depth binding
/// counts still sum to the serial run's, so the AGM envelope guarantee is
/// unchanged -- as are results, exactly. The merge takes the answers in
/// depth-0 match order and keeps each head tuple's first occurrence, so for
/// every query even the row order equals the serial run's. The search
/// stays serial when `pool` is null or has no workers, when there are fewer
/// than two depth-0 matches to split, or when the head is variable-free (a
/// pure existence check, where the serial early exit stops at the first
/// witness and parallel fan-out would only waste work);
/// EvalStats::parallel_workers reports the fan-out actually used. The
/// hybrid's semi-join reduction itself stays serial, and the binary-join
/// plans ignore the pool. Safe for concurrent callers sharing one `ctx`.
///
/// Errors: kNotFound if a body relation is missing from `db`;
/// kInvalidArgument if an atom's arity disagrees with the stored relation
/// or `ctx` is attached to another database. `stats` may be null; when
/// non-null it is fully reassigned on *every* exit path, success or error
/// -- a caller reusing one EvalStats across calls never reads the previous
/// run's counters.
Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalContext* ctx = nullptr,
                               ThreadPool* pool = nullptr,
                               EvalStats* stats = nullptr);

/// The worst-case-optimal executor: builds one TrieIndex per atom keyed by
/// `variable_order` (which must enumerate every body variable exactly once)
/// and binds variables in that order with leapfrog intersections. Any order
/// preserves the AGM envelope on intermediates; the order affects constants
/// (seek counts), not the worst-case guarantee. Serial, through a context
/// local to the call (see EvaluateQuery); EvaluateQuery's kGenericJoin runs
/// the same executor over DefaultGenericJoinOrder through a caller's
/// context and a pool.
///
/// Errors: as EvaluateQuery, plus kInvalidArgument if `variable_order` is
/// not a permutation of the body variables.
Result<Relation> EvaluateGenericJoin(const Query& query, const Database& db,
                                     const std::vector<int>& variable_order,
                                     EvalStats* stats = nullptr);

/// A dependency-light default variable order: greedy by atom-degree
/// (variables constrained by more atoms first), extending connected-first so
/// intersections bind early. Deterministic. core/join_plan.h's
/// ChooseGenericJoinOrder upgrades this with fractional-edge-cover weights
/// and certified tree decompositions.
std::vector<int> DefaultGenericJoinOrder(const Query& query);

/// Shared greedy skeleton of the variable-order heuristics: orders the body
/// variables of `query`, repeatedly picking -- among the unordered variables
/// sharing an atom with the ordered prefix, or all remaining ones when no
/// such neighbour exists -- the candidate that `strictly_better` prefers
/// over the incumbent. Candidates are scanned in increasing variable id, so
/// ties go to the smallest id. Deterministic.
std::vector<int> ConnectedFirstOrder(
    const Query& query,
    const std::function<bool(int incumbent, int candidate)>& strictly_better);

/// Equi-join R x S keeping all columns of both inputs (the treewidth
/// sections of the paper treat the result of R join_{A=B} S as a relation of
/// arity arity(R)+arity(S) whose Gaifman graph merges each matched pair of
/// tuples). `pairs` lists (position in R, position in S) equality conditions.
Relation EquiJoin(const Relation& left, const Relation& right,
                  const std::vector<std::pair<int, int>>& pairs,
                  const std::string& result_name = "join");

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_EVALUATE_H_
