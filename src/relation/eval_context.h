#ifndef CQBOUNDS_RELATION_EVAL_CONTEXT_H_
#define CQBOUNDS_RELATION_EVAL_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "graph/treewidth_bb.h"
#include "relation/database.h"
#include "relation/flat_index.h"
#include "relation/trie_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cqbounds {

struct EvalStats;  // evaluate.h (which includes this header)

/// Result of ProbeLowWidthStructure (relation/evaluate.h): the query's
/// variable-intersection graph numbering plus, when certified, the
/// treewidth witness and the binding order it induces. Depends only on the
/// query's *shape* (atoms and variable layout), never on relation contents,
/// which is what makes it cacheable in the EvalContext plan tier below.
struct LowWidthProbe {
  /// Dense vertex id -> variable id of the variable-intersection graph.
  std::vector<int> body;
  /// Variable id -> dense vertex id (-1 for non-body variables).
  std::vector<int> dense;
  /// Certified exact result (width, elimination order, decomposition);
  /// only meaningful when `low_width`.
  ExactTreewidthResult tw;
  /// True iff the certified width is within kHybridWidthThreshold.
  bool low_width = false;
  /// True iff the exponential TreewidthExact engine actually ran (the graph
  /// passed the size and sparsity gates). The treewidth_probe_runs counter
  /// in EvalStats sums this per evaluation call.
  bool probe_ran = false;
  /// The reverse elimination order mapped back to variable ids -- the
  /// binding order of the tree-decomposition path. Empty unless
  /// `low_width`.
  std::vector<int> order;
};

/// A per-database evaluation context memoizing what repeated evaluations
/// would otherwise recompute from scratch, in two tiers:
///
///  1. a **trie tier**: the sorted-column tries the generic-join executor
///     builds per atom, keyed by (relation name, level-position layout) --
///     the layout is the trie's column permutation induced by the global
///     variable order, so two atoms (in the same query or across queries)
///     that index the same relation the same way share one trie;
///  2. a **plan tier**: the ProbeLowWidthStructure result (certified width,
///     decomposition, binding order) keyed by the *query shape* (atom
///     relation names + variable layout), so a warm hybrid run performs
///     zero TreewidthExact calls. Each plan entry also keeps the books of
///     its last semi-join reduction pass (SemijoinState), keyed by the
///     relation generations it observed, so the hybrid plan's one
///     maintenance routine (a counting delta pass) does no work when
///     nothing changed since and only the delta's work when the journal
///     can name what did.
///
/// Invalidation: trie entries snapshot Relation::generation() at build time
/// and are refreshed (counted as a miss) when the relation mutated since.
/// The refresh is delta-aware: while the journal's Relation::DeltasSince
/// can name the window's appended and removed rows, they are *spliced* into
/// the stale trie by TrieIndex::Splice -- O(k log k) for k delta rows plus
/// O(k * depth) probes and a shift of each level's suffix past its first
/// edit, instead of a from-scratch O(n log n) sort. The splice runs in
/// place when the cache entry is the trie's only owner, and on a copy
/// when a reader still holds it (see Concurrency). The trie's per-key
/// support counts subtract removals exactly, read from the journal's saved
/// codes, so a window that crossed compactions splices too (tries hold no
/// row ids). A window with no removed rows counts as a patch
/// (EvalStats::trie_patches), any other as an unpatch
/// (EvalStats::trie_unpatches). Only a Clear, or a snapshot older than
/// the journal's epoch retention, forces the full rebuild (EvalStats::
/// trie_rebuilds). Plan entries depend only on the
/// query shape and never go stale from data mutations -- only their
/// semi-join state is generation-checked per use. The context holds a
/// pointer to its Database, whose relations live in a std::map, so cached
/// references stay stable across insertions of new relations.
///
/// ## Concurrency
///
/// One context safely serves any number of concurrent evaluation threads
/// (the shared-memo-table shape of a chess engine's transposition table
/// serving N search threads):
///
///  - the trie tier is sharded into lock-striped buckets, so lookups on
///    different relations rarely contend, and entries hold the trie behind
///    a shared_ptr -- a thread holding a trie keeps it alive, and the trie
///    it holds never changes: a refresh splices a stale trie in place only
///    when the entry is its sole owner (no reader holds it, which the
///    readers-xor-writer contract below makes an exclusive fact), and
///    otherwise splices a copy and swaps the entry's pointer, so no reader
///    ever observes a dangling, half-built or half-spliced index. Two
///    threads racing a cold entry may both build; a thread racing a stale
///    entry another thread has moved out to splice finds it empty and
///    rebuilds. The duplicate build is wasted work, never wrong data (both
///    build from the same relation state), and each build is still counted
///    as a miss;
///  - the plan tier fills each entry's probe exactly once per query shape
///    (std::call_once), so concurrent first evaluations of one shape run
///    one TreewidthExact probe total, with late arrivals blocking until it
///    lands; the per-entry semi-join skip state is guarded by its own
///    mutex (see CachedPlan);
///  - lifetime counters are atomics.
///
/// What stays on the caller: **relation mutations must not overlap
/// evaluations** through the context (the standard readers-xor-writer
/// contract -- Relation itself is not a concurrent structure), `Clear()`
/// requires the same exclusivity (it invalidates outstanding plan
/// references), and an EvalStats object must not be shared between
/// concurrently evaluating threads. Interleaving is fine: mutate, then run
/// any number of parallel evaluations, then mutate again.
///
/// The intra-context part of this contract is machine-checked: every
/// mutex-guarded member carries a CQB_GUARDED_BY annotation
/// (util/thread_annotations.h), so a Clang build with
/// -DCQBOUNDS_THREAD_SAFETY=ON fails to compile any access to `entries`,
/// `plans_`, or a plan's `semijoin` state outside its lock. See
/// docs/STATIC_ANALYSIS.md.
class EvalContext {
 public:
  explicit EvalContext(const Database& db) : db_(&db) {}

  /// Cached outcome of one semi-join reduction pass under a plan -- the
  /// working state of the counting delta pass -- keyed by the generation
  /// vector it was computed at. Written only by that pass (RunDeltaPass in
  /// relation/evaluate.cc), the hybrid plan's one maintenance routine;
  /// every field is guarded by CachedPlan's `skip_mu`.
  ///
  /// Cost model: the pass brings the books forward by each atom's
  /// mutation window. From empty books (the first pass, or a window the
  /// journal cannot name) every live row counts as appended, and the pass
  /// reads every live self-consistent row's key once per schedule step it
  /// takes part in (as a source only while it survives). Otherwise it
  /// reads the keys of the windows' rows -- an appended row at most once
  /// per step of its atom -- then walks only the chains of keys whose
  /// support crossed zero; every per-row book it consults is an array
  /// read. That work is O(delta + rows sharing a changed key), never a
  /// scan of an atom (EvalStats::semijoin_rows_visited counts it), and
  /// nothing at all on empty windows. A window in which an atom compacted
  /// first remaps that atom's row-indexed books (`drop_step` and the
  /// chains of the steps targeting it) onto current row ids: O(|atom| +
  /// its keys) array work, no key reads, and nothing for the atoms that
  /// did not compact.
  struct SemijoinState {
    /// drop_step value of a row that survived every step.
    static constexpr std::uint32_t kSurvives = 0xFFFFFFFFu;
    /// drop_step value of a row the pass does not track: tombstoned, or
    /// failing the atom's repeated-variable filter.
    static constexpr std::uint32_t kAbsent = 0xFFFFFFFEu;

    /// Atom i's relation generation observed when this state was computed
    /// -- the survivor-view cache key, and the start of atom i's mutation
    /// window for the next pass. A run whose generation vector matches
    /// sees only empty windows and reuses the survivor views outright; a
    /// window the journal cannot name (Relation::DeltasSince) resets the
    /// books to empty.
    std::vector<std::uint64_t> generations;
    /// Per atom: true iff every live tuple of its relation survived the
    /// pass (dangling[i] == 0).
    std::vector<bool> all_survive;
    /// Per atom with !all_survive[i]: the survivor trie (the zero-copy
    /// filtered view, already keyed by the plan's layout for that atom);
    /// null where all_survive[i]. Reuse hands out copies of the
    /// shared_ptr; the delta pass unpatches the view through SpliceOrCopy
    /// -- in place, since between evaluations this state is the view's
    /// only owner, and on a copy should anyone still hold it.
    std::vector<std::shared_ptr<TrieIndex>> survivor_tries;
    /// Per schedule step (the deterministic up+down filter order derived
    /// from the decomposition): the step's key table with support counts
    /// and per-key chains through the target atom's rows. Counts -- not
    /// sets -- make removals O(delta): a source row leaving decrements its
    /// key, a key hitting zero kills the target rows on its chain, and a
    /// key coming back from zero *revives* the chain's rows dropped at
    /// exactly this step. Every self-consistent target row present at the
    /// last pass sits on its key's chain, whatever its fate (an appended
    /// row joins it at its step's re-check); removed rows stay linked
    /// until a compaction drops them (the remap unlinks them) and are
    /// filtered out by their kAbsent drop step meanwhile.
    std::vector<KeyedIndex> steps;
    /// Per atom, per physical row of its store: the first schedule step
    /// that dropped the row, kSurvives, or kAbsent. Rows appended after
    /// the state was computed lie past the end.
    std::vector<std::vector<std::uint32_t>> drop_step;
    /// Per atom: how many rows carry a drop step (the dangling census).
    std::vector<std::size_t> dangling;
  };

  /// One plan-tier entry. `probe` is filled exactly once (concurrent
  /// GetPlan calls for one shape run one probe, the rest wait) and is
  /// immutable afterwards; the semi-join state is maintained by the
  /// hybrid plan's reduction pass and must only be touched with `skip_mu`
  /// held.
  struct CachedPlan {
    LowWidthProbe probe;
    /// Last completed reduction pass's outcome, or null before the first
    /// pass. Guarded by `skip_mu` (pointer and pointee -- the analysis
    /// rejects both unlocked reseats and unlocked dereferences); the hybrid
    /// executor holds `skip_mu` across the pass, so
    /// concurrent post-mutation runs of one shape serialize the pass and
    /// late arrivals reuse the fresh state instead of duplicating it.
    std::unique_ptr<SemijoinState> semijoin CQB_GUARDED_BY(skip_mu)
        CQB_PT_GUARDED_BY(skip_mu);
    /// Guards `semijoin` against concurrent hybrid evaluations of the same
    /// shape.
    Mutex skip_mu;
    /// Fills `probe` exactly once (GetPlan); `probe` is immutable
    /// afterwards, which is why it needs no capability of its own.
    std::once_flag probe_once;
  };

  /// The cached trie for `rel` under `level_positions`, building (or
  /// refreshing, if `rel` mutated since -- a delta splice when the journal
  /// can name the window, compactions included, counted as a patch when it
  /// removed no rows and an unpatch otherwise; a full rebuild only past a
  /// Clear or the journal's epoch retention) on demand. `rel` must belong
  /// to the attached database -- checked by identity, not by name, and
  /// enforced with CQB_CHECK: a same-named relation from another database
  /// can coincide in generation, and serving it a "hit" would silently
  /// return a trie over different tuples. Hit/miss counters are bumped both
  /// on the context (lifetime totals) and in `stats` (per-call) when
  /// non-null.
  ///
  /// The returned trie is immutable and stays alive for as long as the
  /// caller holds the pointer, even if the entry is concurrently (or
  /// later) refreshed after a relation mutation -- a refresh splices in
  /// place only a trie nobody else holds; a held one it copies, splices
  /// the copy and swaps the entry's shared_ptr, never touching the held
  /// index.
  std::shared_ptr<const TrieIndex> GetTrie(
      const Relation& rel, const std::vector<std::vector<int>>& level_positions,
      EvalStats* stats);

  /// The cached plan for `query`'s shape, running ProbeLowWidthStructure on
  /// first use (a plan miss; the probe's TreewidthExact run, if any, lands
  /// in `stats->treewidth_probe_runs` of whichever caller executed it).
  /// Warm calls are a keyed map lookup under a short lock: zero graph
  /// builds, zero treewidth probes. The returned reference stays valid
  /// until Clear() or context destruction; only its semi-join state
  /// (under skip_mu) may be updated in place by the hybrid executor.
  CachedPlan& GetPlan(const Query& query, EvalStats* stats);

  /// True iff `rel` is the attached database's relation of that name (the
  /// identity GetTrie enforces).
  bool OwnsRelation(const Relation& rel) const {
    return db_->Find(rel.name()) == &rel;
  }

  const Database& database() const { return *db_; }

  /// Lifetime totals across every evaluation run through this context.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t plan_hits() const {
    return plan_hits_.load(std::memory_order_relaxed);
  }
  std::size_t plan_misses() const {
    return plan_misses_.load(std::memory_order_relaxed);
  }
  /// Of the lifetime misses: how many were served by splicing a window
  /// with no removed rows into a stale cached trie (patch), by splicing any
  /// other window (unpatch, support counts subtracted), or by rebuilding
  /// from scratch. patches() + unpatches() + rebuilds() == misses() for
  /// this tier.
  std::size_t patches() const {
    return patches_.load(std::memory_order_relaxed);
  }
  std::size_t unpatches() const {
    return unpatches_.load(std::memory_order_relaxed);
  }
  std::size_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

  /// Number of distinct (relation, layout) tries currently cached.
  std::size_t size() const;
  /// Number of distinct query shapes currently cached in the plan tier.
  std::size_t plan_size() const;

  /// Drops every cached trie and plan (counters are kept). Requires
  /// exclusive access: no concurrent evaluation may be running, and plan
  /// references obtained earlier are invalidated.
  void Clear();

 private:
  using Key = std::pair<std::string, std::vector<std::vector<int>>>;
  struct Entry {
    std::uint64_t generation = 0;
    /// Null while a refresh has moved the trie out to splice it in place.
    std::shared_ptr<TrieIndex> trie;
  };

  /// Lock striping: keys hash onto a fixed set of independently locked
  /// buckets, so concurrent lookups of different relations (or layouts)
  /// proceed without contention. 16 shards is plenty for the handful of
  /// atoms per query; the stripe count only bounds *lock* parallelism, not
  /// entry capacity.
  static constexpr std::size_t kNumShards = 16;
  struct Shard {
    mutable Mutex mu;
    std::map<Key, Entry> entries CQB_GUARDED_BY(mu);
  };

  Shard& ShardFor(const Key& key);

  const Database* db_;
  Shard shards_[kNumShards];
  /// Guards the plans_ *map structure* (insertions, Clear), never the
  /// entries behind it: GetPlan hands out stable CachedPlan references
  /// whose mutable state has its own per-plan capability (skip_mu).
  mutable Mutex plan_mu_;
  std::map<std::string, CachedPlan> plans_ CQB_GUARDED_BY(plan_mu_);
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> patches_{0};
  std::atomic<std::size_t> unpatches_{0};
  std::atomic<std::size_t> rebuilds_{0};
  std::atomic<std::size_t> plan_hits_{0};
  std::atomic<std::size_t> plan_misses_{0};
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_EVAL_CONTEXT_H_
