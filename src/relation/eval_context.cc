#include "relation/eval_context.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "relation/evaluate.h"

namespace cqbounds {

namespace {

/// Canonical spelling of a query's shape: everything
/// ProbeLowWidthStructure reads (variable count, atom relation names,
/// per-atom variable ids). Two queries with equal signatures have
/// identical variable-intersection graphs, so they share one plan entry --
/// e.g. the same parsed query object evaluated many times, or two parses
/// of the same text (ParseQuery interns variables in order of appearance).
/// Relation names are length-prefixed: Query places no character
/// restrictions on them, so a name containing the signature's own
/// separators must not let two distinct shapes collide on one key.
std::string PlanSignature(const Query& query) {
  std::ostringstream os;
  os << query.num_variables() << '|';
  for (const Atom& atom : query.atoms()) {
    os << atom.relation.size() << ':' << atom.relation << '(';
    for (std::size_t i = 0; i < atom.vars.size(); ++i) {
      if (i != 0) os << ',';
      os << atom.vars[i];
    }
    os << ");";
  }
  return os.str();
}

}  // namespace

EvalContext::Shard& EvalContext::ShardFor(const Key& key) {
  // Name + layout shape: two layouts of one relation land on (usually)
  // different stripes, so even single-relation self-join workloads spread.
  std::size_t h = std::hash<std::string>{}(key.first);
  for (const std::vector<int>& level : key.second) {
    h = h * 1315423911u + level.size();
    for (int p : level) h = h * 2654435761u + static_cast<std::size_t>(p) + 1;
  }
  return shards_[h % kNumShards];
}

std::shared_ptr<const TrieIndex> EvalContext::GetTrie(
    const Relation& rel, const std::vector<std::vector<int>>& level_positions,
    EvalStats* stats) {
  // Identity, not name equality: a same-named relation from another
  // database can coincide in generation, and serving it a "hit" would
  // silently return a trie over different tuples.
  CQB_CHECK(OwnsRelation(rel) &&
            "relation does not belong to the context's database");
  Key key{rel.name(), level_positions};
  Shard& shard = ShardFor(key);
  const std::uint64_t generation = rel.generation();
  std::shared_ptr<TrieIndex> stale_base;
  std::uint64_t stale_base_generation = 0;
  {
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      if (it->second.generation == generation) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) ++stats->trie_cache_hits;
        return it->second.trie;
      }
      // Stale entry: take it as the delta base. DeltasSince below decides
      // whether the journal can still name both delta sides (splice) or a
      // Clear (or epoch retention) forces the rebuild. Either way the rows
      // named are stable because mutations never overlap evaluations.
      //
      // When the entry is the trie's only owner, move the trie out, so the
      // splice below runs in place. Sole ownership is exclusive: a
      // reference is only gained by copying one (here, under this lock),
      // and a stale entry is refreshed only after a mutation, which no
      // evaluation overlaps, so no reader of the old trie is left. A thread
      // racing this refresh finds the entry empty and rebuilds -- from the
      // same relation state, so its result is just as correct, only wasted
      // work. When a reader still holds the trie, share it instead: the
      // splice then copies it first and the reader's trie is never touched.
      if (it->second.trie.use_count() == 1) {
        stale_base = std::move(it->second.trie);
      } else {
        stale_base = it->second.trie;
      }
      stale_base_generation = it->second.generation;
    }
  }
  // Build outside the stripe lock: a slow cold build must not block other
  // threads' hits on same-stripe keys. Two threads racing the same stale
  // entry may both build -- from the same relation state (mutations are
  // excluded during evaluation), so either result is correct; last insert
  // wins and the loser's trie lives on via its own shared_ptr.
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (stats != nullptr) ++stats->trie_cache_misses;
  std::shared_ptr<TrieIndex> trie;
  Relation::DeltaSet deltas;
  if (stale_base != nullptr &&
      rel.DeltasSince(stale_base_generation, &deltas)) {
    // Splice the net delta into the cached trie -- O(delta) probes plus a
    // shift of each level's suffix, no sort of the base. Removed rows are
    // read from their saved codes, so compactions inside the window change
    // nothing here. A window with no removed rows is a patch, any other an
    // unpatch.
    const RowView appended = deltas.Appended(rel.store());
    const RowView removed = deltas.Removed(rel.store());
    const bool patch = removed.empty();
    (patch ? patches_ : unpatches_).fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) {
      ++(patch ? stats->trie_patches : stats->trie_unpatches);
      stats->delta_tuples_processed += appended.size() + removed.size();
    }
    SpliceOrCopy(&stale_base, appended, removed, level_positions);
    trie = std::move(stale_base);
  } else {
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->trie_rebuilds;
    trie = std::make_shared<TrieIndex>(rel, level_positions);
  }
  {
    MutexLock lock(shard.mu);
    Entry& entry = shard.entries[std::move(key)];
    entry.generation = generation;
    entry.trie = trie;
  }
  return trie;
}

EvalContext::CachedPlan& EvalContext::GetPlan(const Query& query,
                                              EvalStats* stats) {
  std::string key = PlanSignature(query);
  CachedPlan* plan;
  bool inserted;
  {
    MutexLock lock(plan_mu_);
    auto [it, is_new] = plans_.try_emplace(std::move(key));
    plan = &it->second;
    inserted = is_new;
  }
  if (inserted) {
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->plan_cache_misses;
  } else {
    plan_hits_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->plan_cache_hits;
  }
  // Exactly one caller runs the (potentially exponential) probe; the rest
  // block here until it lands. The probe's TreewidthExact run is charged to
  // whichever caller executed it -- under races that may be a "hit" thread
  // that outpaced the inserter, but the total across threads is always one
  // run per shape.
  std::call_once(plan->probe_once, [plan, &query, stats] {
    plan->probe = ProbeLowWidthStructure(query);
    if (stats != nullptr && plan->probe.probe_ran) {
      ++stats->treewidth_probe_runs;
    }
  });
  return *plan;
}

std::size_t EvalContext::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

std::size_t EvalContext::plan_size() const {
  MutexLock lock(plan_mu_);
  return plans_.size();
}

void EvalContext::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.entries.clear();
  }
  MutexLock lock(plan_mu_);
  plans_.clear();
}

}  // namespace cqbounds
