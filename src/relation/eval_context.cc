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

/// Fibonacci multiply per value, folding the well-mixed high half into the
/// low bits the slot mask keeps (the ValueDictionary hash, chained).
std::size_t HashKey(const Value* key, std::size_t width) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < width; ++i) {
    h = (h ^ static_cast<std::uint64_t>(key[i])) * 0x9E3779B97F4A7C15ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

void EvalContext::StepKeys::Reset(std::size_t width,
                                  std::size_t expected_keys,
                                  std::size_t target_rows) {
  CQB_CHECK(width >= 1);
  width_ = width;
  keys_.clear();
  entries_.clear();
  next_.clear();
  keys_.reserve(expected_keys * width);
  entries_.reserve(expected_keys);
  next_.reserve(target_rows);
  // Load factor under 1/2 once every expected key has landed.
  std::size_t capacity = 16;
  while (capacity < 2 * (expected_keys + 1)) capacity *= 2;
  Rehash(capacity);
}

std::size_t EvalContext::StepKeys::ProbeSlot(const Value* key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = HashKey(key, width_) & mask;
  while (slots_[slot] != kNone &&
         !std::equal(key, key + width_,
                     keys_.begin() + slots_[slot] * width_)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void EvalContext::StepKeys::Rehash(std::size_t capacity) {
  slots_.assign(capacity, kNone);
  const std::size_t mask = capacity - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    // Keys are distinct: probe straight to the first free slot.
    std::size_t slot = HashKey(&keys_[e * width_], width_) & mask;
    while (slots_[slot] != kNone) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(e);
  }
}

std::uint32_t EvalContext::StepKeys::Find(const Value* key) const {
  return slots_[ProbeSlot(key)];
}

std::uint32_t EvalContext::StepKeys::FindOrInsert(const Value* key) {
  // Keep the load factor under 1/2 counting the key about to land.
  if ((entries_.size() + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
  const std::size_t slot = ProbeSlot(key);
  if (slots_[slot] != kNone) return slots_[slot];
  CQB_CHECK(entries_.size() < kNone);
  const auto entry = static_cast<std::uint32_t>(entries_.size());
  slots_[slot] = entry;
  keys_.insert(keys_.end(), key, key + width_);
  entries_.push_back(Entry{0, kNone});
  return entry;
}

void EvalContext::StepKeys::Link(std::uint32_t entry, std::uint32_t row) {
  if (row >= next_.size()) next_.resize(row + 1, kNone);
  next_[row] = entries_[entry].head;
  entries_[entry].head = row;
}

void EvalContext::StepKeys::RemapRows(
    const std::vector<std::uint32_t>& to_current) {
  std::vector<std::uint32_t> next(to_current.size(), kNone);
  for (Entry& e : entries_) {
    // Relink the chain's surviving rows under their new ids, in order.
    std::uint32_t row = e.head;
    std::uint32_t tail = kNone;
    e.head = kNone;
    for (; row != kNone; row = next_[row]) {
      const std::uint32_t moved = to_current[row];
      if (moved == kNone) continue;
      (tail == kNone ? e.head : next[tail]) = moved;
      tail = moved;
    }
  }
  next_ = std::move(next);
}

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
