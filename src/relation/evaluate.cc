#include "relation/evaluate.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "graph/graph.h"
#include "graph/tree_decomposition.h"
#include "graph/treewidth_bb.h"
#include "relation/column_store.h"
#include "relation/flat_index.h"
#include "relation/trie_index.h"
#include "relation/tuple.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace cqbounds {

namespace {

/// The query-order binary plan: step i joins atom i and keeps the variables
/// bound so far -- all of them (kNaive), or only those the head or a later
/// atom reads (kJoinProject, Cor 4.8's projection). The suffix unions grow
/// in one backward pass, O(m * vars): recomputing them at every step made
/// the join-project path O(m^2 * vars) in the number of atoms.
std::vector<JoinPlanStep> QueryOrderPlan(const Query& query, bool project) {
  const std::size_t m = query.atoms().size();
  std::vector<JoinPlanStep> steps(m);
  std::set<int> bound;
  for (std::size_t i = 0; i < m; ++i) {
    bound.insert(query.atoms()[i].vars.begin(), query.atoms()[i].vars.end());
    steps[i].atom_index = static_cast<int>(i);
    steps[i].keep_vars.assign(bound.begin(), bound.end());
  }
  if (!project) return steps;
  std::set<int> needed = query.HeadVarSet();  // head + atoms after step i
  for (std::size_t i = m; i-- > 0;) {
    std::vector<int>& keep = steps[i].keep_vars;
    keep.erase(std::remove_if(keep.begin(), keep.end(),
                              [&needed](int v) { return !needed.count(v); }),
               keep.end());
    needed.insert(query.atoms()[i].vars.begin(), query.atoms()[i].vars.end());
  }
  return steps;
}

/// Checks `steps` against `query` as ExecuteJoinPlan documents, reading no
/// data. A valid keep set holds bound variables only, each once.
Status ValidateJoinPlan(const Query& query,
                        const std::vector<JoinPlanStep>& steps) {
  auto invalid = [](const std::string& why) {
    return Status::InvalidArgument("invalid join plan: " + why);
  };
  const std::size_t m = query.atoms().size();
  const int n = query.num_variables();
  if (steps.size() != m) return invalid("it needs one step per body atom");
  std::vector<char> joined(m, 0);
  std::vector<char> bound(n, 0);    // in the bindings after the join
  std::vector<char> dropped(n, 0);  // projected away by an earlier step
  for (std::size_t s = 0; s < m; ++s) {
    const int a = steps[s].atom_index;
    if (a < 0 || a >= static_cast<int>(m) || joined[a]) {
      return invalid("a step joins no new atom");
    }
    joined[a] = 1;
    for (int v : query.atoms()[a].vars) {
      if (dropped[v]) return invalid("an atom reads a dropped variable");
      bound[v] = 1;
    }
    std::vector<char> kept(n, 0);
    for (int v : steps[s].keep_vars) {
      if (v < 0 || v >= n || !bound[v] || kept[v]) {
        return invalid("a keep set names an unbound or repeated variable");
      }
      kept[v] = 1;
    }
    for (int v = 0; v < n; ++v) dropped[v] |= bound[v] && !kept[v];
    bound = std::move(kept);
  }
  for (int v : query.head_vars()) {
    if (!bound[v]) return invalid("the last step drops a head variable");
  }
  return Status::OK();
}

/// Resolves and checks the relation behind every atom of `query` -- the
/// shared precondition of every plan kind -- up front, in atom order, so
/// missing relations and arity mismatches error deterministically even
/// when an earlier atom is already empty.
Result<std::vector<const Relation*>> ResolveAtoms(const Query& query,
                                                  const Database& db) {
  std::vector<const Relation*> rels;
  rels.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) {
    const Relation* rel = db.Find(atom.relation);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + atom.relation +
                              "' missing from database");
    }
    if (rel->arity() != static_cast<int>(atom.vars.size())) {
      return Status::InvalidArgument(
          "atom " + atom.relation + " has arity " +
          std::to_string(atom.vars.size()) + " but relation has arity " +
          std::to_string(rel->arity()));
    }
    rels.push_back(rel);
  }
  return rels;
}

/// An atom's trie layout under a global variable order: the atom's distinct
/// variables sorted by their rank in the order, with every tuple position
/// each one occupies (repeats become equality filters). This layout -- not
/// the atom identity -- is the EvalContext cache key alongside the relation
/// name, so atoms indexing a relation the same way share one trie.
struct AtomLayout {
  std::vector<std::vector<int>> level_positions;
  /// Global depth (rank in the order) of each trie level.
  std::vector<int> ranks;
};

AtomLayout LayoutForAtom(const Atom& atom, const std::vector<int>& rank) {
  std::map<int, std::vector<int>> positions_by_rank;
  for (std::size_t p = 0; p < atom.vars.size(); ++p) {
    positions_by_rank[rank[atom.vars[p]]].push_back(static_cast<int>(p));
  }
  AtomLayout layout;
  for (auto& [r, positions] : positions_by_rank) {
    layout.ranks.push_back(r);
    layout.level_positions.push_back(std::move(positions));
  }
  return layout;
}

/// The order must enumerate the body variables exactly once each, and every
/// head variable must occur in the body.
Status ValidateGenericJoinInputs(const Query& query,
                                 const std::vector<int>& variable_order) {
  std::set<int> body = query.BodyVarSet();
  std::set<int> seen;
  for (int v : variable_order) {
    if (!body.count(v) || !seen.insert(v).second) {
      return Status::InvalidArgument(
          "variable order is not a permutation of the body variables");
    }
  }
  if (seen.size() != body.size()) {
    return Status::InvalidArgument(
        "variable order misses " +
        std::to_string(body.size() - seen.size()) + " body variable(s)");
  }
  for (int v : query.head_vars()) {
    if (!body.count(v)) {
      return Status::InvalidArgument("head variable '" +
                                     query.variable_name(v) +
                                     "' does not occur in the body");
    }
  }
  return Status::OK();
}

/// State of the leapfrog search: one trie per atom plus a stack of sibling
/// ranges tracking each trie's descent along the global variable order.
struct GenericJoinSearch {
  /// Where answers go: head values as codes of the buffer's own
  /// dictionary. A projection's repeats may be left in (the merge drops
  /// them, see RunGenericJoin).
  CodedRows* emit = nullptr;
  EvalStats* stats;

  /// Variable ids in binding order.
  const std::vector<int>& order;
  /// One trie per atom (served by an EvalContext or a hybrid survivor
  /// view, pinned by the caller), keyed by the atom's variables in global
  /// order.
  std::vector<const TrieIndex*> tries;
  /// atoms_at[d]: atoms whose trie has a level for variable order[d].
  std::vector<std::vector<int>> atoms_at;
  /// levels_at[d][k]: the trie level of atom atoms_at[d][k] that holds
  /// order[d]. Fixed by the atom's layout, so it is set once, at setup.
  std::vector<std::vector<int>> levels_at;
  /// Current candidate range per atom (top of its descent stack).
  std::vector<std::vector<TrieIndex::Range>> range_stack;
  /// assignment[var] = bound value for the already-bound prefix.
  std::vector<Value> assignment;
  /// Output template: head positions into `assignment`.
  std::vector<int> head_vars;
  /// Deepest depth whose variable occurs in the head (-1 when the head is
  /// variable-free). Past it the search only needs *one* witness per bound
  /// prefix -- the head tuple is already determined -- so Run returns as
  /// soon as a completion is found: each binding of order[0..last] emits
  /// at most one answer.
  int last_head_depth = -1;
  /// Per-depth leapfrog cursors (one per participating atom), allocated
  /// once -- Run visits thousands of nodes and must not allocate per node.
  std::vector<std::vector<std::size_t>> cursor_scratch;

  GenericJoinSearch(EvalStats* st, const std::vector<int>& var_order)
      : stats(st), order(var_order) {}

  /// The leapfrog intersection at `depth`: keeps one cursor per atom
  /// holding order[depth] (cursor_scratch[depth]) and repeatedly seeks
  /// every cursor up to the current maximum value until all agree (a match)
  /// or one range is exhausted. Calls `on_match(value)` for each match in
  /// increasing order, the cursors resting on it, and stops early when
  /// `on_match` returns false. Every SeekGE is one counted seek.
  template <typename OnMatch>
  void Leapfrog(std::size_t depth, OnMatch&& on_match) {
    const std::vector<int>& atoms = atoms_at[depth];
    std::vector<std::size_t>& cursor = cursor_scratch[depth];
    const std::vector<int>& level = levels_at[depth];
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      const int a = atoms[k];
      cursor[k] = range_stack[a].back().begin;
      if (cursor[k] >= range_stack[a].back().end) return;
    }
    Value target = tries[atoms[0]]->ValueAt(level[0], cursor[0]);
    while (true) {
      // `target` is the running maximum over all cursors; it only grows, so
      // each non-aligned round strictly advances some cursor.
      bool aligned = true;
      for (std::size_t k = 0; k < atoms.size(); ++k) {
        const int a = atoms[k];
        const TrieIndex::Range r{cursor[k], range_stack[a].back().end};
        const std::size_t pos = tries[a]->SeekGE(level[k], r, target);
        ++stats->intersection_seeks;
        if (pos >= r.end) return;  // range exhausted: no more matches
        cursor[k] = pos;
        const Value found_value = tries[a]->ValueAt(level[k], pos);
        if (found_value != target) {
          target = found_value;  // overshoot: restart the round at the new max
          aligned = false;
          break;
        }
      }
      if (!aligned) continue;
      if (!on_match(target)) return;
      // Advance past the match; stop when the first atom's range runs dry.
      if (++cursor[0] >= range_stack[atoms[0]].back().end) return;
      target = tries[atoms[0]]->ValueAt(level[0], cursor[0]);
    }
  }

  /// Binds order[depth..] recursively; every match at a depth increments
  /// that depth's intermediate counter (the quantity the AGM envelope
  /// bounds). Returns true iff at least one full binding was reached below
  /// this node -- the signal the projection-aware early exit keys on.
  bool Run(std::size_t depth) {
    if (depth == order.size()) {
      std::vector<std::uint32_t>& codes = emit->codes;
      for (int v : head_vars) codes.push_back(emit->dict.Intern(assignment[v]));
      // A projection often re-derives the row it just emitted. Dropping an
      // adjacent repeat keeps every first occurrence (this buffer's earlier
      // rows merge first) and keeps the buffer near the answer count.
      const auto width = static_cast<std::ptrdiff_t>(head_vars.size());
      if (emit->num_rows > 0 &&
          std::equal(codes.end() - width, codes.end(),
                     codes.end() - 2 * width)) {
        codes.resize(codes.size() - head_vars.size());
      } else {
        ++emit->num_rows;
      }
      return true;
    }
    // Past the last head variable a single witness suffices.
    const bool witness_only = static_cast<int>(depth) > last_head_depth;
    const std::vector<int>& atoms = atoms_at[depth];
    const std::vector<std::size_t>& cursor = cursor_scratch[depth];
    const std::vector<int>& level = levels_at[depth];
    bool found = false;
    Leapfrog(depth, [&](Value value) {
      // All cursors agree on `value`: bind and descend.
      assignment[order[depth]] = value;
      ++stats->intermediate_sizes[depth];
      for (std::size_t k = 0; k < atoms.size(); ++k) {
        const int a = atoms[k];
        range_stack[a].push_back(tries[a]->ChildRange(level[k], cursor[k]));
      }
      if (Run(depth + 1)) found = true;
      for (int a : atoms) range_stack[a].pop_back();

      if (found && witness_only) {
        // The head tuple was fixed above; any remaining sibling would only
        // re-derive it.
        ++stats->projection_subtrees_skipped;
        return false;
      }
      return true;
    });
    return found;
  }
};

/// Enumerates the depth-0 leapfrog matches of `search` -- the values on
/// which every atom participating at depth 0 agrees within its root range
/// -- without descending: the serial search's first-level intersection,
/// reified into a work list the parallel executor partitions. Seeks are
/// charged to `search->stats`. `first` receives each depth-0 atom's root
/// position of the first match, so a lone match is descended without
/// seeking again.
std::vector<Value> CollectDepth0Matches(GenericJoinSearch* search,
                                        std::vector<std::size_t>* first) {
  std::vector<Value> matches;
  search->Leapfrog(0, [&](Value value) {
    if (matches.empty()) *first = search->cursor_scratch[0];
    matches.push_back(value);
    return true;
  });
  return matches;
}

/// Runs `proto` and writes its answers into `output` (empty on entry).
///
/// Without a pool the whole search is one claim, run on the calling thread.
/// With one, the claims are the depth-0 matches of `proto`, taken
/// dynamically by the pool's workers plus the calling thread (skewed
/// subtree costs self-balance); each binds its match and descends with a
/// private copy of the search state, so the only shared mutable state is
/// the claim counter. A claimed match is re-located in each depth-0 atom's
/// root range by a galloping seek -- the only duplicated work of the
/// fan-out -- except a lone match, descended from where it was collected.
/// Per-depth counters merge exactly, so the AGM-envelope accounting equals
/// a serial run's.
///
/// Each worker writes head values as codes of a private dictionary into a
/// flat buffer and records the rows of each claim as a slice. One bulk
/// append takes the slices in claim order, which is the serial emission
/// order, and its per-row probe keeps the first occurrence of every head
/// tuple (a projection may derive one from several bindings). The output
/// therefore equals the serial run's row for row whatever the thread
/// timing.
void RunGenericJoin(GenericJoinSearch* proto, ThreadPool* pool,
                    Relation* output, EvalStats* local) {
  std::vector<Value> matches;
  std::vector<std::size_t> lone;
  if (pool != nullptr) {
    matches = CollectDepth0Matches(proto, &lone);
    if (matches.empty()) return;
    local->intermediate_sizes[0] += matches.size();
  }
  const std::size_t claims = pool == nullptr ? 1 : matches.size();
  const std::size_t workers =
      pool == nullptr ? 1
                      : std::min<std::size_t>(
                            static_cast<std::size_t>(pool->num_workers()) + 1,
                            matches.size());
  const std::vector<int>& order = proto->order;

  std::vector<CodedRows> buffers(workers);
  std::vector<CodedSlice> slices(claims);
  std::vector<EvalStats> worker_stats(workers);
  std::atomic<std::size_t> next{0};
  auto work = [&](std::size_t w) {
    // The sink and counters the hot path writes live on this thread's
    // stack and are handed over once at the end: adjacent elements of the
    // shared vectors would put several workers' hot fields on one cache
    // line.
    CodedRows rows;
    EvalStats stats;
    stats.intermediate_sizes.assign(order.size(), 0);
    GenericJoinSearch ws = *proto;
    ws.stats = &stats;
    ws.emit = &rows;
    const std::vector<int>& atoms0 = ws.atoms_at[0];
    for (std::size_t i = next.fetch_add(1); i < claims;
         i = next.fetch_add(1)) {
      const std::size_t begin = rows.num_rows;
      if (pool == nullptr) {
        ws.Run(0);
      } else {
        const Value v = matches[i];
        ws.assignment[order[0]] = v;
        for (std::size_t k = 0; k < atoms0.size(); ++k) {
          const int a = atoms0[k];
          std::size_t pos = lone[k];
          if (claims > 1) {
            pos = ws.tries[a]->SeekGE(0, ws.range_stack[a][0], v);
            ++stats.intersection_seeks;
          }
          ws.range_stack[a].push_back(ws.tries[a]->ChildRange(0, pos));
        }
        ws.Run(1);
        for (int a : atoms0) ws.range_stack[a].pop_back();
      }
      slices[i] = CodedSlice{w, begin, rows.num_rows};
    }
    buffers[w] = std::move(rows);
    worker_stats[w] = std::move(stats);
  };
  if (workers == 1) {
    work(0);
  } else {
    pool->ParallelFor(workers, work);
    local->parallel_workers = workers;
  }

  for (const EvalStats& s : worker_stats) {
    for (std::size_t d = 0; d < s.intermediate_sizes.size(); ++d) {
      local->intermediate_sizes[d] += s.intermediate_sizes[d];
    }
    local->intersection_seeks += s.intersection_seeks;
    local->projection_subtrees_skipped += s.projection_subtrees_skipped;
  }
  output->InsertCoded(buffers, slices);
}

/// Per-atom trie overrides for the hybrid plan: atom i enumerates over
/// `overrides[i]` (its semi-join survivor view, freshly built or served
/// from the plan's survivor-view cache) instead of its full-relation trie
/// when non-null. The hybrid charges the build/reuse counters itself, so
/// the engine treats an override as ready-made.
using TrieOverrides = std::vector<std::shared_ptr<const TrieIndex>>;

/// The shared generic-join engine behind EvaluateGenericJoin and the hybrid
/// plan, over the relations `rels` resolved for the query's atoms.
/// `overrides`, when non-null, replaces atom i's trie with
/// `(*overrides)[i]` if non-null (see TrieOverrides); every other atom's
/// trie comes from `ctx` (non-null). Fills `local` (assumed zeroed); the
/// caller owns publishing it to the user-facing stats pointer. A non-null
/// `pool` with workers runs the search partitioned over the depth-0
/// matches (see RunGenericJoin); a null pool, a worker-less pool or a
/// variable-free head (where the serial early exit beats any fan-out) run
/// it serially.
Result<Relation> GenericJoinImpl(const Query& query,
                                 const std::vector<const Relation*>& rels,
                                 const std::vector<int>& variable_order,
                                 EvalContext* ctx, ThreadPool* pool,
                                 const TrieOverrides* overrides,
                                 EvalStats* local) {
  CQB_RETURN_NOT_OK(ValidateGenericJoinInputs(query, variable_order));

  Relation output(query.head_relation(),
                  static_cast<int>(query.head_vars().size()));
  std::vector<int> rank(query.num_variables(), -1);
  for (std::size_t d = 0; d < variable_order.size(); ++d) {
    rank[variable_order[d]] = static_cast<int>(d);
  }

  GenericJoinSearch search(local, variable_order);
  search.assignment.assign(query.num_variables(), 0);
  search.head_vars = query.head_vars();
  search.atoms_at.resize(variable_order.size());
  search.levels_at.resize(variable_order.size());
  const std::set<int> head_set = query.HeadVarSet();
  for (std::size_t d = 0; d < variable_order.size(); ++d) {
    if (head_set.count(variable_order[d])) {
      search.last_head_depth = static_cast<int>(d);
    }
  }
  local->intermediate_sizes.assign(variable_order.size(), 0);

  // Tries are pinned by shared_ptr for the duration of the search: a
  // concurrent evaluation rebuilding the cache entry (after an interleaved
  // mutation elsewhere) swaps the entry, never the pinned index.
  std::vector<std::shared_ptr<const TrieIndex>> pinned;
  bool empty_atom = false;
  for (std::size_t i = 0; i < query.atoms().size() && !empty_atom; ++i) {
    AtomLayout layout = LayoutForAtom(query.atoms()[i], rank);
    if (overrides != nullptr && (*overrides)[i] != nullptr) {
      // Reduced atom: the survivor trie the hybrid built (or reused from
      // the plan's survivor-view cache); its counters were charged there.
      pinned.push_back((*overrides)[i]);
    } else {
      const std::size_t misses_before = local->trie_cache_misses;
      pinned.push_back(ctx->GetTrie(*rels[i], layout.level_positions, local));
      if (local->trie_cache_misses != misses_before) {
        local->indexed_tuples += pinned.back()->num_tuples();
      }
    }
    const TrieIndex* trie = pinned.back().get();
    if (trie->num_tuples() == 0) empty_atom = true;
    for (std::size_t l = 0; l < layout.ranks.size(); ++l) {
      search.atoms_at[layout.ranks[l]].push_back(static_cast<int>(i));
      search.levels_at[layout.ranks[l]].push_back(static_cast<int>(l));
    }
    search.tries.push_back(trie);
    search.range_stack.push_back({trie->RootRange()});
  }

  if (!empty_atom && !query.atoms().empty()) {
    search.cursor_scratch.resize(variable_order.size());
    for (std::size_t d = 0; d < variable_order.size(); ++d) {
      search.cursor_scratch[d].resize(search.atoms_at[d].size());
    }
    // Parallel only with workers to hand work to, and only for heads with
    // at least one variable: a boolean (variable-free) head is decided by
    // the first witness, which the serial early exit finds without visiting
    // the rest of the space -- fanning out would do strictly more work.
    const bool parallel = pool != nullptr && pool->num_workers() > 0 &&
                          search.last_head_depth >= 0 &&
                          !search.atoms_at[0].empty();
    RunGenericJoin(&search, parallel ? pool : nullptr, &output, local);
  } else if (query.atoms().empty()) {
    output.Insert(Tuple{});  // empty body: the single empty substitution
  }

  for (std::size_t s : local->intermediate_sizes) {
    local->max_intermediate = std::max(local->max_intermediate, s);
    local->total_intermediate += s;
  }
  local->output_size = output.size();
  return output;
}

// --- Yannakakis semi-join reduction over the certified decomposition ------

/// Per-atom state of the semi-join reduction: the atom's distinct variables
/// (with every tuple position each occupies), the decomposition bag the
/// atom was assigned to, and the layout of its survivor trie.
struct ReductionAtom {
  std::vector<int> vars;     // distinct variable ids, sorted
  std::vector<int> var_pos;  // a representative tuple position per var
  /// Every tuple position each var occupies (parallel to `vars`); repeats
  /// are the intra-atom equality filters.
  std::vector<std::vector<int>> var_positions;
  /// True iff some variable occupies two positions, so rows must pass
  /// SelfConsistent's intra-atom equality filter.
  bool repeated = false;
  int bag = -1;              // owning bag index, -1 for variable-free atoms
  int depth = 0;             // BFS depth of `bag` in the bag tree
  /// Level positions of the atom's survivor trie: the layout the
  /// enumeration derives from the binding order, so the trie can stand in
  /// for the atom's full-relation trie.
  std::vector<std::vector<int>> trie_levels;
};

/// The cheap (tuple-free) part of survivor construction: variable layout
/// only, so the pass can build the filter schedule without scanning any
/// relation. `rank` is the binding order's rank of each variable.
ReductionAtom MakeReductionAtom(const Atom& atom,
                                const std::vector<int>& rank) {
  std::map<int, std::vector<int>> positions;  // var -> tuple positions
  for (std::size_t p = 0; p < atom.vars.size(); ++p) {
    positions[atom.vars[p]].push_back(static_cast<int>(p));
  }
  ReductionAtom a;
  for (auto& [v, ps] : positions) {
    a.vars.push_back(v);
    a.var_pos.push_back(ps.front());
    a.repeated = a.repeated || ps.size() > 1;
    a.var_positions.push_back(std::move(ps));
  }
  a.trie_levels = LayoutForAtom(atom, rank).level_positions;
  return a;
}

/// Intra-atom repeated variables filter here, exactly as the trie build
/// would -- the reduction must not "drop" tuples the enumeration never
/// sees anyway. Code comparison: one dictionary per store, so code equality
/// is value equality. `src` resolves store rows and removed (ghost) rows
/// alike.
bool SelfConsistent(const ReductionAtom& a, const RowView& src,
                    std::size_t row) {
  if (!a.repeated) return true;
  for (const std::vector<int>& ps : a.var_positions) {
    const std::uint32_t code = src.CodeAt(row, ps[0]);
    for (std::size_t i = 1; i < ps.size(); ++i) {
      if (src.CodeAt(row, ps[i]) != code) return false;
    }
  }
  return true;
}

/// Assigns every atom to a bag of the certified decomposition (its distinct
/// variables form a clique of the variable-intersection graph, so a
/// containing bag exists) and records BFS bag depths. Returns false when
/// there is nothing to reduce or a bag assignment fails against an
/// uncertified decomposition -- the caller must then abandon the pass
/// *visibly* (stats and the plan tier's semi-join state must not mistake
/// the abandonment for a clean reduction).
bool AssignBags(const TreeDecomposition& td, const std::vector<int>& dense,
                std::vector<ReductionAtom>* atoms) {
  if (atoms->empty() || td.bags.empty()) return false;

  // Bag tree BFS from bag 0 (DecompositionFromOrdering chains components,
  // so the tree is connected): depth orders the up/down passes.
  std::vector<std::vector<int>> adj(td.bags.size());
  for (const auto& [a, b] : td.tree_edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<int> depth(td.bags.size(), -1);
  std::vector<int> bfs{0};
  depth[0] = 0;
  for (std::size_t i = 0; i < bfs.size(); ++i) {
    for (int next : adj[bfs[i]]) {
      if (depth[next] < 0) {
        depth[next] = depth[bfs[i]] + 1;
        bfs.push_back(next);
      }
    }
  }

  for (ReductionAtom& a : *atoms) {
    if (a.vars.empty()) continue;  // nullary guard: nothing to share
    std::vector<int> dense_vars;
    dense_vars.reserve(a.vars.size());
    for (int v : a.vars) dense_vars.push_back(dense[v]);
    std::sort(dense_vars.begin(), dense_vars.end());
    a.bag = td.FindBagContaining(dense_vars);
    if (a.bag < 0) return false;
    a.depth = depth[a.bag];
  }
  return true;
}

/// One semi-join of the reduction schedule: filter atom `target`'s
/// survivors to those whose shared-variable projection occurs among atom
/// `source`'s survivors.
struct FilterStep {
  std::size_t source = 0;
  std::size_t target = 0;
  std::vector<int> src_pos;  // source tuple positions of the shared vars
  std::vector<int> tgt_pos;  // target tuple positions of the shared vars
};

/// The deterministic semi-join schedule of one plan: atoms in deepest bags
/// first, each filtering every variable-sharing atom at the same or smaller
/// depth (the up pass), then the mirrored strictly-downward pass
/// (equal-depth pairs were already filtered in both directions going up, so
/// repeating them would only rebuild the same hash sets for a guaranteed
/// no-op). Semi-joins only remove tuples that cannot extend to a match of
/// the partner atom, so any schedule is sound; this tree-guided one is a
/// full reducer when sharing atoms sit in adjacent bags (chains, trees --
/// the alpha-acyclic shape Yannakakis 1981 targets). Pairs sharing no
/// variable are omitted (provable no-ops). Depends only on the plan (query
/// shape + certified decomposition), never on data, which is what lets the
/// delta pass cache one key table per step and replay the schedule over
/// just the changed rows.
std::vector<FilterStep> BuildFilterSchedule(
    const std::vector<ReductionAtom>& atoms) {
  std::vector<std::size_t> up_order;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (atoms[i].bag >= 0) up_order.push_back(i);
  }
  std::stable_sort(up_order.begin(), up_order.end(),
                   [&atoms](std::size_t a, std::size_t b) {
                     return atoms[a].depth > atoms[b].depth;
                   });
  std::vector<FilterStep> steps;
  auto add_step = [&atoms, &steps](std::size_t src, std::size_t tgt) {
    FilterStep step;
    step.source = src;
    step.target = tgt;
    const ReductionAtom& s = atoms[src];
    const ReductionAtom& t = atoms[tgt];
    for (std::size_t i = 0, j = 0;
         i < s.vars.size() && j < t.vars.size();) {
      if (s.vars[i] < t.vars[j]) {
        ++i;
      } else if (s.vars[i] > t.vars[j]) {
        ++j;
      } else {
        step.src_pos.push_back(s.var_pos[i++]);
        step.tgt_pos.push_back(t.var_pos[j++]);
      }
    }
    if (!step.src_pos.empty()) steps.push_back(std::move(step));
  };
  for (std::size_t a : up_order) {
    for (std::size_t b : up_order) {
      if (a != b && atoms[b].depth <= atoms[a].depth) add_step(a, b);
    }
  }
  for (auto it = up_order.rbegin(); it != up_order.rend(); ++it) {
    for (std::size_t b : up_order) {
      if (*it != b && atoms[b].depth > atoms[*it].depth) add_step(*it, b);
    }
  }
  return steps;
}

using SemijoinState = EvalContext::SemijoinState;
constexpr std::uint32_t kSurvives = SemijoinState::kSurvives;
constexpr std::uint32_t kAbsent = SemijoinState::kAbsent;

/// Reads row `row`'s values at `positions` into `key`. `src` resolves
/// store rows and removed (ghost) rows alike, so a removed row's key comes
/// from its saved codes, never from the store.
void LoadKey(const RowView& src, std::uint32_t row,
             const std::vector<int>& positions, Value* key) {
  for (std::size_t i = 0; i < positions.size(); ++i) {
    key[i] = src.ValueAt(row, positions[i]);
  }
}

/// A row whose reduction fate may differ from the cached books during a
/// delta pass: removed, killed, or revived. Appended rows are not tracked:
/// they have no recorded fate to reconcile, so the pass writes theirs
/// straight into `drop_step`. Every other row provably keeps its recorded
/// fate.
struct TrackedRow {
  std::uint32_t row;
  bool present_new;        // live in the new relation state
  std::uint32_t old_drop;  // recorded drop step; kSurvives if it survived
  std::uint32_t new_drop;  // new pass's first drop step so far
};

/// One atom's tracked rows, in tracking order, indexed by row id.
struct TrackedRows {
  std::vector<TrackedRow> rows;
  FlatIndex index;

  /// Tracks `t` unless its row is tracked already.
  void Add(const TrackedRow& t) {
    const std::uint32_t i = index.Intern(
        rows.size(), FibonacciHash(t.row),
        [this, &t](std::uint32_t k) { return rows[k].row == t.row; },
        [this](std::size_t k) { return FibonacciHash(rows[k].row); });
    if (i == rows.size()) rows.push_back(t);
  }
};

/// Carries atom `atom`'s row-indexed books across the compactions in its
/// delta window: snapshot row r keeps its drop step under its current id,
/// r less the compacted rows below it, and the rows the compactions dropped
/// leave `drop_step` and the key chains of every step targeting the atom.
/// O(|atom| + those steps' keys); the other atoms' books are untouched.
void RemapAtom(const std::vector<FilterStep>& schedule, std::size_t atom,
               const std::vector<std::uint32_t>& compacted,
               SemijoinState* state) {
  std::vector<std::uint32_t>& drop = state->drop_step[atom];
  std::vector<std::uint32_t> to_current(drop.size(), KeyedIndex::kNone);
  std::size_t k = 0;
  for (std::size_t row = 0; row < drop.size(); ++row) {
    if (k < compacted.size() && compacted[k] == row) {
      ++k;
      continue;
    }
    to_current[row] = static_cast<std::uint32_t>(row - k);
    drop[row - k] = drop[row];
  }
  CQB_CHECK(k == compacted.size());
  drop.resize(drop.size() - k);
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    if (schedule[s].target == atom) state->steps[s].RemapRows(to_current);
  }
}

/// The semi-join reduction's one maintenance routine, a counting delta
/// pass: brings `state`'s books from the generation vector they were
/// computed at to the atoms' current one by each atom's mutation window
/// (Relation::DeltasSince). Books of another shape, or a window the journal
/// cannot name (a Clear, or a snapshot past epoch retention), are reset to
/// empty and every live row counts as appended -- a full pass is a delta
/// pass from the empty state. Matching generations leave every window
/// empty, so the pass does no work and the survivor views stand.
///
/// Removed rows are tracked under ghost ids past their store's end
/// (Relation::DeltaSet::Removed), which no live row can share, and their
/// keys come from the saved codes; an atom that compacted inside its window
/// has its books remapped to current row ids first (RemapAtom). Per step
/// the pass adjusts the support counts by the source rows whose aliveness
/// at that step changed, then propagates only the *net* key transitions: a
/// key newly at support zero kills the target rows on its chain that were
/// alive at this step, a key back from zero revives the chain's rows this
/// step dropped, and appended or revived rows meet each later step
/// individually. Kills and revivals cascade (a changed row is tracked, so
/// it re-enters phase one wherever its atom is a source), and the resulting
/// fates are identical to a from-scratch pass. An appended row joins its
/// key's chain at its target step's re-check, one key read per step it is
/// a target of, and a key whose chain is still empty has nothing to kill
/// or revive, so its transitions go unrecorded: from the empty state that
/// is every key, and the pass reads exactly the keys a plain up-and-down
/// semi-join would.
///
/// Finally it settles each atom's dangling census and survivor trie
/// (unpatched by the survivor-set delta when one is cached, built over the
/// survivors otherwise) and the generation vector. Stats: the pass flags,
/// the drop/kill/revival counts, `delta_tuples_processed` (the windows'
/// rows; zero from the empty state), `semijoin_rows_visited` (the rows
/// whose key it read or whose chain link it followed), and the survivor
/// tries' builds as trie misses.
void RunDeltaPass(const std::vector<FilterStep>& schedule,
                  const std::vector<ReductionAtom>& atoms,
                  const std::vector<const Relation*>& rels,
                  SemijoinState* state, EvalStats* stats) {
  const std::size_t m = atoms.size();
  std::vector<Relation::DeltaSet> deltas(m);
  bool from_empty = state->generations.size() != m ||
                    state->steps.size() != schedule.size();
  bool unchanged = !from_empty;
  for (std::size_t i = 0; i < m && !from_empty; ++i) {
    from_empty = !rels[i]->DeltasSince(state->generations[i], &deltas[i]);
    unchanged = unchanged && rels[i]->generation() == state->generations[i];
  }
  if (from_empty) {
    // Empty books, refilled in place: their buffers keep their capacity.
    unchanged = false;
    deltas.assign(m, Relation::DeltaSet{});
    state->generations.resize(m);
    state->drop_step.resize(m);
    state->dangling.assign(m, 0);
    state->all_survive.assign(m, true);
    state->survivor_tries.assign(m, nullptr);
    state->steps.resize(schedule.size());
  }

  std::vector<TrackedRows> tracked(m);
  // Per atom: its appended self-consistent rows, ascending.
  std::vector<std::vector<std::uint32_t>> appended(m);
  // Per atom: its store, with the window's removed rows as ghosts.
  std::vector<RowView> sources;
  sources.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const ColumnStore& store = rels[i]->store();
    const Relation::DeltaSet& delta = deltas[i];
    sources.push_back(delta.Removed(store));
    const RowView& src = sources.back();
    std::vector<std::uint32_t>& drop = state->drop_step[i];
    stats->delta_tuples_processed +=
        delta.appended_rows.size() + delta.removed_rows.size();
    // Rows failing the repeated-variable filter stay off the books.
    const auto admit = [&](std::uint32_t row) {
      if (!SelfConsistent(atoms[i], src, row)) return;
      appended[i].push_back(row);
      drop[row] = kSurvives;
    };
    if (from_empty) {
      drop.assign(store.size(), kAbsent);
      appended[i].reserve(rels[i]->size());
      for (std::size_t row = 0; row < store.size(); ++row) {
        if (store.IsLive(row)) admit(static_cast<std::uint32_t>(row));
      }
      continue;
    }
    // Removed rows leave the books first, carrying the fate recorded under
    // their snapshot id.
    for (std::size_t k = 0; k < src.rows.size(); ++k) {
      if (!SelfConsistent(atoms[i], src, src.rows[k])) continue;
      const std::uint32_t snapshot_row = delta.removed_rows[k];
      tracked[i].Add(
          TrackedRow{src.rows[k], false, drop[snapshot_row], kSurvives});
      drop[snapshot_row] = kAbsent;
    }
    if (!delta.compacted_rows.empty()) {
      RemapAtom(schedule, i, delta.compacted_rows, state);
    }
    // Rows appended since the state was computed lie past the book's end.
    drop.resize(store.size(), kAbsent);
    for (const std::uint32_t row : delta.appended_rows) admit(row);
  }

  std::vector<Value> key;
  // (entry, support before its first adjustment this step)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> touched;
  std::vector<std::uint32_t> vanished;
  std::vector<std::uint32_t> returned;
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    const FilterStep& step = schedule[s];
    KeyedIndex& keys = state->steps[s];
    if (from_empty) {
      // Emptied at first use, so its slot table is fresh in cache. Source
      // and target keys overlap in a useful join, so the larger side bounds
      // the key count closely enough to size the table once.
      keys.Reset(step.src_pos.size(),
                 std::max(appended[step.source].size(),
                          appended[step.target].size()),
                 rels[step.target]->store().size());
    }
    key.resize(keys.width());
    const RowView& src = sources[step.source];
    const RowView& tgt = sources[step.target];
    const auto s32 = static_cast<std::uint32_t>(s);
    // Phase 1: adjust this step's support counts by every source row whose
    // aliveness at this step changed: tracked rows whose fate moved across
    // it, and appended rows alive at it.
    touched.clear();
    const auto adjust = [&](std::uint32_t row, bool up) {
      LoadKey(src, row, step.src_pos, key.data());
      ++stats->semijoin_rows_visited;
      const std::uint32_t entry = keys.FindOrInsert(key.data());
      if (keys.head(entry) != KeyedIndex::kNone) {
        touched.emplace_back(entry, keys.count(entry));
      }
      if (up) {
        ++keys.count(entry);
      } else {
        CQB_CHECK(keys.count(entry) > 0);
        --keys.count(entry);
      }
    };
    for (const TrackedRow& t : tracked[step.source].rows) {
      const bool c_old = t.old_drop > s32;
      const bool c_new = t.present_new && t.new_drop > s32;
      if (c_old != c_new) adjust(t.row, c_new);
    }
    const std::vector<std::uint32_t>& src_drop = state->drop_step[step.source];
    for (const std::uint32_t row : appended[step.source]) {
      if (src_drop[row] > s32) adjust(row, true);
    }
    // Phase 2: net key transitions. Only 0 -> + and + -> 0 matter; a key
    // removed and re-added within one window nets out, so no kill/revive
    // cascade fires for it.
    std::stable_sort(touched.begin(), touched.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    vanished.clear();
    returned.clear();
    for (std::size_t k = 0; k < touched.size(); ++k) {
      const auto [entry, before] = touched[k];
      if (k > 0 && touched[k - 1].first == entry) continue;
      const std::uint32_t now = keys.count(entry);
      if (before == 0 && now > 0) returned.push_back(entry);
      if (before > 0 && now == 0) vanished.push_back(entry);
    }
    TrackedRows& target = tracked[step.target];
    std::vector<std::uint32_t>& tgt_drop = state->drop_step[step.target];
    // Phase 3: kills. A vanished key strands every chained target row that
    // was leaning on it (alive at this step in the old pass); rows already
    // tracked settle their fate in the re-check below.
    for (const std::uint32_t entry : vanished) {
      for (std::uint32_t row = keys.head(entry); row != KeyedIndex::kNone;
           row = keys.next_row(row)) {
        ++stats->semijoin_rows_visited;
        const std::uint32_t d = tgt_drop[row];
        if (d == kAbsent || d <= s32) continue;
        target.Add(TrackedRow{row, true, d, s32});
      }
    }
    // Phase 4: revivals. A key back from zero re-admits exactly the
    // chained rows this step dropped for lacking it; later steps then
    // judge them individually.
    for (const std::uint32_t entry : returned) {
      for (std::uint32_t row = keys.head(entry); row != KeyedIndex::kNone;
           row = keys.next_row(row)) {
        ++stats->semijoin_rows_visited;
        if (tgt_drop[row] != s32) continue;
        target.Add(TrackedRow{row, true, s32, kSurvives});
      }
    }
    // Phase 5: individual re-checks against the settled counts -- tracked
    // rows past their old drop step have no recorded fate to reuse, and
    // appended rows meet the step for the first time, joining their key's
    // chain whatever their fate (a later pass may revive them here).
    for (TrackedRow& t : target.rows) {
      if (!t.present_new || t.new_drop != kSurvives || t.old_drop > s32) {
        continue;
      }
      LoadKey(tgt, t.row, step.tgt_pos, key.data());
      ++stats->semijoin_rows_visited;
      const std::uint32_t entry = keys.Find(key.data());
      if (entry == KeyedIndex::kNone || keys.count(entry) == 0) {
        t.new_drop = s32;
      }
    }
    for (const std::uint32_t row : appended[step.target]) {
      LoadKey(tgt, row, step.tgt_pos, key.data());
      ++stats->semijoin_rows_visited;
      const std::uint32_t entry = keys.FindOrInsert(key.data());
      keys.Link(entry, row);
      if (tgt_drop[row] == kSurvives && keys.count(entry) == 0) {
        tgt_drop[row] = s32;
      }
    }
  }

  stats->semijoin_pass_skipped = unchanged;
  stats->semijoin_pass_ran = !unchanged;
  stats->semijoin_delta_pass = !unchanged && !from_empty;
  for (std::size_t i = 0; i < m; ++i) {
    state->generations[i] = rels[i]->generation();
    // Settle each tracked row's drop step and the dangling census, and
    // collect the survivor-set delta (rows entering/leaving the view) that
    // feeds the survivor trie unpatch. Removed rows carry ghost ids,
    // resolved from the window's saved codes, and left the books when the
    // pass began.
    const ColumnStore& store = rels[i]->store();
    RowView added(&store);
    RowView gone(&store);
    gone.ghosts = &deltas[i].removed_codes;
    std::vector<std::uint32_t>& drop = state->drop_step[i];
    std::size_t& dangling = state->dangling[i];
    std::shared_ptr<TrieIndex>& view = state->survivor_tries[i];
    for (const TrackedRow& t : tracked[i].rows) {
      const bool now_in = t.present_new && t.new_drop == kSurvives;
      const bool was_in = t.old_drop == kSurvives;
      const bool now_dangling = t.present_new && !now_in;
      if (now_in && !was_in) added.rows.push_back(t.row);
      if (was_in && !now_in) gone.rows.push_back(t.row);
      if (t.present_new) {
        if (!was_in && now_in) ++stats->semijoin_revived_tuples;
        if (was_in && now_dangling) ++stats->semijoin_killed_tuples;
        drop[t.row] = t.new_drop;
      }
      if (now_dangling && was_in) ++stats->semijoin_dropped_tuples;
      dangling = dangling + now_dangling - !was_in;
    }
    for (const std::uint32_t row : appended[i]) {
      if (drop[row] != kSurvives) {
        ++dangling;
        ++stats->semijoin_dropped_tuples;
      } else if (view != nullptr) {
        added.rows.push_back(row);  // else a new view is built from `drop`
      }
    }
    state->all_survive[i] = dangling == 0;
    stats->semijoin_dangling_tuples += dangling;
    if (dangling == 0) {
      // Every live tuple survives: the trie tier's full-relation trie
      // serves enumeration, no view needed.
      view = nullptr;
    } else if (view == nullptr) {
      // No cached view to unpatch (the books are new, or every live row
      // survived until now): build one over the survivors.
      RowView survivors(&store);
      survivors.rows.reserve(drop.size() - dangling);
      for (std::size_t row = 0; row < drop.size(); ++row) {
        if (drop[row] == kSurvives) {
          survivors.rows.push_back(static_cast<std::uint32_t>(row));
        }
      }
      ++stats->trie_cache_misses;
      view = std::make_shared<TrieIndex>(survivors, atoms[i].trie_levels);
      stats->indexed_tuples += view->num_tuples();
    } else if (!added.empty() || !gone.empty()) {
      // Unpatch the cached view by the survivor-set delta instead of
      // rebuilding it over the full survivor set -- in place, as the state
      // is its only owner between evaluations. A window that only moved
      // the books (a dropped row re-dropped at another step) keeps it.
      std::sort(added.rows.begin(), added.rows.end());
      std::sort(gone.rows.begin(), gone.rows.end());
      ++stats->trie_cache_misses;
      SpliceOrCopy(&view, added, gone, atoms[i].trie_levels);
      stats->indexed_tuples += view->num_tuples();
    }
  }
}

/// The kHybridYannakakis plan (see PlanKind) over the resolved atom
/// relations `rels`, through `ctx` (non-null), filling `local`: on a
/// certified width <= kHybridWidthThreshold, the semi-join reduction over
/// the certified decomposition (RunDeltaPass, its books kept in `ctx`'s
/// plan tier) and a generic join over the survivors, bound along the
/// reverse elimination order; otherwise the generic join over
/// DefaultGenericJoinOrder. Only enumeration fans out over `pool`.
Result<Relation> EvaluateHybridYannakakis(
    const Query& query, const std::vector<const Relation*>& rels,
    EvalContext* ctx, ThreadPool* pool, EvalStats* local) {
  // Plan tier: the width probe (the TreewidthExact call and the graph build
  // feeding it) runs once per query shape and is served from the cache
  // afterwards -- warm runs perform zero probes.
  EvalContext::CachedPlan& plan = ctx->GetPlan(query, local);
  const LowWidthProbe& probe = plan.probe;
  if (!probe.low_width) {
    return GenericJoinImpl(query, rels, DefaultGenericJoinOrder(query), ctx,
                           pool, /*overrides=*/nullptr, local);
  }
  // Certified low width: bind along the reverse elimination order (the
  // same order ChooseGenericJoinOrder's tree path picks), with the atoms
  // pre-filtered through the certified decomposition.
  const std::size_t m = query.atoms().size();

  // Survivor tries must use the same layout the enumeration derives from
  // the binding order, or the override would not line up with the
  // leapfrog's levels.
  std::vector<int> rank(query.num_variables(), -1);
  for (std::size_t d = 0; d < probe.order.size(); ++d) {
    rank[probe.order[d]] = static_cast<int>(d);
  }
  std::vector<ReductionAtom> atoms;
  atoms.reserve(m);
  for (const Atom& atom : query.atoms()) {
    atoms.push_back(MakeReductionAtom(atom, rank));
  }

  TrieOverrides overrides(m);
  {
    // The pass runs under the plan's mutex: concurrent post-mutation
    // evaluations of one shape serialize it, and the late arrivals then
    // find matching generations and reuse the fresh survivor views
    // instead of duplicating the work. Mutations themselves never
    // overlap evaluations (the context's readers-xor-writer contract),
    // so the generation vector cannot move underneath the pass.
    MutexLock lock(plan.skip_mu);
    if (!AssignBags(probe.tw.decomposition, probe.dense, &atoms)) {
      // Uncertified bag assignment: abandon the pass visibly (ran stays
      // false) and drop any cached state rather than serving views that
      // no schedule can maintain.
      plan.semijoin.reset();
    } else {
      if (plan.semijoin == nullptr) {
        plan.semijoin = std::make_unique<SemijoinState>();
      }
      // Bring the books up to date and hand every atom that lost tuples
      // its survivor view. On matching generations that is the cached
      // view -- a survivor-view hit.
      RunDeltaPass(BuildFilterSchedule(atoms), atoms, rels,
                   plan.semijoin.get(), local);
      for (std::size_t i = 0; i < m; ++i) {
        overrides[i] = plan.semijoin->survivor_tries[i];
        if (overrides[i] != nullptr && local->semijoin_pass_skipped) {
          ++local->survivor_view_hits;
        }
      }
    }
  }
  return GenericJoinImpl(query, rels, probe.order, ctx, pool, &overrides,
                         local);
}

/// Variable-intersection graph of `query` (the Gaifman graph of the
/// canonical instance): one vertex per body variable (dense numbering via
/// `body`/`dense`), edges between variables sharing an atom.
Graph VariableIntersectionGraph(const Query& query, std::vector<int>* body,
                                std::vector<int>* dense) {
  const std::set<int> body_set = query.BodyVarSet();
  body->assign(body_set.begin(), body_set.end());
  dense->assign(query.num_variables(), -1);
  for (std::size_t i = 0; i < body->size(); ++i) {
    (*dense)[(*body)[i]] = static_cast<int>(i);
  }
  Graph g(static_cast<int>(body->size()));
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    const std::set<int> vars = query.AtomVarSet(static_cast<int>(i));
    for (int u : vars) {
      for (int v : vars) {
        if (u < v) g.AddEdge((*dense)[u], (*dense)[v]);
      }
    }
  }
  return g;
}

}  // namespace

LowWidthProbe ProbeLowWidthStructure(const Query& query) {
  LowWidthProbe probe;
  Graph g = VariableIntersectionGraph(query, &probe.body, &probe.dense);
  const bool possibly_low_width =
      g.num_edges() <= std::max<std::size_t>(2 * g.num_vertices(), 3) - 3;
  if (probe.body.empty() || !possibly_low_width ||
      g.num_vertices() > kHybridExactVertexLimit) {
    return probe;
  }
  probe.probe_ran = true;
  probe.tw = TreewidthExact(g);
  probe.low_width =
      probe.tw.width >= 0 && probe.tw.width <= kHybridWidthThreshold;
  if (!probe.low_width) return probe;
  // Bind along the certified elimination order, last eliminated first: in
  // a reversed perfect-style elimination order every variable's
  // already-bound neighbours form a clique, so each leapfrog intersection
  // runs over tries narrowed by the same prefix.
  probe.order.reserve(probe.body.size());
  for (auto it = probe.tw.elimination_order.rbegin();
       it != probe.tw.elimination_order.rend(); ++it) {
    probe.order.push_back(probe.body[*it]);
  }
  return probe;
}

Result<Relation> EvaluateGenericJoin(const Query& query, const Database& db,
                                     const std::vector<int>& variable_order,
                                     EvalStats* stats) {
  if (stats != nullptr) *stats = EvalStats{};
  std::vector<const Relation*> rels;
  CQB_ASSIGN_OR_RETURN(rels, ResolveAtoms(query, db));
  EvalContext call_local(db);
  EvalStats local;
  auto result = GenericJoinImpl(query, rels, variable_order, &call_local,
                                /*pool=*/nullptr, /*overrides=*/nullptr,
                                &local);
  if (result.ok() && stats != nullptr) *stats = std::move(local);
  return result;
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kNaive: return "naive";
    case PlanKind::kJoinProject: return "join-project";
    case PlanKind::kGenericJoin: return "generic-join";
    case PlanKind::kHybridYannakakis: return "hybrid-yannakakis";
  }
  return "unknown";
}

std::vector<int> ConnectedFirstOrder(
    const Query& query,
    const std::function<bool(int incumbent, int candidate)>& strictly_better) {
  // Co-occurrence adjacency, for the connected-first extension.
  std::map<int, std::set<int>> adjacent;
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    std::set<int> vars = query.AtomVarSet(static_cast<int>(i));
    for (int u : vars) {
      for (int v : vars) {
        if (u != v) adjacent[u].insert(v);
      }
    }
  }
  std::vector<int> order;
  std::set<int> remaining = query.BodyVarSet();
  std::set<int> frontier;  // unordered vars adjacent to the ordered prefix
  while (!remaining.empty()) {
    const std::set<int>& candidates = frontier.empty() ? remaining : frontier;
    int best = -1;
    for (int v : candidates) {
      if (best < 0 || strictly_better(best, v)) best = v;
    }
    order.push_back(best);
    remaining.erase(best);
    frontier.erase(best);
    for (int v : adjacent[best]) {
      if (remaining.count(v)) frontier.insert(v);
    }
  }
  return order;
}

std::vector<int> DefaultGenericJoinOrder(const Query& query) {
  // Atom-degree of every body variable.
  std::map<int, int> degree;
  for (int v : query.BodyVarSet()) degree[v] = 0;
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    for (int v : query.AtomVarSet(static_cast<int>(i))) ++degree[v];
  }
  return ConnectedFirstOrder(query, [&degree](int incumbent, int candidate) {
    return degree[candidate] > degree[incumbent];
  });
}

Result<Relation> ExecuteJoinPlan(const Query& query,
                                 const std::vector<JoinPlanStep>& steps,
                                 const Database& db, EvalStats* stats) {
  if (stats != nullptr) *stats = EvalStats{};
  CQB_RETURN_NOT_OK(ValidateJoinPlan(query, steps));
  std::vector<const Relation*> rels;
  CQB_ASSIGN_OR_RETURN(rels, ResolveAtoms(query, db));
  EvalStats local;
  // Bindings are tuples over `bound_vars` (parallel layout); var_slot maps
  // a variable id to its position in `bound_vars` (-1 when unbound), so
  // per-atom binding lookups are O(1) instead of a std::find scan per
  // position (quadratic in the variable count).
  std::vector<int> bound_vars;
  std::vector<int> var_slot(query.num_variables(), -1);
  std::vector<Tuple> bindings = {Tuple{}};
  // Per step: the join index, then the projection dedup.
  KeyedIndex index;
  std::vector<Value> key;

  for (std::size_t step = 0; step < steps.size(); ++step) {
    const Atom& atom = query.atoms()[steps[step].atom_index];
    const Relation* rel = rels[steps[step].atom_index];

    // Once no binding survives, the result is empty whatever the remaining
    // atoms hold: skip their index construction.
    if (bindings.empty()) {
      local.intermediate_sizes.push_back(0);
      continue;
    }

    // Split the atom's positions into join positions (variable already
    // bound), equality filters (a new variable repeated inside the atom,
    // checked against its first occurrence while indexing) and new
    // positions (first occurrence of a new variable).
    std::vector<std::pair<int, int>> join_pos;  // (atom position, binding idx)
    std::vector<std::pair<int, int>> eq_pos;    // (atom position, first pos)
    std::vector<std::pair<int, int>> new_pos;   // (atom position, new var)
    std::vector<int> first_seen(query.num_variables(), -1);
    for (std::size_t p = 0; p < atom.vars.size(); ++p) {
      int var = atom.vars[p];
      if (var_slot[var] >= 0) {
        join_pos.emplace_back(static_cast<int>(p), var_slot[var]);
      } else if (first_seen[var] >= 0) {
        eq_pos.emplace_back(static_cast<int>(p), first_seen[var]);
      } else {
        first_seen[var] = static_cast<int>(p);
        new_pos.emplace_back(static_cast<int>(p), var);
      }
    }

    // Index the relation on the join-key values, reading the key columns
    // straight from the store (row ids, not tuple pointers -- nothing is
    // materialized). Rows violating intra-atom repeated-variable equality
    // are skipped; the equality check compares dictionary codes. Rows are
    // linked last to first, so each key's chain lists them in row order.
    const ColumnStore& store = rel->store();
    key.resize(join_pos.size());
    index.Reset(join_pos.size(), 0, store.size());
    for (std::size_t row = store.size(); row-- > 0;) {
      if (!store.IsLive(row) ||
          !std::all_of(eq_pos.begin(), eq_pos.end(), [&](const auto& eq) {
            return store.CodeAt(row, eq.first) == store.CodeAt(row, eq.second);
          })) {
        continue;
      }
      for (std::size_t i = 0; i < join_pos.size(); ++i) {
        key[i] = store.ValueAt(row, join_pos[i].first);
      }
      index.Link(index.FindOrInsert(key.data()),
                 static_cast<std::uint32_t>(row));
      ++local.indexed_tuples;
    }

    // Probe; the new variables take the slots after the bound ones.
    for (const auto& [pos, var] : new_pos) {
      var_slot[var] = static_cast<int>(bound_vars.size());
      bound_vars.push_back(var);
    }
    std::vector<Tuple> next;
    for (const Tuple& binding : bindings) {
      for (std::size_t i = 0; i < join_pos.size(); ++i) {
        key[i] = binding[join_pos[i].second];
      }
      const std::uint32_t entry = index.Find(key.data());
      if (entry == KeyedIndex::kNone) continue;
      for (std::uint32_t row = index.head(entry); row != KeyedIndex::kNone;
           row = index.next_row(row)) {
        Tuple extended = binding;
        for (const auto& np : new_pos) {
          extended.push_back(store.ValueAt(row, np.first));
        }
        next.push_back(std::move(extended));
      }
    }
    bindings = std::move(next);

    // Project onto the step's keep set (bound variables, each once) when it
    // drops a bound variable; otherwise the bindings are already distinct.
    const std::vector<int>& keep = steps[step].keep_vars;
    if (keep.size() != bound_vars.size()) {
      std::vector<int> kept_positions;
      for (int v : keep) kept_positions.push_back(var_slot[v]);
      index.Reset(keep.size(), bindings.size(), 0);
      std::vector<Tuple> projected;
      for (const Tuple& binding : bindings) {
        Tuple p;
        p.reserve(kept_positions.size());
        for (int pos : kept_positions) p.push_back(binding[pos]);
        if (index.FindOrInsert(p.data()) == projected.size()) {
          projected.push_back(std::move(p));
        }
      }
      for (int v : bound_vars) var_slot[v] = -1;
      for (std::size_t i = 0; i < keep.size(); ++i) {
        var_slot[keep[i]] = static_cast<int>(i);
      }
      bound_vars = keep;
      bindings = std::move(projected);
    }

    local.intermediate_sizes.push_back(bindings.size());
  }

  for (std::size_t s : local.intermediate_sizes) {
    local.max_intermediate = std::max(local.max_intermediate, s);
    local.total_intermediate += s;
  }

  // Project onto the head variable list (which may repeat variables).
  Relation output(query.head_relation(),
                  static_cast<int>(query.head_vars().size()));
  std::vector<int> head_positions;
  head_positions.reserve(query.head_vars().size());
  if (!bindings.empty()) {
    // The last keep set holds the head (ValidateJoinPlan).
    for (int var : query.head_vars()) head_positions.push_back(var_slot[var]);
  }
  Tuple head_tuple(query.head_vars().size());
  for (const Tuple& binding : bindings) {
    for (std::size_t i = 0; i < head_positions.size(); ++i) {
      head_tuple[i] = binding[head_positions[i]];
    }
    output.Insert(head_tuple);
  }
  local.output_size = output.size();
  if (stats != nullptr) *stats = std::move(local);
  return output;
}

Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalContext* ctx,
                               ThreadPool* pool, EvalStats* stats) {
  if (stats != nullptr) *stats = EvalStats{};
  // A context caching for another database would serve tries of unrelated
  // relations that happen to share a name.
  if (ctx != nullptr && &ctx->database() != &db) {
    return Status::InvalidArgument(
        "evaluation context is attached to a different database");
  }
  if (kind == PlanKind::kNaive || kind == PlanKind::kJoinProject) {
    // The per-step hash indexes are query-position-specific and not
    // cached, so the binary-join plans leave `ctx` unused.
    return ExecuteJoinPlan(
        query, QueryOrderPlan(query, kind == PlanKind::kJoinProject), db,
        stats);
  }
  std::vector<const Relation*> rels;
  CQB_ASSIGN_OR_RETURN(rels, ResolveAtoms(query, db));
  // Without a caller's context the trie-based plans run through one local
  // to this call: the one code path, with nothing kept past the call.
  std::optional<EvalContext> call_local;
  if (ctx == nullptr) ctx = &call_local.emplace(db);
  EvalStats local;
  auto result =
      kind == PlanKind::kGenericJoin
          ? GenericJoinImpl(query, rels, DefaultGenericJoinOrder(query), ctx,
                            pool, /*overrides=*/nullptr, &local)
          : EvaluateHybridYannakakis(query, rels, ctx, pool, &local);
  if (result.ok() && stats != nullptr) *stats = std::move(local);
  return result;
}

Relation EquiJoin(const Relation& left, const Relation& right,
                  const std::vector<std::pair<int, int>>& pairs,
                  const std::string& result_name) {
  // The position pairs are invariants of the call, not of any tuple:
  // validate them once up front instead of re-checking inside the
  // per-tuple indexing and probing loops.
  for (const auto& [lp, rp] : pairs) {
    CQB_CHECK(lp >= 0 && lp < left.arity());
    CQB_CHECK(rp >= 0 && rp < right.arity());
  }
  Relation out(result_name, left.arity() + right.arity());
  // Index the right side on its join key, by row id into its store, last
  // row first: each key's chain then lists the right rows in row order.
  const ColumnStore& ls = left.store();
  const ColumnStore& rs = right.store();
  KeyedIndex index;
  index.Reset(pairs.size(), 0, rs.size());
  std::vector<Value> key(pairs.size());
  for (std::size_t row = rs.size(); row-- > 0;) {
    if (!rs.IsLive(row)) continue;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      key[i] = rs.ValueAt(row, pairs[i].second);
    }
    index.Link(index.FindOrInsert(key.data()),
               static_cast<std::uint32_t>(row));
  }
  Tuple joined(static_cast<std::size_t>(out.arity()));
  for (std::size_t lrow = 0; lrow < ls.size(); ++lrow) {
    if (!ls.IsLive(lrow)) continue;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      key[i] = ls.ValueAt(lrow, pairs[i].first);
    }
    const std::uint32_t entry = index.Find(key.data());
    if (entry == KeyedIndex::kNone) continue;
    for (std::uint32_t rrow = index.head(entry); rrow != KeyedIndex::kNone;
         rrow = index.next_row(rrow)) {
      for (int c = 0; c < left.arity(); ++c) {
        joined[static_cast<std::size_t>(c)] = ls.ValueAt(lrow, c);
      }
      for (int c = 0; c < right.arity(); ++c) {
        joined[static_cast<std::size_t>(left.arity() + c)] =
            rs.ValueAt(rrow, c);
      }
      out.Insert(joined);
    }
  }
  return out;
}

}  // namespace cqbounds
