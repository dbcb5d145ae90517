#include "core/join_plan.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/color_number.h"
#include "relation/tuple.h"

namespace cqbounds {

std::string JoinPlan::ToString(const Query& query) const {
  std::ostringstream os;
  os << "JoinPlan(cost <= rmax^" << cost_exponent.ToString()
     << (guaranteed ? ", guaranteed" : ", heuristic") << "):\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Atom& atom = query.atoms()[steps[i].atom_index];
    os << "  " << i + 1 << ". join " << atom.relation << " -> keep {";
    for (std::size_t j = 0; j < steps[i].keep_vars.size(); ++j) {
      if (j) os << ",";
      os << query.variable_name(steps[i].keep_vars[j]);
    }
    os << "}\n";
  }
  return os.str();
}

Result<JoinPlan> BuildJoinProjectPlan(const Query& query) {
  CQB_RETURN_NOT_OK(query.Validate());
  const std::size_t m = query.atoms().size();

  // Greedy connected ordering.
  std::vector<std::set<int>> atom_vars;
  for (std::size_t i = 0; i < m; ++i) {
    atom_vars.push_back(query.AtomVarSet(static_cast<int>(i)));
  }
  std::vector<int> order;
  std::vector<char> used(m, 0);
  std::set<int> bound;
  for (std::size_t step = 0; step < m; ++step) {
    int best = -1;
    int best_shared = -1;
    int best_new = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i]) continue;
      int shared = 0;
      int fresh = 0;
      for (int v : atom_vars[i]) {
        if (bound.count(v)) {
          ++shared;
        } else {
          ++fresh;
        }
      }
      if (best < 0 || shared > best_shared ||
          (shared == best_shared && fresh < best_new)) {
        best = static_cast<int>(i);
        best_shared = shared;
        best_new = fresh;
      }
    }
    used[best] = 1;
    order.push_back(best);
    bound.insert(atom_vars[best].begin(), atom_vars[best].end());
  }

  JoinPlan plan;
  std::set<int> head = query.HeadVarSet();
  for (std::size_t step = 0; step < m; ++step) {
    // Needed after this step: head vars + vars of atoms later in `order`.
    std::set<int> needed = head;
    for (std::size_t later = step + 1; later < m; ++later) {
      needed.insert(atom_vars[order[later]].begin(),
                    atom_vars[order[later]].end());
    }
    // Intersect with what is bound by the prefix.
    std::set<int> prefix_bound;
    for (std::size_t done = 0; done <= step; ++done) {
      prefix_bound.insert(atom_vars[order[done]].begin(),
                          atom_vars[order[done]].end());
    }
    JoinPlanStep s;
    s.atom_index = order[step];
    for (int v : prefix_bound) {
      if (needed.count(v)) s.keep_vars.push_back(v);
    }
    plan.steps.push_back(std::move(s));
  }

  auto color = ColorNumberOfChase(query);
  if (color.ok()) {
    plan.cost_exponent = color->value + Rational(1);
  } else {
    plan.cost_exponent = Rational(static_cast<std::int64_t>(m));
  }
  std::set<int> body = query.BodyVarSet();
  plan.guaranteed = query.AllFdsSimple() && head == body;
  return plan;
}

Result<Relation> ExecuteJoinPlan(const Query& query, const JoinPlan& plan,
                                 const Database& db, EvalStats* stats) {
  // Same contract as the relation/ evaluators: never leave a reused
  // EvalStats holding the previous run's counters on an error return.
  if (stats != nullptr) *stats = EvalStats{};
  if (plan.steps.size() != query.atoms().size()) {
    return Status::InvalidArgument("plan does not cover all atoms");
  }
  EvalStats local;
  std::vector<int> bound_vars;
  std::vector<Tuple> bindings = {Tuple{}};

  for (const JoinPlanStep& step : plan.steps) {
    if (step.atom_index < 0 ||
        step.atom_index >= static_cast<int>(query.atoms().size())) {
      return Status::InvalidArgument("plan step atom index out of range");
    }
    const Atom& atom = query.atoms()[step.atom_index];
    const Relation* rel = db.Find(atom.relation);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + atom.relation + "' missing");
    }
    if (rel->arity() != static_cast<int>(atom.vars.size())) {
      return Status::InvalidArgument("arity mismatch for " + atom.relation);
    }
    // Join positions vs new positions (with intra-atom repeats).
    std::vector<std::pair<int, int>> join_pos;
    std::vector<std::pair<int, int>> new_pos;
    std::vector<int> first_seen(query.num_variables(), -1);
    for (std::size_t p = 0; p < atom.vars.size(); ++p) {
      int var = atom.vars[p];
      auto it = std::find(bound_vars.begin(), bound_vars.end(), var);
      if (it != bound_vars.end()) {
        join_pos.emplace_back(static_cast<int>(p),
                              static_cast<int>(it - bound_vars.begin()));
      } else if (first_seen[var] >= 0) {
        join_pos.emplace_back(static_cast<int>(p), -1 - first_seen[var]);
      } else {
        first_seen[var] = static_cast<int>(p);
        new_pos.emplace_back(static_cast<int>(p), var);
      }
    }
    // Index row ids, not tuple pointers: rows are read back through the
    // column store, which stays untouched for the step's lifetime.
    const ColumnStore& store = rel->store();
    std::unordered_map<Tuple, std::vector<std::size_t>, TupleHash> index;
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row)) continue;
      bool ok = true;
      Tuple key;
      for (const auto& [pos, ref] : join_pos) {
        if (ref < 0) {
          if (store.ValueAt(row, pos) != store.ValueAt(row, -1 - ref)) {
            ok = false;
            break;
          }
        } else {
          key.push_back(store.ValueAt(row, pos));
        }
      }
      if (ok) {
        index[key].push_back(row);
        ++local.indexed_tuples;
      }
    }
    std::vector<int> joined_vars = bound_vars;
    for (const auto& [pos, var] : new_pos) {
      (void)pos;
      joined_vars.push_back(var);
    }
    std::vector<Tuple> joined;
    for (const Tuple& binding : bindings) {
      Tuple key;
      for (const auto& [pos, ref] : join_pos) {
        (void)pos;
        if (ref >= 0) key.push_back(binding[ref]);
      }
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (std::size_t match : it->second) {
        Tuple extended = binding;
        for (const auto& [pos, var] : new_pos) {
          (void)var;
          extended.push_back(store.ValueAt(match, pos));
        }
        joined.push_back(std::move(extended));
      }
    }
    // Project onto the plan's keep set.
    std::vector<int> keep_positions;
    for (int v : step.keep_vars) {
      auto it = std::find(joined_vars.begin(), joined_vars.end(), v);
      if (it == joined_vars.end()) {
        return Status::InvalidArgument(
            "plan keeps a variable that is not bound yet: " +
            query.variable_name(v));
      }
      keep_positions.push_back(static_cast<int>(it - joined_vars.begin()));
    }
    std::unordered_set<Tuple, TupleHash> dedup;
    std::vector<Tuple> projected;
    for (const Tuple& binding : joined) {
      Tuple p;
      p.reserve(keep_positions.size());
      for (int pos : keep_positions) p.push_back(binding[pos]);
      if (dedup.insert(p).second) projected.push_back(std::move(p));
    }
    bound_vars = step.keep_vars;
    bindings = std::move(projected);
    local.intermediate_sizes.push_back(bindings.size());
    local.max_intermediate = std::max(local.max_intermediate, bindings.size());
    local.total_intermediate += bindings.size();
  }

  Relation output(query.head_relation(),
                  static_cast<int>(query.head_vars().size()));
  std::vector<int> head_positions;
  for (int var : query.head_vars()) {
    auto it = std::find(bound_vars.begin(), bound_vars.end(), var);
    if (it == bound_vars.end()) {
      return Status::InvalidArgument(
          "plan dropped head variable '" + query.variable_name(var) + "'");
    }
    head_positions.push_back(static_cast<int>(it - bound_vars.begin()));
  }
  Tuple head_tuple(head_positions.size());
  for (const Tuple& binding : bindings) {
    for (std::size_t i = 0; i < head_positions.size(); ++i) {
      head_tuple[i] = binding[head_positions[i]];
    }
    output.Insert(head_tuple);
  }
  local.output_size = output.size();
  if (stats != nullptr) *stats = local;
  return output;
}

const char* VariableOrderSourceName(VariableOrderSource source) {
  switch (source) {
    case VariableOrderSource::kTreeDecomposition: return "tree-decomposition";
    case VariableOrderSource::kFractionalCover: return "fractional-cover";
    case VariableOrderSource::kGreedy: return "greedy";
  }
  return "unknown";
}

std::string GenericJoinOrder::ToString(const Query& query) const {
  std::ostringstream os;
  os << "GenericJoinOrder(source=" << VariableOrderSourceName(source);
  if (intersection_width >= 0) os << ", width=" << intersection_width;
  os << ", plan=" << PlanKindName(recommended_plan);
  os << ", envelope rmax^" << envelope_exponent.ToString() << "): ";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) os << " -> ";
    os << query.variable_name(order[i]);
  }
  return os.str();
}

Result<GenericJoinOrder> ChooseGenericJoinOrder(const Query& query) {
  return ChooseGenericJoinOrder(query, /*ctx=*/nullptr);
}

Result<GenericJoinOrder> ChooseGenericJoinOrder(const Query& query,
                                                EvalContext* ctx) {
  CQB_RETURN_NOT_OK(query.Validate());
  GenericJoinOrder out;

  // The AGM envelope and the per-atom weights come from the cover LP over
  // *all* body variables (the generic join enumerates full bindings, so its
  // prefix counts are governed by rho* of the full join, not of the head).
  auto cover = FractionalEdgeCoverWeights(query, /*cover_all_body_vars=*/true);
  if (cover.ok()) {
    out.envelope_exponent = cover->value;
  } else {
    // No fractional cover (only possible for degenerate bodies): fall back
    // to the trivial all-ones cover exponent.
    out.envelope_exponent =
        Rational(static_cast<std::int64_t>(query.atoms().size()));
  }

  // Low-width path: the shared probe (relation/evaluate.h) builds the
  // variable-intersection graph, certifies its width when small and sparse
  // enough, and derives the reverse-elimination binding order -- the same
  // gate the hybrid executor runs, so the recommended plan and the
  // executor's behavior cannot drift apart. With a context, planner and
  // executor even share the same cached probe entry.
  LowWidthProbe transient_probe;
  const LowWidthProbe& probe =
      ctx != nullptr ? ctx->GetPlan(query, nullptr).probe
                     : (transient_probe = ProbeLowWidthStructure(query));
  if (probe.low_width) {
    out.intersection_width = probe.tw.width;
    out.source = VariableOrderSource::kTreeDecomposition;
    out.recommended_plan = PlanKind::kHybridYannakakis;
    out.order = probe.order;
    return out;
  }

  if (!cover.ok()) {
    out.source = VariableOrderSource::kGreedy;
    out.order = DefaultGenericJoinOrder(query);
    return out;
  }

  // Cover-weight path: a variable's mass is the total optimal cover weight
  // of the atoms containing it (>= 1 by the cover constraint). Heavier
  // variables sit in more of the relations that pay for the envelope, so
  // binding them first narrows every trie at once. Connected-first with
  // deterministic ties (ConnectedFirstOrder).
  std::vector<Rational> mass(query.num_variables(), Rational(0));
  for (std::size_t j = 0; j < query.atoms().size(); ++j) {
    for (int v : query.AtomVarSet(static_cast<int>(j))) {
      mass[v] = mass[v] + cover->weights[j];
    }
  }
  out.source = VariableOrderSource::kFractionalCover;
  out.order = ConnectedFirstOrder(query, [&mass](int incumbent, int candidate) {
    return mass[incumbent] < mass[candidate];
  });
  return out;
}

}  // namespace cqbounds
