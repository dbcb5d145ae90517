#include "core/coloring.h"

#include <algorithm>
#include <sstream>

namespace cqbounds {

std::set<int> Coloring::UnionOver(const std::set<int>& vars) const {
  std::set<int> out;
  for (int v : vars) {
    if (v >= 0 && v < static_cast<int>(labels.size())) {
      out.insert(labels[v].begin(), labels[v].end());
    }
  }
  return out;
}

bool Coloring::AnyNonEmpty() const {
  return std::any_of(labels.begin(), labels.end(),
                     [](const std::set<int>& l) { return !l.empty(); });
}

std::string Coloring::ToString(const Query& query) const {
  std::ostringstream os;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v].empty()) continue;
    os << query.variable_name(static_cast<int>(v)) << "={";
    bool first = true;
    for (int c : labels[v]) {
      if (!first) os << ",";
      first = false;
      os << c;
    }
    os << "} ";
  }
  std::string s = os.str();
  if (!s.empty()) s.pop_back();
  return s;
}

Status ValidateColoring(const Query& query, const Coloring& coloring) {
  if (static_cast<int>(coloring.labels.size()) != query.num_variables()) {
    return Status::InvalidArgument("coloring has wrong number of variables");
  }
  for (const VariableFd& fd : query.DeriveVariableFds()) {
    std::set<int> lhs_union;
    for (int v : fd.lhs) {
      lhs_union.insert(coloring.labels[v].begin(), coloring.labels[v].end());
    }
    for (int color : coloring.labels[fd.rhs]) {
      if (!lhs_union.count(color)) {
        return Status::FailedPrecondition(
            "coloring violates FD into variable '" +
            query.variable_name(fd.rhs) + "' (color " + std::to_string(color) +
            " not on the left side)");
      }
    }
  }
  if (!coloring.AnyNonEmpty()) {
    return Status::FailedPrecondition("coloring assigns no colors at all");
  }
  return Status::OK();
}

Rational ColoringNumber(const Query& query, const Coloring& coloring) {
  std::set<int> head = coloring.UnionOver(query.HeadVarSet());
  std::size_t denominator = 0;
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    denominator = std::max(
        denominator,
        coloring.UnionOver(query.AtomVarSet(static_cast<int>(i))).size());
  }
  if (denominator == 0) return Rational(0);
  return Rational(static_cast<std::int64_t>(head.size()),
                  static_cast<std::int64_t>(denominator));
}

Rational BestColoringBruteForce(const Query& query, int max_colors,
                                Coloring* best) {
  const int n = query.num_variables();
  CQB_CHECK(n * max_colors <= 24);
  const std::uint64_t label_space = 1ull << max_colors;
  std::uint64_t total = 1;
  for (int v = 0; v < n; ++v) total *= label_space;

  Rational best_value(0);
  Coloring coloring;
  coloring.labels.assign(n, {});
  for (std::uint64_t code = 0; code < total; ++code) {
    std::uint64_t rest = code;
    for (int v = 0; v < n; ++v) {
      std::uint64_t bits = rest % label_space;
      rest /= label_space;
      coloring.labels[v].clear();
      for (int c = 0; c < max_colors; ++c) {
        if ((bits >> c) & 1) coloring.labels[v].insert(c);
      }
    }
    if (!coloring.AnyNonEmpty()) continue;
    if (!ValidateColoring(query, coloring).ok()) continue;
    Rational value = ColoringNumber(query, coloring);
    if (value > best_value) {
      best_value = value;
      if (best != nullptr) *best = coloring;
    }
  }
  return best_value;
}

namespace {

/// Backtracking search for a {1,2}-coloring with color number exactly 2:
/// labels range over {}, {1}, {2} ({1,2} on any variable would place two
/// colors in that variable's atoms, which immediately breaks the
/// denominator-1 requirement since every variable occurs in some atom).
class TwoColoringSearch {
 public:
  explicit TwoColoringSearch(const Query& query)
      : query_(query), fds_(query.DeriveVariableFds()),
        labels_(query.num_variables(), 0) {}

  bool Run() { return Assign(0); }

 private:
  /// label encoding: 0 = empty, 1 = {1}, 2 = {2}.
  bool Assign(std::size_t v) {
    if (v == labels_.size()) return Check(true);
    for (int choice : {0, 1, 2}) {
      labels_[v] = choice;
      if (Check(false, static_cast<int>(v)) && Assign(v + 1)) return true;
    }
    labels_[v] = 0;
    return false;
  }

  /// Partial (or final) consistency: no atom sees both colors among
  /// variables assigned so far; FDs with all variables decided hold; at the
  /// end the head must see both colors.
  bool Check(bool final, int assigned_up_to = -1) {
    if (final) assigned_up_to = static_cast<int>(labels_.size()) - 1;
    auto decided = [&](int var) { return var <= assigned_up_to; };
    for (const Atom& atom : query_.atoms()) {
      bool saw1 = false, saw2 = false;
      for (int var : atom.vars) {
        if (!decided(var)) continue;
        saw1 = saw1 || labels_[var] == 1;
        saw2 = saw2 || labels_[var] == 2;
      }
      if (saw1 && saw2) return false;
    }
    for (const VariableFd& fd : fds_) {
      if (!decided(fd.rhs) || labels_[fd.rhs] == 0) continue;
      bool all_decided = true;
      bool covered = false;
      for (int l : fd.lhs) {
        if (!decided(l)) {
          all_decided = false;
        } else if (labels_[l] == labels_[fd.rhs]) {
          covered = true;
        }
      }
      // With single colors, L(rhs) subset of union(L(lhs)) means some lhs
      // variable carries rhs's color. Only enforce once all lhs decided;
      // earlier it could still be satisfied by an undecided variable.
      if (all_decided && !covered) return false;
    }
    // Head must end up seeing both colors; prune as soon as the decided
    // head variables can no longer reach that (undecided ones could still
    // contribute either color).
    bool head1 = false, head2 = false, head_open = false;
    for (int var : query_.head_vars()) {
      if (!decided(var)) {
        head_open = true;
        continue;
      }
      head1 = head1 || labels_[var] == 1;
      head2 = head2 || labels_[var] == 2;
    }
    if (!head_open && !(head1 && head2)) return false;
    return true;
  }

  const Query& query_;
  std::vector<VariableFd> fds_;
  std::vector<int> labels_;
};

}  // namespace

bool ExistsTwoColoringNumberTwo(const Query& query) {
  return TwoColoringSearch(query).Run();
}

}  // namespace cqbounds
