// Generic-join demo: run one query under all four evaluation plans and
// watch the worst-case-optimal executor (and the hybrid Yannakakis plan on
// low-width queries) stay inside the AGM envelope the paper proves
// (Prop 4.1/4.3), where the binary-join plans overshoot.
//
//   $ ./generic_join_demo db.txt "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)."
//
// With no arguments, runs the triangle query on a built-in hub-and-spoke
// adversary (the E10 star instance).

#include <fstream>
#include <iostream>

#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "cq/parser.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/text_io.h"

int main(int argc, char** argv) {
  using namespace cqbounds;

  Database db;
  std::string query_text = "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).";
  if (argc == 2) {
    std::cerr << "usage: " << argv[0] << " [<db.txt> <query>]\n";
    return 1;
  }
  if (argc > 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    Status status = ReadDatabaseText(in, &db);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    query_text = argv[2];
  } else {
    std::cout << "(built-in star adversary; pass <db.txt> <query> to "
                 "override)\n\n";
    db = StarTriangleDatabase(40);
  }

  auto q = ParseQuery(query_text);
  if (!q.ok()) {
    std::cerr << "parse error: " << q.status() << "\n";
    return 1;
  }
  auto order = ChooseGenericJoinOrder(*q);
  if (!order.ok()) {
    std::cerr << "ordering error: " << order.status() << "\n";
    return 1;
  }
  std::cout << "query: " << query_text << "\n"
            << order->ToString(*q) << "\n\n";

  const BigInt rmax(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie()));
  const BigInt cap = SizeBoundValue(rmax, order->envelope_exponent);
  std::cout << "rmax = " << rmax.ToString() << ", AGM envelope rmax^"
            << order->envelope_exponent.ToString() << " = " << cap.ToString()
            << "\n\n";

  for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                        PlanKind::kGenericJoin,
                        PlanKind::kHybridYannakakis}) {
    EvalStats stats;
    auto result =
        kind == PlanKind::kGenericJoin
            ? EvaluateGenericJoin(*q, db, order->order, &stats)
            : EvaluateQuery(*q, db, kind, nullptr, nullptr, &stats);
    if (!result.ok()) {
      std::cerr << "execution error: " << result.status() << "\n";
      return 1;
    }
    std::cout << PlanKindName(kind) << ": |Q(D)| = " << result->size()
              << ", peak intermediate = " << stats.max_intermediate
              << (SatisfiesSizeBound(
                      BigInt(static_cast<std::int64_t>(stats.max_intermediate)),
                      rmax, order->envelope_exponent)
                      ? " (within envelope)"
                      : " (EXCEEDS envelope)")
              << ", indexed " << stats.indexed_tuples << " tuples\n";
    if (kind == PlanKind::kGenericJoin) {
      std::cout << "  per-variable bindings:";
      for (std::size_t d = 0; d < stats.intermediate_sizes.size(); ++d) {
        std::cout << " " << q->variable_name(order->order[d]) << "="
                  << stats.intermediate_sizes[d];
      }
      std::cout << " (" << stats.intersection_seeks << " trie seeks)\n";
    }
    if (kind == PlanKind::kHybridYannakakis) {
      std::cout << "  semi-join reduction dropped "
                << stats.semijoin_dropped_tuples << " dangling tuple(s)\n";
    }
  }
  return 0;
}
