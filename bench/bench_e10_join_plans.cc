// E10 -- Corollary 4.8 / Fact 4.10, and the executor that meets Prop 4.1.
//
// Three evaluation plans over the same adversarial inputs:
//   naive         left-deep hash joins, no projection discipline;
//   join-project  Corollary 4.8: project to needed vars, rmax^{C+1} budget;
//   generic-join  worst-case-optimal leapfrog over sorted tries: every
//                 per-variable intermediate stays within the AGM envelope
//                 rmax^{rho*(full join)} (Prop 4.1/4.3 as a *runtime*).
//
// The star-triangle table is the paper's size bound turned adversarial: the
// naive plan's two-step-walk intermediate overshoots rmax^{3/2} while the
// generic join cannot, and both agree on the output.

#include "bench/bench_util.h"
#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "cq/parser.h"
#include "relation/evaluate.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

Database ChainAdversary(int fanout) {
  // R: A->X fanout, S: X->B fan-in, T: B->Y fanout, U: Y->C fan-in.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < fanout; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  return db;
}

constexpr PlanKind kAllPlans[] = {PlanKind::kNaive, PlanKind::kJoinProject,
                                  PlanKind::kGenericJoin,
                                  PlanKind::kHybridYannakakis};

/// One row per plan, each measured against the exponent the caller picks
/// for it: `binary_exponent` caps the two binary-join plans,
/// `order.envelope_exponent` (the AGM exponent rho*(full join)) caps the
/// generic join -- executed under `order`, the same order the table header
/// prints -- and the hybrid, whose semi-join-reduced enumeration inherits
/// the same envelope.
void AddPlanRows(bench::Table* table, const std::string& instance,
                 const Query& q, const Database& db,
                 const Rational& binary_exponent,
                 const GenericJoinOrder& order) {
  BigInt rmax(static_cast<std::int64_t>(db.RMax(q).ValueOrDie()));
  for (PlanKind kind : kAllPlans) {
    const Rational& exponent = kind == PlanKind::kGenericJoin ||
                                       kind == PlanKind::kHybridYannakakis
                                   ? order.envelope_exponent
                                   : binary_exponent;
    BigInt cap = SizeBoundValue(rmax, exponent);
    EvalStats stats;
    auto result = kind == PlanKind::kGenericJoin
                      ? EvaluateGenericJoin(q, db, order.order, &stats)
                      : EvaluateQuery(q, db, kind, nullptr, nullptr, &stats);
    // The semi-join column makes the hybrid's reduction pass visible: an
    // abandoned pass used to read exactly like a clean one.
    const char* pass = "-";
    if (kind == PlanKind::kHybridYannakakis) {
      pass = stats.semijoin_pass_skipped
                 ? "skipped"
                 : (stats.semijoin_pass_ran ? "ran" : "off");
    }
    table->AddRow({instance, PlanKindName(kind),
                   bench::Num(stats.max_intermediate),
                   bench::Num(result->size()), cap.ToString(),
                   SatisfiesSizeBound(
                       BigInt(static_cast<std::int64_t>(
                           stats.max_intermediate)),
                       rmax, exponent)
                       ? "yes"
                       : "NO",
                   pass});
  }
}

void PrintTables() {
  std::cout << "E10: four join plans vs the paper's envelopes "
               "(Cor 4.8 / Prop 4.1 / Yannakakis)\n\n";

  auto chain = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  auto chain_bound = ComputeSizeBound(*chain);
  auto chain_order = ChooseGenericJoinOrder(*chain);

  auto triangle = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto tri_bound = ComputeSizeBound(*triangle);
  auto tri_order = ChooseGenericJoinOrder(*triangle);

  auto star = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  auto star_order = ChooseGenericJoinOrder(*star);

  std::cout << "Chain adversary (binary plans capped at rmax^{C+1}, "
               "Cor 4.8; generic join\nat the AGM cap rmax^{rho*full}):\n";
  bench::Table table({"instance", "plan", "max intermediate", "output",
                      "envelope cap", "within", "semijoin"});
  for (int fanout : {10, 40, 100}) {
    AddPlanRows(&table, "chain/" + std::to_string(fanout), *chain,
                ChainAdversary(fanout), chain_bound->exponent + Rational(1),
                *chain_order);
  }
  table.Print();

  std::cout << "\nStar triangle: every plan measured against the AGM "
               "envelope rmax^{3/2}\n(= rmax^C here: all variables are in "
               "the head). Both binary plans overshoot\nit -- projection "
               "cannot help a full-head query -- while the generic join\n"
               "structurally cannot:\n";
  bench::Table star_table({"instance", "plan", "max intermediate", "output",
                           "envelope cap", "within", "semijoin"});
  for (int n : {30, 60, 120}) {
    AddPlanRows(&star_table, "star/" + std::to_string(n), *star,
                StarTriangleDatabase(n), star_order->envelope_exponent,
                *star_order);
  }
  star_table.Print();

  std::cout << "\nWorst-case triangle inputs (Prop 4.5 databases; binary "
               "plans at rmax^{C+1},\ngeneric join at the AGM cap):\n";
  bench::Table tri({"instance", "plan", "max intermediate", "output",
                    "envelope cap", "within", "semijoin"});
  for (std::int64_t m : {4, 8, 16}) {
    auto db = BuildWorstCaseDatabase(*triangle, tri_bound->witness, m);
    AddPlanRows(&tri, "triangle-wc/" + std::to_string(m), *triangle, *db,
                tri_bound->exponent + Rational(1), *tri_order);
  }
  tri.Print();

  // Per-variable counters: what the executor actually did, depth by depth.
  std::cout << "\nGeneric-join per-variable counters (star/120, LP+tw "
               "chosen order):\n";
  bench::Table vars({"depth", "variable", "bindings", "seeks share"});
  {
    Database db = StarTriangleDatabase(120);
    EvalStats stats;
    auto result = EvaluateGenericJoin(*star, db, star_order->order, &stats);
    (void)result;
    for (std::size_t d = 0; d < stats.intermediate_sizes.size(); ++d) {
      vars.AddRow({bench::Num(static_cast<int>(d)),
                   star->variable_name(star_order->order[d]),
                   bench::Num(stats.intermediate_sizes[d]),
                   d + 1 == stats.intermediate_sizes.size()
                       ? bench::Num(stats.intersection_seeks) + " total"
                       : "-"});
    }
  }
  vars.Print();

  // The planner's choice per query, in a table so a changed order or plan
  // shows in the baseline diff.
  auto projection = ParseQuery("P(A) :- F(A,B), G(B,C).");
  auto projection_order = ChooseGenericJoinOrder(*projection);
  std::cout << "\nPlanned queries (ChooseGenericJoinOrder): the generic join "
               "where its order is\nprovably input-linear, the hybrid where "
               "a reduction may pay:\n";
  bench::Table plans({"query", "source", "width", "plan", "reason", "order"});
  struct Planned {
    const char* name;
    const Query& query;
    const GenericJoinOrder& order;
  };
  const Planned planned[] = {{"chain", *chain, *chain_order},
                             {"triangle", *triangle, *tri_order},
                             {"star", *star, *star_order},
                             {"projection", *projection, *projection_order}};
  for (const Planned& p : planned) {
    std::string order_text;
    for (int v : p.order.order) {
      order_text += (order_text.empty() ? "" : " ") + p.query.variable_name(v);
    }
    plans.AddRow({p.name, VariableOrderSourceName(p.order.source),
                  p.order.intersection_width >= 0
                      ? bench::Num(p.order.intersection_width)
                      : "-",
                  PlanKindName(p.order.recommended_plan),
                  PlanReasonName(p.order), order_text});
  }
  plans.Print();

  std::cout << "\nShape check: naive intermediates scale with fanout^2 on\n"
               "the chain, where the join-project plan stays linear within\n"
               "its rmax^{C+1} budget (Cor 4.8); on the star both binary\n"
               "plans overshoot the AGM cap rmax^{3/2}; the generic join\n"
               "stays within rmax^{rho*(full)} on every instance -- it\n"
               "executes inside the bound the paper proves -- and the\n"
               "hybrid Yannakakis plan (semi-join reduction over the\n"
               "certified decomposition, then generic join) can only\n"
               "shrink those intermediates further.\n\n";
}

CQB_BENCH_TIMED("chain100/naive", [] {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(100);
  EvaluateQuery(*q, db, PlanKind::kNaive).ValueOrDie();
})

CQB_BENCH_TIMED("chain100/join_project", [] {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(100);
  EvaluateQuery(*q, db, PlanKind::kJoinProject).ValueOrDie();
})

CQB_BENCH_TIMED("chain100/generic_join", [] {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(100);
  EvaluateQuery(*q, db, PlanKind::kGenericJoin).ValueOrDie();
})

CQB_BENCH_TIMED("star120/naive", [] {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  Database db = StarTriangleDatabase(120);
  EvaluateQuery(*q, db, PlanKind::kNaive).ValueOrDie();
})

CQB_BENCH_TIMED("star120/generic_join", [] {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  Database db = StarTriangleDatabase(120);
  EvaluateQuery(*q, db, PlanKind::kGenericJoin).ValueOrDie();
})

CQB_BENCH_TIMED("triangle_wc16/generic_join", [] {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto bound = ComputeSizeBound(*q);
  auto db = BuildWorstCaseDatabase(*q, bound->witness, 16);
  EvaluateQuery(*q, *db, PlanKind::kGenericJoin).ValueOrDie();
})

void BM_ChainNaive(benchmark::State& state) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, db, PlanKind::kNaive);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainNaive)->Arg(20)->Arg(60)->Arg(120);

void BM_ChainJoinProject(benchmark::State& state) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, db, PlanKind::kJoinProject);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainJoinProject)->Arg(20)->Arg(60)->Arg(120);

void BM_ChainGenericJoin(benchmark::State& state) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, db, PlanKind::kGenericJoin);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainGenericJoin)->Arg(20)->Arg(60)->Arg(120);

void BM_TriangleJoinProject(benchmark::State& state) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto bound = ComputeSizeBound(*q);
  auto db = BuildWorstCaseDatabase(*q, bound->witness, state.range(0));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, *db, PlanKind::kJoinProject);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TriangleJoinProject)->Arg(8)->Arg(16);

void BM_TriangleGenericJoin(benchmark::State& state) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto bound = ComputeSizeBound(*q);
  auto db = BuildWorstCaseDatabase(*q, bound->witness, state.range(0));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, *db, PlanKind::kGenericJoin);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TriangleGenericJoin)->Arg(8)->Arg(16);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
