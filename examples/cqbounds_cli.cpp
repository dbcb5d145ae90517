// cqbounds_cli: one binary exposing the library's analyses as subcommands.
//
//   cqbounds_cli analyze  "<query>"          full report (all of the below)
//   cqbounds_cli bound    "<query>"          size-bound exponent + class
//   cqbounds_cli chase    "<query>"          print chase(Q)
//   cqbounds_cli increase "<query>"          can |Q(D)| exceed rmax(D)?
//   cqbounds_cli preserve "<query>"          treewidth preservation verdict
//   cqbounds_cli plan     "<query>"          Cor 4.8 join-project plan
//   cqbounds_cli worstcase "<query>" [M]     emit worst-case DB (text fmt)
//
// Queries use the parser syntax, e.g.
//   "Q(X,Z) :- R(X,Y), S(Y,Z). key S: 1."

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "core/analyze.h"
#include "core/color_number.h"
#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "core/size_increase.h"
#include "core/treewidth_bounds.h"
#include "cq/chase.h"
#include "cq/parser.h"
#include "relation/text_io.h"

namespace {

int Usage() {
  std::cerr
      << "usage: cqbounds_cli <analyze|bound|chase|increase|preserve|plan|worstcase>"
         " \"<query>\" [M]\n";
  return 2;
}

/// Parses all of `arg` as a base-10 int64; false on junk or overflow.
bool ParseInt64(const char* arg, std::int64_t* out) {
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, *out);
  return ec == std::errc() && ptr == end && ptr != arg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqbounds;
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  auto parsed = ParseQuery(argv[2]);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.status() << "\n";
    return 1;
  }
  const Query& q = *parsed;

  if (command == "analyze") {
    auto analysis = AnalyzeQuery(q);
    if (!analysis.ok()) {
      std::cerr << analysis.status() << "\n";
      return 1;
    }
    std::cout << RenderAnalysis(q, *analysis);
    return 0;
  }
  if (command == "chase") {
    std::cout << Chase(q).ToString() << "\n";
    return 0;
  }
  if (command == "bound") {
    auto bound = ComputeSizeBound(q);
    if (!bound.ok()) {
      std::cerr << bound.status() << "\n";
      return 1;
    }
    std::cout << "C(chase(Q)) = " << bound->exponent << "\n"
              << (bound->is_upper_bound
                      ? "|Q(D)| <= rmax(D)^C  (tight worst case, Thm 4.4)"
                      : "worst case >= rmax^C; exponent not tight under "
                        "compound FDs (Sec 6)")
              << "\n";
    return 0;
  }
  if (command == "increase") {
    auto inc = SizeIncreasePossible(q);
    if (!inc.ok()) {
      std::cerr << inc.status() << "\n";
      return 1;
    }
    std::cout << (*inc ? "yes: some D makes |Q(D)| > rmax(D)"
                       : "no: |Q(D)| <= rmax(D) for every D")
              << "\n";
    return 0;
  }
  if (command == "preserve") {
    if (q.fds().empty()) {
      std::cout << (TreewidthPreservedNoFds(q)
                        ? "preserved: tw(Q(D)) <= tw(D) (Prop 5.9)"
                        : "NOT preserved: unbounded treewidth blowup")
                << "\n";
      return 0;
    }
    auto preserved = TreewidthPreservedSimpleFds(q);
    if (preserved.ok()) {
      std::cout << (*preserved
                        ? "preserved up to the Thm 5.10 factor"
                        : "NOT preserved: unbounded treewidth blowup")
                << "\n";
      return 0;
    }
    // Compound FDs: fall back to the (exponential) search.
    std::cout << (ExistsTwoColoringNumberTwo(Chase(q))
                      ? "NOT preserved: unbounded treewidth blowup"
                      : "preserved (no 2-coloring with color number 2; "
                        "decided by exhaustive search)")
              << "\n";
    return 0;
  }
  if (command == "plan") {
    auto plan = BuildJoinProjectPlan(q);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 1;
    }
    std::cout << plan->ToString(q);
    return 0;
  }
  if (command == "worstcase") {
    std::int64_t m = 3;
    if (argc > 3 && !ParseInt64(argv[3], &m)) return Usage();
    Query chased = Chase(q);
    auto bound = ComputeSizeBound(q);
    if (!bound.ok()) {
      std::cerr << bound.status() << "\n";
      return 1;
    }
    auto db = BuildWorstCaseDatabase(chased, bound->witness, m);
    if (!db.ok()) {
      std::cerr << db.status() << "\n";
      return 1;
    }
    // Render to a string first so a write error leaves no partial output
    // on stdout.
    auto rendered = WriteDatabaseTextToString(*db);
    if (!rendered.ok()) {
      std::cerr << rendered.status() << "\n";
      return 1;
    }
    std::cout << *rendered;
    return 0;
  }
  return Usage();
}
