// Worst-case database generator: a command-line tool exposing the
// Proposition 4.5 construction. Give it a query (with optional keys/FDs)
// and a scale M; it prints the certified-worst-case instance together with
// the bound ledger. Useful for stress-testing query optimizers with
// adversarial inputs.
//
//   $ ./worst_case_db "Q(X,Z) :- R(X,Y), S(Y,Z)." 3

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "core/size_bounds.h"
#include "cq/chase.h"
#include "cq/parser.h"
#include "relation/evaluate.h"

namespace {

/// Parses all of `arg` as a base-10 int64; false on junk or overflow.
bool ParseInt64(const char* arg, std::int64_t* out) {
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, *out);
  return ec == std::errc() && ptr == end && ptr != arg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqbounds;

  std::string text =
      argc > 1 ? argv[1] : "Q(X,Z) :- R(X,Y), S(Y,Z).";
  std::int64_t m = 3;
  if (argc > 2 && !ParseInt64(argv[2], &m)) {
    std::cerr << "usage: worst_case_db [\"<query>\"] [M]  (M: an integer)\n";
    return 2;
  }

  auto parsed = ParseQuery(text);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.status() << "\n";
    return 1;
  }
  Query chased = Chase(*parsed);
  auto bound = ComputeSizeBound(*parsed);
  if (!bound.ok()) {
    std::cerr << "bound error: " << bound.status() << "\n";
    return 1;
  }
  std::cout << "query:        " << text << "\n"
            << "chase(Q):     " << chased.ToString() << "\n"
            << "C(chase(Q)) = " << bound->exponent << "\n"
            << "witness coloring: " << bound->witness.ToString(chased)
            << "\n\n";

  auto db = BuildWorstCaseDatabase(chased, bound->witness, m);
  if (!db.ok()) {
    std::cerr << "construction error: " << db.status() << "\n";
    return 1;
  }
  const ValuePool& pool = *db->value_pool();
  for (const auto& [name, rel] : db->relations()) {
    std::cout << name << " (" << rel.size() << " tuples):\n";
    std::size_t shown = 0;
    for (const Tuple& t : rel.tuples()) {
      std::cout << "  (";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i) std::cout << ", ";
        std::cout << pool.Spelling(t[i]);
      }
      std::cout << ")\n";
      if (++shown == 8 && rel.size() > 8) {
        std::cout << "  ... " << rel.size() - 8 << " more\n";
        break;
      }
    }
  }

  auto result = EvaluateQuery(chased, *db, PlanKind::kJoinProject);
  if (!result.ok()) {
    std::cerr << "evaluation error: " << result.status() << "\n";
    return 1;
  }
  BigInt rmax(static_cast<std::int64_t>(db->RMax(chased).ValueOrDie()));
  std::cout << "\nledger (M = " << m << "):\n"
            << "  rmax(D)        = " << rmax << "\n"
            << "  |Q(D)|         = " << result->size() << "\n"
            << "  rmax^C         = " << SizeBoundValue(rmax, bound->exponent)
            << "\n"
            << "  bound holds:     "
            << (SatisfiesSizeBound(
                    BigInt(static_cast<std::int64_t>(result->size())), rmax,
                    bound->exponent)
                    ? "yes"
                    : "NO (bug!)")
            << "\n";
  return 0;
}
