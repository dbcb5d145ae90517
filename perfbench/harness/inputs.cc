#include "harness/inputs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <unordered_set>

namespace perfbench {

using cqbounds::PlanKind;
using cqbounds::Rng;

namespace {

// Stream ids: every input family draws from its own generator, so resizing
// one family never shifts another's values.
constexpr std::uint64_t kStreamClique = 1;
constexpr std::uint64_t kStreamChain = 2;
constexpr std::uint64_t kStreamProjection = 3;
constexpr std::uint64_t kStreamMutateBase = 10;
constexpr std::uint64_t kStreamMutateScript = 11;
constexpr std::uint64_t kStreamReadBase = 20;

// warm-mutate domains.
constexpr Value kKeyDomain = 100000;        // K and B's first column
constexpr std::size_t kKeys = 200;          // |K|
constexpr std::size_t kBRows = 200000;      // |B|
constexpr Value kChainXDomain = 50000;      // H and L's x
constexpr Value kChainYDomain = 100000;     // L and M's y
constexpr std::size_t kHotChurnable = 450;  // H rows that churn
constexpr std::size_t kHotDanglers = 50;    // H rows outside L's x domain
constexpr Value kDanglerBase = 1000000;
constexpr std::size_t kChainRows = 100000;  // |L| = |M|
constexpr std::size_t kHotChurnPerOp = 30;
constexpr std::size_t kDeltas[] = {1, 10, 100, 1000};

std::uint64_t Pack(Value a, Value b) {
  return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint32_t>(b);
}
Value High(std::uint64_t key) { return static_cast<Value>(key >> 32); }
Value Low(std::uint64_t key) { return static_cast<Value>(key & 0xFFFFFFFFu); }

Value Below(Rng* rng, Value bound) {
  return static_cast<Value>(rng->NextBelow(static_cast<std::uint64_t>(bound)));
}

double Uniform(Rng* rng) {
  return static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
}

/// Adds distinct binary rows drawn by `draw` until `relation` has `rows`.
template <typename Draw>
void FillDistinctPairs(FlatRelation* relation, std::size_t rows, Draw draw) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(rows * 2);
  while (relation->rows() < rows) {
    const auto [a, b] = draw();
    if (!seen.insert(Pack(a, b)).second) continue;
    relation->values.push_back(a);
    relation->values.push_back(b);
  }
}

void AppendValue(std::string* out, Value v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed * 0x9e3779b97f4a7c15ull + stream);
  return Rng(mix.Next());
}

std::string ToText(const std::vector<FlatRelation>& relations) {
  std::string out;
  for (const FlatRelation& rel : relations) {
    out += "relation " + rel.name + " " + std::to_string(rel.arity) + "\n";
  }
  for (const FlatRelation& rel : relations) {
    for (std::size_t r = 0; r < rel.rows(); ++r) {
      out += rel.name;
      for (int c = 0; c < rel.arity; ++c) {
        out += ' ';
        AppendValue(&out, rel.values[r * static_cast<std::size_t>(rel.arity) +
                                     static_cast<std::size_t>(c)]);
      }
      out += '\n';
    }
  }
  return out;
}

std::vector<ColdFileCase> ColdFileInputs(std::uint64_t seed) {
  std::vector<ColdFileCase> cases;

  {
    // Local random graph, edges oriented low -> high so each 4-clique is
    // listed once, plus planted 5-cliques so the answer is never tiny.
    Rng rng = StreamRng(seed, kStreamClique);
    constexpr Value kVertices = 24000;
    constexpr Value kWindow = 48;
    FlatRelation e{"E", 2, {}};
    std::unordered_set<std::uint64_t> seen;
    auto add = [&](Value u, Value v) {
      if (u > v) std::swap(u, v);
      if (u == v || v >= kVertices || !seen.insert(Pack(u, v)).second) return;
      e.values.push_back(u);
      e.values.push_back(v);
    };
    for (int c = 0; c < 300; ++c) {
      const Value base = Below(&rng, kVertices - kWindow);
      Value members[5];
      for (Value& m : members) m = base + Below(&rng, kWindow);
      for (int i = 0; i < 5; ++i) {
        for (int j = i + 1; j < 5; ++j) add(members[i], members[j]);
      }
    }
    while (e.rows() < 60000) {
      const Value u = Below(&rng, kVertices);
      add(u, u + 1 + Below(&rng, kWindow));
    }
    cases.push_back(
        {{"clique4",
          "K(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D).",
          PlanKind::kGenericJoin, true, ReferencePlan::kReversedGenericJoin},
         "clique4.txt", ToText({e})});
  }

  {
    // Three hops over sparse, mismatched domains: ~85% of every atom's
    // tuples dangle, so the hybrid's semi-join pass does real work.
    Rng rng = StreamRng(seed, kStreamChain);
    constexpr Value kEnd = 10000, kMid = 200000;
    constexpr std::size_t kRows = 20000;
    FlatRelation r{"R", 2, {}}, s{"S", 2, {}}, t{"T", 2, {}};
    FillDistinctPairs(&r, kRows, [&] {
      return std::pair<Value, Value>(Below(&rng, kEnd), Below(&rng, kMid));
    });
    FillDistinctPairs(&s, kRows, [&] {
      return std::pair<Value, Value>(Below(&rng, kMid), Below(&rng, kMid));
    });
    FillDistinctPairs(&t, kRows, [&] {
      return std::pair<Value, Value>(Below(&rng, kMid), Below(&rng, kEnd));
    });
    cases.push_back({{"dangling_chain", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).",
                      PlanKind::kHybridYannakakis, true},
                     "dangling_chain.txt",
                     ToText({r, s, t})});
  }

  {
    // Projection of a two-hop chain onto its first column; the join
    // columns overlap only partly, so both atoms lose tuples.
    Rng rng = StreamRng(seed, kStreamProjection);
    constexpr std::size_t kRows = 30000;
    FlatRelation f{"F", 2, {}}, g{"G", 2, {}};
    FillDistinctPairs(&f, kRows, [&] {
      return std::pair<Value, Value>(Below(&rng, 20000), Below(&rng, 8000));
    });
    FillDistinctPairs(&g, kRows, [&] {
      return std::pair<Value, Value>(2000 + Below(&rng, 8000),
                                     Below(&rng, 50000));
    });
    cases.push_back({{"projection", "P(A) :- F(A,B), G(B,C).",
                      PlanKind::kHybridYannakakis, true},
                     "projection.txt",
                     ToText({f, g})});
  }
  return cases;
}

std::vector<FlatRelation> WarmMutateBase(std::uint64_t seed) {
  Rng rng = StreamRng(seed, kStreamMutateBase);
  FlatRelation k{"K", 1, {}}, b{"B", 2, {}}, h{"H", 1, {}}, l{"L", 2, {}},
      m{"M", 2, {}};
  {
    std::unordered_set<Value> seen;
    while (k.values.size() < kKeys) {
      const Value key = Below(&rng, kKeyDomain);
      if (seen.insert(key).second) k.values.push_back(key);
    }
  }
  for (std::size_t i = 0; i < kBRows; ++i) {
    b.values.push_back(Below(&rng, kKeyDomain));
    b.values.push_back(static_cast<Value>(i));
  }
  {
    std::unordered_set<Value> seen;
    while (h.values.size() < kHotChurnable) {
      const Value x = Below(&rng, kChainXDomain);
      if (seen.insert(x).second) h.values.push_back(x);
    }
    for (std::size_t i = 0; i < kHotDanglers; ++i) {
      h.values.push_back(kDanglerBase + static_cast<Value>(i));
    }
  }
  FillDistinctPairs(&l, kChainRows, [&] {
    return std::pair<Value, Value>(Below(&rng, kChainXDomain),
                                   Below(&rng, kChainYDomain));
  });
  FillDistinctPairs(&m, kChainRows, [&] {
    return std::pair<Value, Value>(Below(&rng, kChainYDomain),
                                   Below(&rng, 10 * kDanglerBase));
  });
  return {k, b, h, l, m};
}

std::vector<QuerySpec> WarmMutateQueries() {
  return {{"key_join", "QK(X,V) :- K(X), B(X,V).", PlanKind::kGenericJoin,
           false},
          {"hot_chain", "QC(X,Z) :- H(X), L(X,Y), M(Y,Z).",
           PlanKind::kHybridYannakakis, false}};
}

void MutationScript::LiveSet::Add(std::uint64_t key) {
  index.emplace(key, rows.size());
  rows.push_back(key);
}

std::uint64_t MutationScript::LiveSet::RemoveAt(std::size_t i) {
  const std::uint64_t key = rows[i];
  index.erase(key);
  if (i + 1 != rows.size()) {
    rows[i] = rows.back();
    index[rows[i]] = i;
  }
  rows.pop_back();
  return key;
}

MutationScript::MutationScript(std::uint64_t seed,
                               const std::vector<FlatRelation>& base)
    : rng_(StreamRng(seed, kStreamMutateScript)) {
  for (const FlatRelation& rel : base) {
    for (std::size_t r = 0; r < rel.rows(); ++r) {
      if (rel.name == "B") {
        b_.Add(Pack(rel.values[2 * r], rel.values[2 * r + 1]));
        next_b_value_ = std::max(next_b_value_, rel.values[2 * r + 1] + 1);
      } else if (rel.name == "L") {
        l_.Add(Pack(rel.values[2 * r], rel.values[2 * r + 1]));
      } else if (rel.name == "H" && rel.values[r] < kDanglerBase) {
        h_.Add(static_cast<std::uint64_t>(rel.values[r]));
      }
    }
  }
}

MutationBatch MutationScript::Next() {
  MutationBatch batch;
  batch.delta = kDeltas[rng_.NextBelow(std::size(kDeltas))];
  // Removals are drawn from the rows live before the batch and applied
  // before its inserts, so a tuple removed here and drawn again as "fresh"
  // below really is re-inserted.
  RelationDelta b{"B", {}, {}};
  for (std::size_t i = 0; i < batch.delta; ++i) {
    const std::uint64_t key = b_.RemoveAt(rng_.NextBelow(b_.rows.size()));
    b.removes.push_back({High(key), Low(key)});
  }
  for (std::size_t i = 0; i < batch.delta; ++i) {
    const Value k = Below(&rng_, kKeyDomain);
    const Value v = next_b_value_++;
    b_.Add(Pack(k, v));
    b.inserts.push_back({k, v});
  }
  RelationDelta l{"L", {}, {}};
  for (std::size_t i = 0; i < batch.delta; ++i) {
    const std::uint64_t key = l_.RemoveAt(rng_.NextBelow(l_.rows.size()));
    l.removes.push_back({High(key), Low(key)});
  }
  while (l.inserts.size() < batch.delta) {
    const Value x = Below(&rng_, kChainXDomain);
    const Value y = Below(&rng_, kChainYDomain);
    if (l_.Contains(Pack(x, y))) continue;
    l_.Add(Pack(x, y));
    l.inserts.push_back({x, y});
  }
  RelationDelta h{"H", {}, {}};
  for (std::size_t i = 0; i < kHotChurnPerOp; ++i) {
    const std::uint64_t key = h_.RemoveAt(rng_.NextBelow(h_.rows.size()));
    h.removes.push_back({static_cast<Value>(key)});
  }
  while (h.inserts.size() < kHotChurnPerOp) {
    const Value x = Below(&rng_, kChainXDomain);
    if (h_.Contains(static_cast<std::uint64_t>(x))) continue;
    h_.Add(static_cast<std::uint64_t>(x));
    h.inserts.push_back({x});
  }
  batch.changes = {std::move(b), std::move(l), std::move(h)};
  return batch;
}

std::vector<FlatRelation> WarmReadBase(std::uint64_t seed) {
  Rng rng = StreamRng(seed, kStreamReadBase);
  FlatRelation e{"E", 2, {}}, f{"F", 2, {}};
  {
    // Chung-Lu style: endpoint i drawn with weight (i+1)^-0.75, so a few
    // hubs carry most of the triangles.
    constexpr int kVertices = 20000;
    std::vector<double> cdf(kVertices);
    double total = 0;
    for (int i = 0; i < kVertices; ++i) {
      total += std::pow(i + 1.0, -0.75);
      cdf[static_cast<std::size_t>(i)] = total;
    }
    auto draw = [&] {
      const double x = Uniform(&rng) * total;
      return static_cast<Value>(
          std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    };
    FillDistinctPairs(&e, 100000, [&] {
      Value u = draw(), v = draw();
      while (v == u) v = draw();
      return std::pair<Value, Value>(u, v);
    });
  }
  FillDistinctPairs(&f, 50000, [&] {
    return std::pair<Value, Value>(Below(&rng, 20000), Below(&rng, 20000));
  });
  FlatRelation r{"R", 2, {}}, s{"S", 2, {}}, t{"T", 2, {}}, u{"U", 2, {}};
  constexpr std::size_t kChainRows = 8000;
  constexpr Value kEnd = 200, kMid = 4000;
  FillDistinctPairs(&r, kChainRows, [&] {
    return std::pair<Value, Value>(Below(&rng, kEnd), Below(&rng, kMid));
  });
  FillDistinctPairs(&s, kChainRows, [&] {
    return std::pair<Value, Value>(Below(&rng, kMid), Below(&rng, kMid));
  });
  FillDistinctPairs(&t, kChainRows, [&] {
    return std::pair<Value, Value>(Below(&rng, kMid), Below(&rng, kMid));
  });
  FillDistinctPairs(&u, kChainRows, [&] {
    return std::pair<Value, Value>(Below(&rng, kMid), Below(&rng, kEnd));
  });
  // Bench E13's triangle300 instance: offsets 1..3 both ways on a cycle.
  FlatRelation c{"C", 2, {}};
  constexpr Value kCycle = 300;
  for (Value i = 0; i < kCycle; ++i) {
    for (Value d = 1; d <= 3; ++d) {
      c.values.insert(c.values.end(), {i, (i + d) % kCycle});
      c.values.insert(c.values.end(), {(i + d) % kCycle, i});
    }
  }
  return {e, f, r, s, t, u, c};
}

std::vector<QuerySpec> WarmReadQueries() {
  const QuerySpec triangle{"triangle", "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
                           PlanKind::kGenericJoin, false,
                           ReferencePlan::kReversedGenericJoin};
  const QuerySpec two_hop{"two_hop", "P(X,Y,Z) :- F(X,Y), F(Y,Z).",
                          PlanKind::kGenericJoin, false};
  const QuerySpec chain{"projection_chain",
                        "Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
                        PlanKind::kHybridYannakakis, false};
  const QuerySpec triangle300{"triangle300",
                              "T3(X,Y,Z) :- C(X,Y), C(Y,Z), C(Z,X).",
                              PlanKind::kGenericJoin, false,
                              ReferencePlan::kReversedGenericJoin};
  return {triangle, two_hop, chain, triangle300, triangle};
}

bool DumpInputs(std::uint64_t seed, const std::string& dir) {
  constexpr std::size_t kScriptOps = 200;
  auto write = [&dir](const std::string& name, const std::string& text) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
  };
  bool ok = true;
  std::string queries;
  for (const ColdFileCase& c : ColdFileInputs(seed)) {
    ok = write("cold_" + c.file_name, c.text) && ok;
    queries += "cold-file " + c.query.name + " " + c.query.text + "\n";
  }
  const std::vector<FlatRelation> mutate_base = WarmMutateBase(seed);
  ok = write("warm_mutate_base.txt", ToText(mutate_base)) && ok;
  MutationScript script(seed, mutate_base);
  std::string ops;
  for (std::size_t i = 0; i < kScriptOps; ++i) {
    const MutationBatch batch = script.Next();
    ops += "op " + std::to_string(i) + " delta " +
           std::to_string(batch.delta) + "\n";
    for (const RelationDelta& change : batch.changes) {
      auto list = [&ops, &change](char sign, const std::vector<Tuple>& rows) {
        for (const Tuple& t : rows) {
          ops += change.relation + " " + sign;
          for (Value v : t) {
            ops += ' ';
            AppendValue(&ops, v);
          }
          ops += '\n';
        }
      };
      list('-', change.removes);
      list('+', change.inserts);
    }
  }
  ok = write("warm_mutate_script.txt", ops) && ok;
  for (const QuerySpec& q : WarmMutateQueries()) {
    queries += "warm-mutate " + q.name + " " + q.text + "\n";
  }
  ok = write("warm_read_base.txt", ToText(WarmReadBase(seed))) && ok;
  for (const QuerySpec& q : WarmReadQueries()) {
    queries += "warm-read " + q.name + " " + q.text + "\n";
  }
  return write("queries.txt", queries) && ok;
}

}  // namespace perfbench
