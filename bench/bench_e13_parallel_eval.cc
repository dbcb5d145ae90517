// E13 -- parallel generic join: partitioned depth-0 enumeration over a
// worker pool sharing one thread-safe EvalContext.
//
// E11/E12 removed the per-call planning and indexing costs; what remains
// warm is the enumeration itself. The parallel executor splits the depth-0
// leapfrog intersection -- the matches of the first variable in the global
// order -- across a ThreadPool's workers plus the calling thread, each
// descending its claimed subtrees with private scratch and a private
// answer sink, merged (with exact per-depth counter sums) at the end.
// Every search emits answers as codes into per-worker buffers that merge
// once, in depth-0 order, the merge dropping a projection's repeats; the
// twohop1e5 timers isolate that emission at ~10^5 answers (a full CQ, so
// the merge adopts the input's dictionary), and the proj2hop timers the
// re-interning merge when ~2/3 of the bindings are repeats.
// The skewtri1e5 timers are the triangle on a skewed 10^5-edge graph, serial
// and over the pool, where the intersections' seeks, not emission, are the
// op: the hubs' child sets are heavy, so the deepest depth drives the
// shorter child set and probes the other's rank bitmap. A table row pins
// that instance's heavy sets, their bitmap bytes, seeks and bindings.
//
// The tables are deterministic: results, per-depth binding counts and the
// AGM-envelope accounting are *identical* to the serial run's at every
// fan-out, which is the whole point -- parallelism changes wall time, never
// answers. Wall times live in the timed sections (informational in
// bench_diff): the scaling they show depends on the machine's core count,
// and on a single-core host the curve is honestly flat -- the fan-out adds
// a small re-seek overhead per depth-0 match and gains nothing.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/trie_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cqbounds {
namespace {

Query TriangleQuery() {
  return ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).").ValueOrDie();
}

/// A symmetric circulant graph: every vertex adjacent to its neighbours at
/// offsets 1, 2 and 3 in both directions, so triangles ({i, i+1, i+2}) and
/// 4-cliques ({i, i+1, i+2, i+3}) genuinely exist -- n depth-0 matches,
/// deterministic output counts.
Database ChordedCycle(int n) {
  Database db;
  Relation* e = db.AddRelation("E", 2);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3; ++d) {
      e->Insert({i, (i + d) % n});
      e->Insert({(i + d) % n, i});
    }
  }
  return db;
}

/// 4-clique listing on the same graph: deeper search, more work per
/// depth-0 match.
Query FourCliqueQuery() {
  return ParseQuery(
             "K(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D).")
      .ValueOrDie();
}

// Timed-section fixtures: one context (warm tries) and one pool per thread
// count, built before the timers run so they measure enumeration, not
// setup or thread spawning.
constexpr int kTimedN = 300;
Query& TriQ() {
  static Query q = TriangleQuery();
  return q;
}
Database& TriDb() {
  static Database db = ChordedCycle(kTimedN);
  return db;
}
EvalContext& TriCtx() {
  static EvalContext ctx(TriDb());
  return ctx;
}
ThreadPool& PoolOf(int workers) {
  static ThreadPool pool1(0), pool2(1), pool4(3), pool8(7);
  switch (workers) {
    case 1: return pool2;
    case 3: return pool4;
    case 7: return pool8;
    default: return pool1;
  }
}

// Two-hop paths on the chorded cycle: 36 answers per vertex, so ~10^5
// answers whose emission -- not the search -- dominates the op.
constexpr int kTwoHopN = 2800;
Query& TwoHopQ() {
  static Query q = ParseQuery("P(X,Y,Z) :- E(X,Y), E(Y,Z).").ValueOrDie();
  return q;
}
Database& TwoHopDb() {
  static Database db = ChordedCycle(kTwoHopN);
  return db;
}
EvalContext& TwoHopCtx() {
  static EvalContext ctx(TwoHopDb());
  return ctx;
}

// The two-hop projection on the same graph: 100800 full bindings, of
// which 13 distinct endpoint pairs per vertex (36400) survive the merge.
constexpr std::size_t kProjAnswers = 13u * kTwoHopN;
Query& ProjQ() {
  static Query q = ParseQuery("P(X,Z) :- E(X,Y), E(Y,Z).").ValueOrDie();
  return q;
}

// The triangle on a skewed graph: Chung-Lu style, endpoint i of 20000
// drawn with weight (i+1)^-0.75, 10^5 distinct directed edges from a fixed
// seed, so a few hubs carry most triangles. The op is 1.7*10^6 seeks (2.8
// *10^6 under the leapfrog alone) for 2.3*10^5 bindings and 1.3*10^5
// answers, so these timers isolate the intersection kernel.
constexpr int kSkewVertices = 20000;
constexpr std::size_t kSkewEdges = 100000;
Database SkewedGraph(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cdf(kSkewVertices);
  double total = 0;
  for (int i = 0; i < kSkewVertices; ++i) {
    total += std::pow(i + 1.0, -0.75);
    cdf[static_cast<std::size_t>(i)] = total;
  }
  auto draw = [&] {
    const double x = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * total;
    return static_cast<Value>(std::upper_bound(cdf.begin(), cdf.end(), x) -
                              cdf.begin());
  };
  Database db;
  Relation* e = db.AddRelation("E", 2);
  while (e->size() < kSkewEdges) {
    const Value u = draw();
    Value v = draw();
    while (v == u) v = draw();
    e->Insert({u, v});
  }
  return db;
}
Database& SkewDb() {
  static Database db = SkewedGraph(7919);
  return db;
}
EvalContext& SkewCtx() {
  static EvalContext ctx(SkewDb());
  return ctx;
}

void PrepareTimerFixtures() {
  EvaluateQuery(TriQ(), SkewDb(), PlanKind::kGenericJoin, &SkewCtx())
      .ValueOrDie();
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx())
      .ValueOrDie();
  EvaluateQuery(TwoHopQ(), TwoHopDb(), PlanKind::kGenericJoin, &TwoHopCtx())
      .ValueOrDie();
  EvaluateQuery(ProjQ(), TwoHopDb(), PlanKind::kGenericJoin, &TwoHopCtx())
      .ValueOrDie();
}

void PrintTables() {
  std::cout << "E13: parallel generic join -- partitioned depth-0 "
               "enumeration over a worker pool\n\n";

  std::cout << "Fan-out vs the serial oracle (triangles and 4-cliques on a "
               "chorded cycle,\nwarm shared context; every row must agree "
               "with row one on everything but\nfan-out and seeks):\n";
  bench::Table table({"instance", "pool workers", "fan-out", "output",
                      "depth0 matches", "max intermediate",
                      "total intermediate", "seeks"});
  struct Case {
    const char* label;
    Query query;
    int n;
  };
  const Case cases[] = {
      {"triangle/200", TriangleQuery(), 200},
      {"4clique/120", FourCliqueQuery(), 120},
  };
  for (const Case& c : cases) {
    Database db = ChordedCycle(c.n);
    EvalContext ctx(db);
    std::size_t serial_output = 0;
    std::vector<std::size_t> serial_depths;
    for (int workers : {-1, 0, 1, 3, 7}) {
      EvalStats stats;
      if (workers < 0) {
        EvaluateQuery(c.query, db, PlanKind::kGenericJoin, &ctx, nullptr,
                      &stats).ValueOrDie();
        serial_output = stats.output_size;
        serial_depths = stats.intermediate_sizes;
      } else {
        EvaluateQuery(c.query, db, PlanKind::kGenericJoin, &ctx,
                      &PoolOf(workers), &stats)
            .ValueOrDie();
        // The deterministic core of the experiment: identical answers and
        // identical per-depth AGM accounting at every fan-out.
        CQB_CHECK(stats.output_size == serial_output);
        CQB_CHECK(stats.intermediate_sizes == serial_depths);
      }
      table.AddRow({c.label,
                    workers < 0 ? "serial" : bench::Num(workers),
                    bench::Num(stats.parallel_workers),
                    bench::Num(stats.output_size),
                    bench::Num(stats.intermediate_sizes.empty()
                                   ? 0
                                   : stats.intermediate_sizes[0]),
                    bench::Num(stats.max_intermediate),
                    bench::Num(stats.total_intermediate),
                    bench::Num(stats.intersection_seeks)});
    }
  }
  table.Print();

  std::cout << "\nShape check: output and every intermediate column are "
               "constant down each\ninstance -- the partition changes the "
               "schedule, never the answer or the\nAGM envelope. Fan-out is "
               "min(workers + 1, depth0 matches) (0 = serial\npath; the "
               "pool's calling thread always participates). Seeks grow "
               "slightly\nwith fan-out: each claimed match re-locates its "
               "root position per atom.\nWall-time scaling lives in the "
               "timed sections below and depends on the\nhost's cores: on a "
               "single-core machine the curve is honestly flat.\n\n";

  // The skewed instance's heavy child sets: both tries the triangle reads
  // (E by (X,Y) and by (Y,X)). Bitmap KB counts the words, the per-word
  // ranks and the per-node slot index of every level that has a heavy node.
  std::size_t heavy = 0;
  std::size_t bytes = 0;
  for (const std::vector<std::vector<int>>& layout :
       {std::vector<std::vector<int>>{{0}, {1}},
        std::vector<std::vector<int>>{{1}, {0}}}) {
    const TrieIndex trie(*SkewDb().Find("E"), layout);
    const std::size_t nodes = trie.RootRange().size();
    std::size_t here = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
      const TrieIndex::RankBitmap* bits = trie.ChildRange(0, i).bits;
      if (bits == nullptr) continue;
      ++here;
      bytes += bits->words.size() * sizeof(std::uint64_t) +
               bits->before.size() * sizeof(std::uint32_t);
    }
    if (here > 0) bytes += nodes * sizeof(std::uint32_t);
    heavy += here;
  }
  EvalStats skew;
  EvaluateQuery(TriQ(), SkewDb(), PlanKind::kGenericJoin, nullptr, nullptr,
                &skew)
      .ValueOrDie();
  std::string depths;
  for (std::size_t d : skew.intermediate_sizes) {
    depths += (depths.empty() ? "" : "/") + bench::Num(d);
  }
  std::cout << "The skewed triangle (the skewtri1e5 timers' instance, "
               "serial):\n";
  bench::Table skewed({"instance", "heavy sets", "bitmap KB", "seeks",
                       "bindings per depth", "output"});
  skewed.AddRow({"skewtri1e5", bench::Num(heavy),
                 bench::Num((bytes + 512) / 1024),
                 bench::Num(skew.intersection_seeks), depths,
                 bench::Num(skew.output_size)});
  skewed.Print();
  std::cout << "\n";

  PrepareTimerFixtures();
}

CQB_BENCH_TIMED("triangle300/threads1", [] {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx())
      .ValueOrDie();
})

CQB_BENCH_TIMED("triangle300/threads2", [] {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(),
                &PoolOf(1), nullptr)
      .ValueOrDie();
})

CQB_BENCH_TIMED("triangle300/threads4", [] {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(),
                &PoolOf(3), nullptr)
      .ValueOrDie();
})

CQB_BENCH_TIMED("triangle300/threads8", [] {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(),
                &PoolOf(7), nullptr)
      .ValueOrDie();
})

// Emission at ~10^5 answers, serial and over the pool: the workers' code
// buffers merge once, in depth-0 order. Seconds per rep / 100800 is the
// cost per answer.
CQB_BENCH_TIMED("twohop1e5/threads1", [] {
  CQB_CHECK(EvaluateQuery(TwoHopQ(), TwoHopDb(), PlanKind::kGenericJoin,
                          &TwoHopCtx())
                .ValueOrDie()
                .size() == 36u * kTwoHopN);
})

CQB_BENCH_TIMED("twohop1e5/threads4", [] {
  CQB_CHECK(EvaluateQuery(TwoHopQ(), TwoHopDb(), PlanKind::kGenericJoin,
                          &TwoHopCtx(), &PoolOf(3), nullptr)
                .ValueOrDie()
                .size() == 36u * kTwoHopN);
})

// The projection path: repeats reach the merge and are probed away there.
CQB_BENCH_TIMED("proj2hop/threads1", [] {
  CQB_CHECK(EvaluateQuery(ProjQ(), TwoHopDb(), PlanKind::kGenericJoin,
                          &TwoHopCtx())
                .ValueOrDie()
                .size() == kProjAnswers);
})

CQB_BENCH_TIMED("proj2hop/threads4", [] {
  CQB_CHECK(EvaluateQuery(ProjQ(), TwoHopDb(), PlanKind::kGenericJoin,
                          &TwoHopCtx(), &PoolOf(3), nullptr)
                .ValueOrDie()
                .size() == kProjAnswers);
})

CQB_BENCH_TIMED("skewtri1e5/threads1", [] {
  EvaluateQuery(TriQ(), SkewDb(), PlanKind::kGenericJoin, &SkewCtx())
      .ValueOrDie();
})

CQB_BENCH_TIMED("skewtri1e5/threads4", [] {
  EvaluateQuery(TriQ(), SkewDb(), PlanKind::kGenericJoin, &SkewCtx(),
                &PoolOf(3), nullptr)
      .ValueOrDie();
})

void BM_ParallelTriangles(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(),
                           workers > 0 ? &PoolOf(workers) : nullptr, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParallelTriangles)->Arg(0)->Arg(1)->Arg(3)->Arg(7);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
