// E15 -- columnar storage at scale: dictionary-encoded ingestion, radix
// trie builds, and a warm 10^6-tuple join.
//
// The storage rewrite (relation/column_store.h) holds relations as
// contiguous uint32_t code columns behind a shared per-store dictionary,
// with an open-addressing row index instead of a shadow tuple set. This
// experiment exercises the three paths that rewrite exists for, at 10^6
// tuples on one deterministic instance (the successor cycle i -> i+1):
//
//   1. bulk ingestion: InsertFlat takes row-major values with one dedup
//      pass and one journal bump -- the tables feed every edge twice and
//      check exactly half the candidates land;
//   2. trie construction: the LSD radix sort reads packed keys straight
//      off the columns. The headline invariant is asserted in-bench where
//      it is measured: across the 10^6-row scratch build and a patch
//      build, TrieBuildStats::tuple_materializations does not move -- no
//      per-tuple Tuple object is ever heap-allocated on the radix or splice
//      paths;
//   3. evaluation: the two-atom chain join over the cycle produces exactly
//      10^6 bindings through a warm context (cache hits, zero rebuilds).
//
// Wall times live in the timed sections: per-tuple insert loop vs one
// InsertFlat call at 10^6, the 10^6-row radix build, the warm join, the
// text reader and writer at 10^5 tuples (seconds per rep / 10^5 is their
// per-row cost) with the reader's pool and store door timed apart, a
// three-relation read at 6*10^4 tuples, and answer emission at 10^5 rows:
// per-row Insert vs the coded-rows door.

#include <cstddef>
#include <iostream>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/text_io.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

constexpr std::size_t kScale = 1000000;

/// Row-major successor-cycle edges (i, (i+1) % n), each edge emitted
/// `copies` times -- the duplicate factor the single dedup pass must absorb.
std::vector<Value> CycleFlat(std::size_t n, int copies) {
  std::vector<Value> flat;
  flat.reserve(n * 2 * static_cast<std::size_t>(copies));
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < copies; ++c) {
      flat.push_back(static_cast<Value>(i));
      flat.push_back(static_cast<Value>((i + 1) % n));
    }
  }
  return flat;
}

Query ChainQuery() {
  return ParseQuery("Q(X,Z) :- E(X,Y), E(Y,Z).").ValueOrDie();
}

// Timed-section fixtures (built once, before the timers run).
std::vector<Value>& FlatEdges() {
  static std::vector<Value> flat = CycleFlat(kScale, 1);
  return flat;
}
Database& ChainDb() {
  static Database db = [] {
    Database d;
    d.AddRelation("E", 2)->InsertFlat(FlatEdges(), kScale);
    return d;
  }();
  return db;
}
Query& ChainQ() {
  static Query q = ChainQuery();
  return q;
}
EvalContext& ChainCtx() {
  static EvalContext ctx(ChainDb());
  return ctx;
}

constexpr std::size_t kTextRows = 100000;

/// The successor cycle over kTextRows vertices as database text: every
/// spelling occurs twice, so the reader interns half its tokens as hits.
const std::string& CycleText() {
  static const std::string text = [] {
    std::string t = "relation E 2\n";
    for (std::size_t i = 0; i < kTextRows; ++i) {
      t += "E " + std::to_string(i) + " " +
           std::to_string((i + 1) % kTextRows) + "\n";
    }
    return t;
  }();
  return text;
}
const Database& CycleTextDb() {
  static const Database db = [] {
    Database d;
    CQB_CHECK(ReadDatabaseTextFromString(CycleText(), &d).ok());
    return d;
  }();
  return db;
}

/// The cycle text's value tokens in file order: what the reader hands the
/// pool.
const std::vector<std::string_view>& CycleTokens() {
  static const std::vector<std::string_view> tokens = [] {
    std::vector<std::string_view> t;
    t.reserve(2 * kTextRows);
    const std::string_view text = CycleText();
    std::size_t line = text.find('\n') + 1;  // past the declaration
    while (line < text.size()) {
      const std::size_t end = text.find('\n', line);
      const std::size_t a = line + 2;  // past "E "
      const std::size_t b = text.find(' ', a) + 1;
      t.push_back(text.substr(a, b - 1 - a));
      t.push_back(text.substr(b, end - b));
      line = end + 1;
    }
    return t;
  }();
  return tokens;
}

/// The cycle text's pool ids, row-major: what the reader hands the store.
const std::vector<std::uint32_t>& CycleIds() {
  static const std::vector<std::uint32_t> ids = [] {
    const ColumnStore& store = CycleTextDb().Find("E")->store();
    std::vector<std::uint32_t> flat;
    flat.reserve(2 * store.size());
    for (std::size_t row = 0; row < store.size(); ++row) {
      for (int col = 0; col < 2; ++col) {
        flat.push_back(static_cast<std::uint32_t>(store.ValueAt(row, col)));
      }
    }
    return flat;
  }();
  return ids;
}

/// Three relations of 2*10^4 edges each, R over [0,10^4) x [0,2*10^5),
/// S over the middle domain, T back to the end domain, written relation
/// after relation: most spellings are seen once, and the relations share
/// the pool, so pool ids are not codes. The shape of a three-hop chain
/// whose tuples mostly dangle.
constexpr std::size_t kChainRows = 20000;
const std::string& ChainText() {
  static const std::string text = [] {
    constexpr std::uint64_t kEnd = 10000, kMid = 200000;
    Rng rng(15);
    std::string t = "relation R 2\nrelation S 2\nrelation T 2\n";
    const struct {
      const char* name;
      std::uint64_t from, to;
    } parts[] = {{"R", kEnd, kMid}, {"S", kMid, kMid}, {"T", kMid, kEnd}};
    for (const auto& part : parts) {
      for (std::size_t i = 0; i < kChainRows; ++i) {
        t += std::string(part.name) + " " +
             std::to_string(rng.NextBelow(part.from)) + " " +
             std::to_string(rng.NextBelow(part.to)) + "\n";
      }
    }
    return t;
  }();
  return text;
}

/// The 100800 answers of the full two-hop query over a 2800-vertex cycle
/// with chords at offsets +-1..3, row-major (x, y, z): the emission
/// fixture. Rows are distinct; values repeat, as a search's answers do.
constexpr std::size_t kEmitRows = 100800;
const std::vector<Value>& TwoHopAnswers() {
  static const std::vector<Value> flat = [] {
    constexpr Value kN = 2800;
    const Value offsets[] = {1, 2, 3, kN - 1, kN - 2, kN - 3};
    std::vector<Value> f;
    f.reserve(kEmitRows * 3);
    for (Value x = 0; x < kN; ++x) {
      for (Value d1 : offsets) {
        for (Value d2 : offsets) {
          f.push_back(x);
          f.push_back((x + d1) % kN);
          f.push_back((x + d1 + d2) % kN);
        }
      }
    }
    return f;
  }();
  return flat;
}

void PrintTables() {
  std::cout << "E15: columnar storage at scale -- bulk ingestion, radix trie "
               "builds, warm join\n\n";

  // --- Bulk ingestion ------------------------------------------------------
  std::cout << "InsertFlat bulk ingestion of the successor cycle, every edge "
               "fed twice\n(one dedup pass, one journal bump of exactly the "
               "rows added):\n";
  bench::Table ingest({"rows fed", "rows added", "generation", "dict values"});
  for (std::size_t n : {kScale / 100, kScale / 10, kScale}) {
    Relation r("E", 2);
    const std::vector<Value> flat = CycleFlat(n, 2);
    const std::size_t added = r.InsertFlat(flat, 2 * n);
    CQB_CHECK(added == n);                   // half the candidates were dupes
    CQB_CHECK(r.generation() == n);          // one bump of `added`
    CQB_CHECK(r.store().dict().size() == n);  // values 0..n-1
    ingest.AddRow({bench::Num(2 * n), bench::Num(added),
                   bench::Num(static_cast<std::size_t>(r.generation())),
                   bench::Num(r.store().dict().size())});
  }
  ingest.Print();

  // --- Radix trie construction --------------------------------------------
  std::cout << "\nTrie builds over the 10^6-row store (radix path from "
               "scratch, delta splice\nfor a 1-row patch). 'materialized' is "
               "the per-tuple Tuple-allocation\ntripwire -- zero by design "
               "on both columnar paths:\n";
  bench::Table trie_table({"build", "keys", "radix builds", "merge builds",
                           "materialized"});
  {
    Relation* e = ChainDb().FindMutable("E");
    const TrieBuildStats t0 = GetTrieBuildStats();
    TrieIndex scratch(*e, {{0}, {1}});
    const TrieBuildStats t1 = GetTrieBuildStats();
    CQB_CHECK(scratch.num_tuples() == kScale);
    CQB_CHECK(t1.radix_builds == t0.radix_builds + 1);
    CQB_CHECK(t1.merge_builds == t0.merge_builds);
    // The acceptance invariant: a 10^6-tuple radix build heap-allocates no
    // per-tuple Tuple objects.
    CQB_CHECK(t1.tuple_materializations == t0.tuple_materializations);
    trie_table.AddRow({"scratch 10^6", bench::Num(scratch.num_tuples()),
                       bench::Num(static_cast<std::size_t>(
                           t1.radix_builds - t0.radix_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t1.merge_builds - t0.merge_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t1.tuple_materializations -
                           t0.tuple_materializations))});

    // One appended row (an isolated edge: it extends no cycle path, so the
    // join table below keeps its exact output count), spliced into a copy
    // of the scratch trie with nothing removed -- still zero
    // materializations.
    CQB_CHECK(e->Insert({2000000, 2000001}));
    Relation::DeltaSet window;
    CQB_CHECK(e->DeltasSince(kScale, &window));
    CQB_CHECK(window.removed_rows.empty());  // an append-only window
    TrieIndex patched(scratch);
    patched.Splice(window.Appended(e->store()), RowView(), {{0}, {1}});
    const TrieBuildStats t2 = GetTrieBuildStats();
    CQB_CHECK(patched.num_tuples() == kScale + 1);
    CQB_CHECK(t2.merge_builds == t1.merge_builds + 1);
    CQB_CHECK(t2.radix_builds == t1.radix_builds);
    CQB_CHECK(t2.tuple_materializations == t1.tuple_materializations);
    trie_table.AddRow({"patch +1", bench::Num(patched.num_tuples()),
                       bench::Num(static_cast<std::size_t>(
                           t2.radix_builds - t1.radix_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t2.merge_builds - t1.merge_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t2.tuple_materializations -
                           t1.tuple_materializations))});
  }
  trie_table.Print();

  // --- Warm join -----------------------------------------------------------
  std::cout << "\nChain join Q(X,Z) :- E(X,Y), E(Y,Z) over the 10^6-edge "
               "cycle (+1 isolated\nedge): cold pass builds both layouts, "
               "warm pass serves them from cache:\n";
  bench::Table join_table({"pass", "indexed", "rebuilds", "cache hits",
                           "output"});
  {
    EvalStats stats;
    EvaluateQuery(ChainQ(), ChainDb(), PlanKind::kGenericJoin, &ChainCtx(),
                  nullptr, &stats).ValueOrDie();
    CQB_CHECK(stats.output_size == kScale);  // (i, i+2) per cycle vertex
    CQB_CHECK(stats.trie_rebuilds == 2);
    join_table.AddRow({"cold", bench::Num(stats.indexed_tuples),
                       bench::Num(stats.trie_rebuilds),
                       bench::Num(stats.trie_cache_hits),
                       bench::Num(stats.output_size)});

    EvaluateQuery(ChainQ(), ChainDb(), PlanKind::kGenericJoin, &ChainCtx(),
                  nullptr, &stats).ValueOrDie();
    CQB_CHECK(stats.output_size == kScale);
    CQB_CHECK(stats.trie_rebuilds == 0 && stats.trie_cache_hits == 2);
    join_table.AddRow({"warm", bench::Num(stats.indexed_tuples),
                       bench::Num(stats.trie_rebuilds),
                       bench::Num(stats.trie_cache_hits),
                       bench::Num(stats.output_size)});
  }
  join_table.Print();

  // Build the text fixtures now, so the text timers time only the reader,
  // the pool, the store door and the writer.
  CycleTextDb();
  CycleTokens();
  CycleIds();
  ChainText();

  std::cout << "\nShape check: ingestion adds exactly half its fed rows at "
               "every scale\n(the dup pass), both trie builds keep the "
               "materialization tripwire at\nzero, and the warm join serves "
               "both layouts from cache with the exact\n10^6-binding "
               "output.\n\n";
}

// Per-tuple insert loop vs one flat batch, both ingesting the same 10^6
// fresh edges into an empty relation.
CQB_BENCH_TIMED("ingest1M/insert-loop", [] {
  Relation r("E", 2);
  const std::vector<Value>& flat = FlatEdges();
  for (std::size_t i = 0; i < kScale; ++i) {
    r.Insert({flat[2 * i], flat[2 * i + 1]});
  }
  CQB_CHECK(r.size() == kScale);
})

CQB_BENCH_TIMED("ingest1M/insert-flat", [] {
  Relation r("E", 2);
  CQB_CHECK(r.InsertFlat(FlatEdges(), kScale) == kScale);
})

// From-scratch radix build over the warm 10^6-row store.
CQB_BENCH_TIMED("trie1M/radix-build", [] {
  TrieIndex trie(*ChainDb().Find("E"), {{0}, {1}});
  CQB_CHECK(trie.num_tuples() >= kScale);
})

// Warm join: both layouts served from the context cache, the leapfrog
// enumeration and output materialization dominate.
CQB_BENCH_TIMED("chain1M/warm-join", [] {
  EvaluateQuery(ChainQ(), ChainDb(), PlanKind::kGenericJoin, &ChainCtx())
      .ValueOrDie();
})

// Text ingestion (tokenize, intern through the pool, one InsertDense) and
// rendering of the same 10^5-tuple file; the render must reproduce it.
CQB_BENCH_TIMED("text1e5/read", [] {
  Database db;
  CQB_CHECK(ReadDatabaseTextFromString(CycleText(), &db).ok());
  CQB_CHECK(db.Find("E")->size() == kTextRows);
})

CQB_BENCH_TIMED("text1e5/write", [] {
  CQB_CHECK(WriteDatabaseTextToString(CycleTextDb()).ValueOrDie() ==
            CycleText());
})

// The read's two layers apart: the pool alone, interning the file's 2*10^5
// value tokens (half of them hits), and the store door alone, landing the
// pool ids those tokens got.
CQB_BENCH_TIMED("text1e5/intern", [] {
  ValuePool pool;
  for (std::string_view token : CycleTokens()) pool.Intern(token);
  CQB_CHECK(pool.size() == kTextRows);
})

CQB_BENCH_TIMED("text1e5/ingest", [] {
  Relation r("E", 2);
  CQB_CHECK(r.InsertDense(CycleIds(), kTextRows, kTextRows) == kTextRows);
})

// A multi-relation read whose pool ids are not codes: three relations of
// 2*10^4 rows over high-distinct domains.
CQB_BENCH_TIMED("chain6e4/read", [] {
  Database db;
  CQB_CHECK(ReadDatabaseTextFromString(ChainText(), &db).ok());
  CQB_CHECK(db.Find("R")->size() + db.Find("S")->size() +
                db.Find("T")->size() <=
            3 * kChainRows);
})

// Emitting 10^5 answers (arity 3), starting from their values either way:
// a Tuple and a deduplicating Insert per row, against coding each row into
// a CodedRows buffer (what a search worker does) and one InsertCoded.
// Seconds per rep / 100800 is the cost per answer row.
CQB_BENCH_TIMED("emit1e5/insert-loop", [] {
  Relation r("P", 3);
  const std::vector<Value>& flat = TwoHopAnswers();
  for (std::size_t i = 0; i < kEmitRows; ++i) {
    r.Insert({flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]});
  }
  CQB_CHECK(r.size() == kEmitRows);
})

CQB_BENCH_TIMED("emit1e5/bulk-append", [] {
  std::vector<CodedRows> buffer(1);
  for (Value v : TwoHopAnswers()) {
    buffer[0].codes.push_back(buffer[0].dict.Intern(v));
  }
  buffer[0].num_rows = kEmitRows;
  Relation r("P", 3);
  CQB_CHECK(r.InsertCoded(buffer, {{0, 0, kEmitRows}}) == kEmitRows);
})

void BM_ColumnarIngest(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Value> flat = CycleFlat(n, 1);
  for (auto _ : state) {
    Relation r("E", 2);
    benchmark::DoNotOptimize(r.InsertFlat(flat, n));
  }
}
BENCHMARK(BM_ColumnarIngest)->Arg(10000)->Arg(100000);

void BM_RadixTrieBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation r("E", 2);
  r.InsertFlat(CycleFlat(n, 1), n);
  for (auto _ : state) {
    TrieIndex trie(r, {{0}, {1}});
    benchmark::DoNotOptimize(trie.num_tuples());
  }
}
BENCHMARK(BM_RadixTrieBuild)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
