// E16 -- tombstone deletion deltas: remove-then-re-evaluate on a warm
// context vs re-reducing and rebuilding from scratch.
//
// E14 measured the append side of incremental evaluation; this experiment
// measures removals. A warm 10^4-tuple instance loses k tuples (k = 1,
// 10, 100) and re-evaluates. The tombstone machinery must serve every
// refresh in O(delta): the store tombstones instead of compacting, the
// journal names the removed rows, the trie tier *unpatches* the cached
// tries (subtracting the removed keys' support counts), and the hybrid's
// counting delta pass kills newly unsupported tuples -- and revives them
// when support returns -- without re-reducing the database. The headline
// invariants are asserted in-bench: after a single-tuple Remove on the
// warm 10^4-tuple instance, trie_rebuilds == 0 (every refresh is an
// unpatch) and the semi-join pass, when it runs, runs as a delta pass
// (zero full re-reduces). Every hybrid step is cross-checked against a
// from-scratch context: identical output and a dangling census equal to
// the cold run's drop count.
//
// The hybrid table ends with a window that crosses the store's
// quarter-dead compaction threshold: the journal carries it as an epoch,
// so it too runs as a delta pass with zero trie rebuilds.
//
// The tables are deterministic; wall times live in the timed sections,
// pairing each warm removal refresh with its from-scratch contrast. The
// trie2e5 sections time trie maintenance alone: one GetTrie after a mixed
// window, its mutation applied untimed. Each asserts the path it took: an
// unheld cached trie is spliced in place (TrieBuildStats::shared_splices
// unchanged), while trie2e5/delta1-get-trie-held keeps a reader on the
// trie across the window, so its refresh copies and then splices (exactly
// one shared splice). trie2e6/delta1-get-trie repeats the 1-row window on
// a 10x base, where what is left of a splice's cost -- shifting each
// level's suffix past its first edit -- shows. dangling1e5/compact+delta-
// pass times a delta pass whose window compacted an atom.

#include <deque>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"

namespace cqbounds {
namespace {

Query TriangleQuery() {
  return ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).").ValueOrDie();
}

Query ChainQuery() {
  return ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).").ValueOrDie();
}

/// The E13/E14 instance: a symmetric circulant graph, every vertex
/// adjacent to its neighbours at offsets 1, 2, 3 in both directions --
/// 6n edge tuples. n = 1667 gives the 10^4-tuple warm instance.
constexpr int kCycleN = 1667;

void FillChordedCycle(Relation* e, int n) {
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3; ++d) {
      e->Insert({i, (i + d) % n});
      e->Insert({(i + d) % n, i});
    }
  }
}

Database TriangleDb() {
  Database db;
  FillChordedCycle(db.AddRelation("E", 2), kCycleN);
  return db;
}

Database ChainDb() {
  Database db;
  FillChordedCycle(db.AddRelation("R", 2), kCycleN);
  FillChordedCycle(db.AddRelation("S", 2), kCycleN);
  return db;
}

/// Fresh vertex ids far outside the cycle, never repeated.
Value FreshVertex() {
  static Value next = 2000000;
  return next++;
}

// Timed-section fixtures (built before the timers run, E13-style).
Query& TriQ() {
  static Query q = TriangleQuery();
  return q;
}
Database& TriDb() {
  static Database db = TriangleDb();
  return db;
}
EvalContext& TriCtx() {
  static EvalContext ctx(TriDb());
  return ctx;
}
Query& ChainQ() {
  static Query q = ChainQuery();
  return q;
}
Database& ChDb() {
  static Database db = ChainDb();
  return db;
}
EvalContext& ChCtx() {
  static EvalContext ctx(ChDb());
  return ctx;
}

/// The isolated delta-pass timers' instance: a 10^5-row dangling chain
/// R(i,i) for every i < 10^5 and S(i,i) for even i, so half of R dangles.
/// Each timer owns one, so one timer's growth never reaches another's.
/// `boolean_q` is the chain query with an empty head: it shares the plan
/// entry (and so the semi-join state) of the full query, while its
/// enumeration is a single existence check -- what it times is the pass.
constexpr int kDanglingRows = 100000;

/// Adds the chain's R and S to `db`.
void FillDanglingChain(Database* db) {
  std::vector<Value> r_rows;
  std::vector<Value> s_rows;
  for (int i = 0; i < kDanglingRows; ++i) {
    r_rows.insert(r_rows.end(), {i, i});
    if (i % 2 == 0) s_rows.insert(s_rows.end(), {i, i});
  }
  db->AddRelation("R", 2)->InsertFlat(r_rows, kDanglingRows);
  db->AddRelation("S", 2)->InsertFlat(s_rows, kDanglingRows / 2);
}

struct DanglingChain {
  Query boolean_q;
  Database db;
  std::unique_ptr<EvalContext> ctx;
  /// Keys of the R rows the last rep appended dangling, awaiting support.
  std::vector<Value> pending;
  int rep = 0;

  DanglingChain() : boolean_q(ChainQuery()) {
    boolean_q.SetHead(boolean_q.head_relation(), {});
    FillDanglingChain(&db);
    ctx = std::make_unique<EvalContext>(db);
    EvaluateQuery(ChainQuery(), db, PlanKind::kHybridYannakakis, ctx.get())
        .ValueOrDie();
  }

  /// One δ-row window, appends only so no rep ever compacts: even reps
  /// append δ fresh dangling R rows, odd reps append the S rows that
  /// revive them.
  void Mutate(int delta) {
    std::vector<Tuple> batch;
    if (rep++ % 2 == 0) {
      pending.clear();
      for (int i = 0; i < delta; ++i) {
        pending.push_back(FreshVertex());
        batch.push_back({pending.back(), pending.back()});
      }
      db.FindMutable("R")->InsertBatch(batch);
    } else {
      for (const Value v : pending) batch.push_back({v, v});
      db.FindMutable("S")->InsertBatch(batch);
    }
  }
};

DanglingChain& Dangling(int which) {
  static std::deque<DanglingChain> chains(4);
  return chains[static_cast<std::size_t>(which)];
}

/// The compaction timer's instance: the dangling chain behind a 64-row hot
/// atom, Q() :- H(X), R(X,Y), S(Y,Z). A rep swaps 17 of H's rows for fresh
/// ones -- the 17th removal crosses H's quarter-dead threshold, so every
/// rep compacts H -- and re-reduces through the warm context: the journal
/// carries the window across the compaction, H's books are remapped, and
/// the pass runs in delta form.
constexpr int kHotRows = 64;
constexpr int kHotSwaps = 17;

struct HotDanglingChain {
  Query boolean_q;
  Database db;
  std::unique_ptr<EvalContext> ctx;
  /// H's values, oldest first; value i is (7 * i) mod 10^5.
  std::deque<Value> hot;
  Value next = 0;

  HotDanglingChain()
      : boolean_q(ParseQuery("Q(X) :- H(X), R(X,Y), S(Y,Z).").ValueOrDie()) {
    boolean_q.SetHead(boolean_q.head_relation(), {});
    FillDanglingChain(&db);
    Relation* h = db.AddRelation("H", 1);
    while (hot.size() < kHotRows) CQB_CHECK(h->Insert({NextHot()}));
    ctx = std::make_unique<EvalContext>(db);
    EvaluateQuery(boolean_q, db, PlanKind::kHybridYannakakis, ctx.get())
        .ValueOrDie();
  }

  Value NextHot() {
    hot.push_back(next++ * 7 % kDanglingRows);
    return hot.back();
  }

  void Rep() {
    Relation* h = db.FindMutable("H");
    const std::uint64_t compactions = h->compactions();
    std::vector<Tuple> fresh;
    for (int i = 0; i < kHotSwaps; ++i) {
      CQB_CHECK(h->Remove({hot.front()}));
      hot.pop_front();
      fresh.push_back({NextHot()});
    }
    CQB_CHECK(h->InsertBatch(fresh) == fresh.size());
    CQB_CHECK(h->compactions() == compactions + 1);
    EvalStats stats;
    EvaluateQuery(boolean_q, db, PlanKind::kHybridYannakakis, ctx.get(),
                  nullptr, &stats).ValueOrDie();
    CQB_CHECK(stats.semijoin_delta_pass);
  }
};

HotDanglingChain& HotDangling() {
  static HotDanglingChain chain;
  return chain;
}

/// Mutates chain `which` by a δ-row window and re-reduces it through its
/// warm context -- the counting delta pass plus the survivor-view upkeep.
void DeltaPassRep(int which, int delta) {
  DanglingChain& c = Dangling(which);
  c.Mutate(delta);
  EvalStats stats;
  EvaluateQuery(c.boolean_q, c.db, PlanKind::kHybridYannakakis, c.ctx.get(),
                nullptr, &stats).ValueOrDie();
  CQB_CHECK(stats.semijoin_delta_pass);
}

/// The isolated trie-maintenance timers' instance: B(i, j) for i < groups,
/// j < 1000 -- 2*10^5 rows at 200 groups (a multiple of 200), the shape of the hot two-column
/// relation the repo benchmark's warm-mutate workload churns -- with its
/// trie warm in a context. A rep's untimed setup applies one window (δ base
/// rows removed, δ fresh rows appended across the groups); the timed part
/// is the single GetTrie that refreshes the cached trie -- no evaluation, no
/// enumeration. Removals go oldest row first, base rows and then the fresh
/// ones, so the windows run indefinitely and now and then cross the store's
/// quarter-dead compaction threshold; the journal carries those windows as
/// epochs, and every timed refresh is still a splice. Each timer owns one
/// instance.
constexpr int kTrieGroups = 200;
constexpr int kTrieFanout = 1000;

const std::vector<std::vector<int>>& TrieLayout() {
  static const std::vector<std::vector<int>> layout = {{0}, {1}};
  return layout;
}

/// How a timed refresh must be served.
enum class RefreshPath {
  kSplice,      // the cached trie spliced in place
  kHeldSplice,  // a reader holds it: copied, then spliced
  kRebuild,     // a cold context: built from scratch
};

struct TrieWindows {
  int groups = kTrieGroups;
  std::unique_ptr<Database> db;
  std::unique_ptr<EvalContext> ctx;
  Relation* b = nullptr;
  /// A reader's hold on the cached trie (the held timer only).
  std::shared_ptr<const TrieIndex> held;
  /// Rows removed so far, oldest first: base rows, then fresh ones.
  Value removed = 0;
  /// Fresh rows appended so far.
  Value fresh = 0;

  /// The row appended `i`-th overall: the base rows, then fresh row f =
  /// i - base + 1. Fresh rows cycle through kTrieGroups groups spread
  /// evenly over the base, so a larger base sees windows of the same shape
  /// -- edits at the same relative positions.
  Tuple RowAt(Value i) const {
    const Value base = static_cast<Value>(groups) * kTrieFanout;
    if (i < base) return {i / kTrieFanout, i % kTrieFanout};
    return FreshRow(i - base + 1);
  }
  Tuple FreshRow(Value f) const {
    return {f % kTrieGroups * (groups / kTrieGroups), kTrieFanout + f};
  }

  void Build(int num_groups = kTrieGroups) {
    groups = num_groups;
    ctx.reset();
    db = std::make_unique<Database>();
    b = db->AddRelation("B", 2);
    {
      // Freed before the trie build: at 2*10^6 rows it is 32 MB.
      std::vector<Value> flat;
      for (int i = 0; i < groups; ++i) {
        for (int j = 0; j < kTrieFanout; ++j) flat.insert(flat.end(), {i, j});
      }
      b->InsertFlat(flat, flat.size() / 2);
    }
    ctx = std::make_unique<EvalContext>(*db);
    ctx->GetTrie(*b, TrieLayout(), nullptr);
  }

  void Window(int delta) {
    std::vector<Tuple> batch;
    for (int k = 0; k < delta; ++k) {
      CQB_CHECK(b->Remove(RowAt(removed++)));
      batch.push_back(FreshRow(++fresh));
    }
    CQB_CHECK(b->InsertBatch(batch) == batch.size());
  }

  /// The timed refresh, checked to have taken the path its timer names. A
  /// lingering holder of an unheld timer's trie would turn every splice
  /// back into a copy; the shared-splice count catches it.
  void Refresh(RefreshPath path) {
    const std::uint64_t shared = GetTrieBuildStats().shared_splices;
    EvalStats stats;
    ctx->GetTrie(*b, TrieLayout(), &stats);
    const std::uint64_t copies = GetTrieBuildStats().shared_splices - shared;
    CQB_CHECK(path == RefreshPath::kRebuild
                  ? stats.trie_rebuilds == 1
                  : stats.trie_rebuilds == 0 && stats.trie_unpatches == 1);
    CQB_CHECK(copies == (path == RefreshPath::kHeldSplice ? 1u : 0u));
  }
};

/// 0-2: the δ = 1, 100, 10^4 splices; 3: the rebuild contrast; 4: the held
/// splice; 5: the 2*10^6-row base, built on first use.
TrieWindows& Windows(int which) {
  static std::deque<TrieWindows> windows(6);
  return windows[static_cast<std::size_t>(which)];
}

void PrepareTimerFixtures() {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx())
      .ValueOrDie();
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &ChCtx())
      .ValueOrDie();
  for (int which = 0; which < 4; ++which) Dangling(which);
  for (int which = 0; which < 5; ++which) Windows(which).Build();
  HotDangling();
}

void PrintTables() {
  std::cout << "E16: tombstone deletion deltas -- remove-then-re-evaluate "
               "on a warm context\n\n";

  // --- Generic join: the unpatch path on the trie tier -------------------
  std::cout << "Trie-tier refresh after k removed tuples (triangles on the "
               "10^4-edge\nchorded cycle, one warm context throughout; the "
               "removed edges connect\nfresh isolated vertices, so the "
               "output is invariant):\n";
  bench::Table trie_table({"step", "trie unpatches", "trie rebuilds",
                           "delta tuples", "compactions", "output"});
  {
    Query q = TriangleQuery();
    Database db = TriangleDb();
    EvalContext ctx(db);
    Relation* e = db.FindMutable("E");
    // A pool of removable fresh-vertex edges, appended up front in one
    // batch: removing them never changes the triangle count, and 111 dead
    // rows stay far below the store's quarter-dead compaction threshold.
    std::vector<Tuple> pool;
    for (int i = 0; i < 111; ++i) {
      pool.push_back({FreshVertex(), FreshVertex()});
      CQB_CHECK(e->Insert(pool.back()));
    }
    std::size_t next_removable = 0;
    auto row = [&](const char* step, const EvalStats& stats) {
      trie_table.AddRow({step, bench::Num(stats.trie_unpatches),
                         bench::Num(stats.trie_rebuilds),
                         bench::Num(stats.delta_tuples_processed),
                         bench::Num(e->compactions()),
                         bench::Num(stats.output_size)});
    };

    EvalStats stats;
    EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                  &stats).ValueOrDie();
    CQB_CHECK(stats.trie_rebuilds >= 1 && stats.trie_unpatches == 0);
    const std::size_t base_output = stats.output_size;
    row("cold build", stats);

    for (int k : {1, 10, 100}) {
      for (int i = 0; i < k; ++i) {
        CQB_CHECK(e->Remove(pool[next_removable++]));
      }
      EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, nullptr,
                    &stats).ValueOrDie();
      // The experiment's headline invariant, asserted where it is
      // measured: a small removal from a warm 10^4-tuple instance is a
      // tombstone served by the unpatch path -- it never compacts and
      // never rebuilds.
      CQB_CHECK(e->compactions() == 0);
      CQB_CHECK(stats.trie_rebuilds == 0);
      CQB_CHECK(stats.trie_unpatches >= 1);
      CQB_CHECK(stats.delta_tuples_processed >=
                static_cast<std::size_t>(k));
      CQB_CHECK(stats.output_size == base_output);
      row(k == 1 ? "remove 1" : (k == 10 ? "remove 10" : "remove 100"),
          stats);
    }
  }
  trie_table.Print();

  std::cout << "\nShape check: every remove row refreshes the stale layouts "
               "by unpatching\n(rebuilds AND compactions stay 0) and touches "
               "k delta tuples per layout.\nOutput is constant down the "
               "table -- the removed fresh-vertex edges closed\nno "
               "triangle.\n\n";

  // --- Hybrid: kills and revivals through the counting delta pass --------
  std::cout << "Hybrid counting delta pass (R join S, each the 10^4-edge "
               "cycle; removing\nall 6 S tuples leaving vertex 0 kills the "
               "6 R tuples entering it, and\nre-adding one support tuple "
               "revives all 6):\n";
  bench::Table hybrid_table({"step", "pass", "killed", "revived", "dangling",
                             "trie rebuilds", "output"});
  {
    Query q = ChainQuery();
    Database db = ChainDb();
    EvalContext ctx(db);
    Relation* s = db.FindMutable("S");
    auto row = [&](const char* step, const char* pass,
                   const EvalStats& stats) {
      hybrid_table.AddRow({step, pass, bench::Num(stats.semijoin_killed_tuples),
                           bench::Num(stats.semijoin_revived_tuples),
                           bench::Num(stats.semijoin_dangling_tuples),
                           bench::Num(stats.trie_rebuilds),
                           bench::Num(stats.output_size)});
    };
    // From-scratch cross-check: the warm result and the warm dangling
    // census must match a cold context's full re-reduction exactly.
    auto cross_check = [&](const EvalStats& warm_stats,
                           const Relation& warm_result) {
      EvalContext cold(db);
      EvalStats cold_stats;
      auto want = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &cold,
                                nullptr, &cold_stats).ValueOrDie();
      CQB_CHECK(want.size() == warm_result.size());
      CQB_CHECK(warm_stats.semijoin_dangling_tuples ==
                cold_stats.semijoin_dropped_tuples);
    };

    EvalStats stats;
    auto result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx,
                                nullptr, &stats).ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_ran && !stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_dropped_tuples == 0);
    const std::size_t base_output = result.size();
    row("cold full pass", "full", stats);

    // Kill: drop every S tuple (0, w) -- the sole supports of the 6 R
    // tuples (x, 0). 6 dead of 10002 physical rows: tombstones, far below
    // the compaction threshold.
    std::vector<Tuple> support;
    for (int d = 1; d <= 3; ++d) {
      support.push_back({0, d});
      support.push_back({0, kCycleN - d});
    }
    for (const Tuple& t : support) CQB_CHECK(s->Remove(t));
    CQB_CHECK(s->compactions() == 0);
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                           &stats).ValueOrDie();
    // Zero full re-reduces: the pass ran as a delta pass and killed
    // exactly the 6 R tuples whose semi-join key lost all support.
    CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_killed_tuples == 6);
    CQB_CHECK(stats.semijoin_dangling_tuples == 6);
    CQB_CHECK(stats.trie_rebuilds == 0);
    cross_check(stats, result);
    row("remove 6 supports", "delta", stats);

    // Unchanged generation vector: the pass is skipped, the dangling
    // census persists via the cached dirty state.
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                           &stats).ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_skipped);
    CQB_CHECK(stats.semijoin_dangling_tuples == 6);
    row("re-evaluate", "skip", stats);

    // Revive: one appended support tuple flips key 0 back to supported;
    // all 6 previously killed R tuples come off the dropped book.
    CQB_CHECK(s->Insert({0, 1}));
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                           &stats).ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_revived_tuples == 6);
    CQB_CHECK(stats.semijoin_dangling_tuples == 0);
    CQB_CHECK(stats.trie_rebuilds == 0);
    cross_check(stats, result);
    row("re-add 1 support", "delta", stats);

    // Revival-heavy churn: repeat the kill/revive cycle on distinct
    // vertices in one mixed window each -- remove a vertex's supports AND
    // re-add the previous vertex's in the same generation window.
    for (int v = 1; v <= 3; ++v) {
      for (int d = 1; d <= 3; ++d) {
        CQB_CHECK(s->Remove({v, (v + d) % kCycleN}));
        CQB_CHECK(s->Remove({v, (v - d + kCycleN) % kCycleN}));
      }
      if (v > 1) CQB_CHECK(s->Insert({v - 1, v}));
      result =
          EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                        &stats).ValueOrDie();
      CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
      CQB_CHECK(stats.semijoin_killed_tuples == 6);
      CQB_CHECK(stats.semijoin_revived_tuples == (v > 1 ? 6u : 0u));
      CQB_CHECK(stats.trie_rebuilds == 0);
      cross_check(stats, result);
      row(v == 1 ? "churn v=1 (kill)" :
          (v == 2 ? "churn v=2 (kill+revive)" : "churn v=3 (kill+revive)"),
          "delta", stats);
    }
    CQB_CHECK(result.size() < base_output);

    // Compaction: drop the whole support of vertices 10, 11, ... until S
    // crosses its quarter-dead threshold. The journal carries the window
    // across the compaction as an epoch, so the pass still runs in delta
    // form -- S's books remapped to the compacted row ids, the removed
    // rows read from their saved codes -- and no trie is rebuilt.
    std::size_t vertices = 0;
    for (int v = 10; s->compactions() == 0; ++v, ++vertices) {
      for (int d = 1; d <= 3; ++d) {
        CQB_CHECK(s->Remove({v, (v + d) % kCycleN}));
        CQB_CHECK(s->Remove({v, (v - d + kCycleN) % kCycleN}));
      }
    }
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr,
                           &stats).ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_killed_tuples == 6 * vertices);
    CQB_CHECK(stats.trie_rebuilds == 0);
    cross_check(stats, result);
    row("compact + delta", "delta", stats);
  }
  hybrid_table.Print();

  std::cout << "\nShape check: every mutation row runs as a *delta* pass "
               "(zero full\nre-reduces, zero trie rebuilds): kills land "
               "when a key's support count\nreaches zero, revivals when it "
               "returns, and after each step the dangling\ncensus equals "
               "the drop count a from-scratch context computes -- the\n"
               "cross-check evaluated one inline per row.\n\n";

  PrepareTimerFixtures();
}

// Warm remove-then-re-evaluate: each rep inserts one fresh isolated edge
// and removes the one inserted two reps earlier (steady-state mixed
// window: 1 append + 1 tombstone per refresh) -- the unpatch path.
CQB_BENCH_TIMED("triangle10k/remove1+unpatch", [] {
  static std::deque<Tuple> live;
  Relation* e = TriDb().FindMutable("E");
  live.push_back({FreshVertex(), FreshVertex()});
  e->Insert(live.back());
  if (live.size() > 2) {
    e->Remove(live.front());
    live.pop_front();
  }
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx())
      .ValueOrDie();
})

// From-scratch contrast: the same mutation, evaluated through a cold
// context (every trie rebuilt over the full relation).
CQB_BENCH_TIMED("triangle10k/remove1+rebuild", [] {
  static std::deque<Tuple> live;
  Relation* e = TriDb().FindMutable("E");
  live.push_back({FreshVertex(), FreshVertex()});
  e->Insert(live.back());
  if (live.size() > 2) {
    e->Remove(live.front());
    live.pop_front();
  }
  EvalContext cold(TriDb());
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &cold)
      .ValueOrDie();
})

// Hybrid delta vs full re-reduce: the same steady-state churn (append one
// hub tuple, tombstone an older one) extended through the counting delta
// pass on the warm context ...
CQB_BENCH_TIMED("chain10k/remove1+delta-pass", [] {
  static std::deque<Tuple> live;
  Relation* r = ChDb().FindMutable("R");
  live.push_back({FreshVertex(), 0});
  r->Insert(live.back());
  if (live.size() > 2) {
    r->Remove(live.front());
    live.pop_front();
  }
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &ChCtx())
      .ValueOrDie();
})

// ... vs re-reduced from nothing by a cold context.
CQB_BENCH_TIMED("chain10k/remove1+full-reduce", [] {
  static std::deque<Tuple> live;
  Relation* r = ChDb().FindMutable("R");
  live.push_back({FreshVertex(), 0});
  r->Insert(live.back());
  if (live.size() > 2) {
    r->Remove(live.front());
    live.pop_front();
  }
  EvalContext cold(ChDb());
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &cold)
      .ValueOrDie();
})

// The hybrid's semi-join maintenance alone, at growing window sizes, on
// the 10^5-row dangling chain: mutate by δ rows, then evaluate the
// boolean-head copy through the warm context (the counting delta pass,
// survivor-view upkeep and an existence check; no enumeration).
CQB_BENCH_TIMED("dangling1e5/delta1-pass", [] { DeltaPassRep(0, 1); })
CQB_BENCH_TIMED("dangling1e5/delta100-pass", [] { DeltaPassRep(1, 100); })
CQB_BENCH_TIMED("dangling1e5/delta10000-pass",
                [] { DeltaPassRep(2, 10000); })

// Contrast: the same 1-row window re-reduced from nothing by a cold
// context (full pass, survivor and trie builds, existence check).
CQB_BENCH_TIMED("dangling1e5/delta1-full-reduce", [] {
  DanglingChain& c = Dangling(3);
  c.Mutate(1);
  EvalContext cold(c.db);
  EvaluateQuery(c.boolean_q, c.db, PlanKind::kHybridYannakakis, &cold)
      .ValueOrDie();
})

// A 64-row hot atom in front of the same chain, compacted by every rep's
// 17-row swap, re-reduced through the warm context: the H remap plus the
// delta pass -- what a full re-reduce cost before compactions were
// journaled.
CQB_BENCH_TIMED("dangling1e5/compact+delta-pass", [] { HotDangling().Rep(); })

// Trie maintenance alone, at growing window sizes: one GetTrie after a
// δ-removed plus δ-appended window on the 2*10^5-row instance (the
// in-place splice).
CQB_BENCH_TIMED_SETUP("trie2e5/delta1-get-trie", [] { Windows(0).Window(1); },
                      [] { Windows(0).Refresh(RefreshPath::kSplice); })
CQB_BENCH_TIMED_SETUP("trie2e5/delta100-get-trie",
                      [] { Windows(1).Window(100); },
                      [] { Windows(1).Refresh(RefreshPath::kSplice); })
CQB_BENCH_TIMED_SETUP("trie2e5/delta10000-get-trie",
                      [] { Windows(2).Window(10000); },
                      [] { Windows(2).Refresh(RefreshPath::kSplice); })

// Contrast: the same 1-row window, served by a fresh (cold) context's
// from-scratch radix build.
CQB_BENCH_TIMED_SETUP(
    "trie2e5/rebuild-get-trie",
    [] {
      Windows(3).Window(1);
      Windows(3).ctx = std::make_unique<EvalContext>(*Windows(3).db);
    },
    [] { Windows(3).Refresh(RefreshPath::kRebuild); })

// The same 1-row window while a reader holds the cached trie: the refresh
// must leave the held trie alone, so it copies it and splices the copy.
CQB_BENCH_TIMED_SETUP(
    "trie2e5/delta1-get-trie-held",
    [] {
      TrieWindows& w = Windows(4);
      w.held = w.ctx->GetTrie(*w.b, TrieLayout(), nullptr);
      w.Window(1);
    },
    [] { Windows(4).Refresh(RefreshPath::kHeldSplice); })

// The 1-row in-place splice on a 10x base (2000 groups, 2*10^6 rows): what
// grows with the base is the shift of each level's suffix.
CQB_BENCH_TIMED_SETUP(
    "trie2e6/delta1-get-trie",
    [] {
      TrieWindows& w = Windows(5);
      if (w.db == nullptr) w.Build(10 * kTrieGroups);
      w.Window(1);
    },
    [] { Windows(5).Refresh(RefreshPath::kSplice); })

void BM_DeltaRemoveEval(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<Tuple> prev;
  for (auto _ : state) {
    Relation* e = TriDb().FindMutable("E");
    std::vector<Tuple> fresh;
    for (int i = 0; i < k; ++i) {
      fresh.push_back({FreshVertex(), FreshVertex()});
      e->Insert(fresh.back());
    }
    for (const Tuple& t : prev) e->Remove(t);
    prev = std::move(fresh);
    auto r = EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DeltaRemoveEval)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
