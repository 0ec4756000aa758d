// The stale-side memo (core/stale_memo.h): q(S) and η over committed tables
// computed once per table version and shared by every fork of an engine
// lineage. Answers must stay bit-identical to a cache-off engine, which
// never consults the memo; keys must be exact where the query's rendering
// is not; each table name keeps one generation; the slot count is bounded;
// and a failed computation stores nothing.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "core/shared_engine.h"
#include "core/sharded_engine.h"
#include "core/svc.h"
#include "sql/planner.h"
#include "tests/test_util.h"

namespace svc {
namespace {

constexpr char kViewSql[] = "SELECT id, g, v, s FROM F WHERE v >= 0";
/// Sampled on the join key, so η pushes to both inputs (the TPCD join
/// view's shape).
constexpr char kJoinViewSql[] =
    "SELECT F.id, F.v, D.g, D.label FROM F, D WHERE F.g = D.g";
const std::vector<std::string> kJoinKey = {"g"};
constexpr int64_t kGroups = 20;

Schema FactSchema() {
  return Schema({{"", "id", ValueType::kInt},
                 {"", "g", ValueType::kInt},
                 {"", "v", ValueType::kDouble},
                 {"", "s", ValueType::kString}});
}

Row FactRow(int64_t id, Rng* rng) {
  return {Value::Int(id), Value::Int(rng->UniformInt(1, kGroups)),
          Value::Double(rng->UniformInt(0, 500000) + 0.25),
          Value::String(std::string(1, static_cast<char>(
                                           'a' + rng->UniformInt(0, 3))))};
}

/// F(id, g, v, s) and D(g, label). One F row sits between 250000.0 and
/// 250000.4, so predicates on those two literals select different rows.
Database MakeDb(uint64_t seed, int64_t rows = 300) {
  Database db;
  Table fact(FactSchema());
  EXPECT_TRUE(fact.SetPrimaryKey({"id"}).ok());
  Rng rng(seed);
  for (int64_t id = 0; id < rows; ++id) {
    Row r = FactRow(id, &rng);
    if (id == 7) r[2] = Value::Double(250000.2);
    EXPECT_TRUE(fact.Insert(std::move(r)).ok());
  }
  EXPECT_TRUE(db.CreateTable("F", std::move(fact)).ok());
  Table dim(Schema({{"", "g", ValueType::kInt},
                    {"", "label", ValueType::kInt}}));
  EXPECT_TRUE(dim.SetPrimaryKey({"g"}).ok());
  for (int64_t g = 1; g <= kGroups; ++g) {
    EXPECT_TRUE(dim.Insert({Value::Int(g), Value::Int(100 + g % 4)}).ok());
  }
  EXPECT_TRUE(db.CreateTable("D", std::move(dim)).ok());
  return db;
}

/// An engine over MakeDb with view V (kViewSql) and some pending deltas.
SvcEngine MakeStaleEngine(uint64_t seed) {
  SvcEngine engine(MakeDb(seed));
  EXPECT_TRUE(
      engine.CreateView("V", SqlToPlan(kViewSql, *engine.db()).value()).ok());
  Rng rng(seed + 1);
  for (int64_t id = 1000; id < 1040; ++id) {
    EXPECT_TRUE(engine.InsertRecord("F", FactRow(id, &rng)).ok());
  }
  for (int64_t id = 10; id < 20; ++id) {
    const Row old = (*engine.db()->GetTable("F"))->row(static_cast<size_t>(id));
    EXPECT_TRUE(engine.DeleteRecord("F", old).ok());
  }
  return engine;
}

SvcQueryOptions Corr() {
  SvcQueryOptions opts;
  opts.ratio = 0.25;
  opts.mode = EstimatorMode::kCorr;
  return opts;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectBitEqual(const Estimate& a, const Estimate& b) {
  EXPECT_TRUE(BitEqual(a.value, b.value)) << a.value << " vs " << b.value;
  EXPECT_TRUE(BitEqual(a.ci_low, b.ci_low));
  EXPECT_TRUE(BitEqual(a.ci_high, b.ci_high));
  EXPECT_EQ(a.has_ci, b.has_ci);
  EXPECT_EQ(a.sample_rows, b.sample_rows);
}

void ExpectBitEqual(const GroupedResult& a, const GroupedResult& b) {
  ASSERT_EQ(a.group_keys.size(), b.group_keys.size());
  for (size_t k = 0; k < a.group_keys.size(); ++k) {
    EXPECT_TRUE(a.group_keys[k] == b.group_keys[k]);
    ExpectBitEqual(a.estimates[k], b.estimates[k]);
  }
}

/// One SVC query shape: scalar when `group_by` is empty.
struct Shape {
  AggregateQuery q;
  std::vector<std::string> group_by;
};

/// Runs `shape` on `warm` and `cold` and expects bit-identical answers.
void ExpectSameAnswer(const SvcEngine& warm, const SvcEngine& cold,
                      const Shape& shape) {
  if (shape.group_by.empty()) {
    SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer w, warm.Query("V", shape.q, Corr()));
    SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer c, cold.Query("V", shape.q, Corr()));
    ExpectBitEqual(w.estimate, c.estimate);
    return;
  }
  SVC_ASSERT_OK_AND_ASSIGN(
      SvcGroupedAnswer w, warm.QueryGrouped("V", shape.group_by, shape.q,
                                            Corr()));
  SVC_ASSERT_OK_AND_ASSIGN(
      SvcGroupedAnswer c, cold.QueryGrouped("V", shape.group_by, shape.q,
                                            Corr()));
  ExpectBitEqual(w.result, c.result);
}

TEST(StaleMemoTest, KeyIsExactWhereTheQueryRenderingCollides) {
  SvcEngine warm = MakeStaleEngine(1);
  SvcEngine cold(warm);
  cold.set_sample_cache_enabled(false);
  auto sum_v_where = [](ExprPtr predicate) {
    return AggregateQuery::Sum(Expr::Col("v"), std::move(predicate));
  };
  // sum(strlen(concat(s, literals...))): literals render unescaped.
  auto sum_strlen = [](const std::vector<std::string>& literals) {
    std::vector<ExprPtr> args = {Expr::Col("s")};
    for (const std::string& l : literals) args.push_back(Expr::LitString(l));
    return AggregateQuery::Sum(
        Expr::Func("strlen", {Expr::Func("concat", std::move(args))}));
  };
  const AggregateQuery sum_v = AggregateQuery::Sum(Expr::Col("v"));
  const AggregateQuery avg_v = AggregateQuery::Avg(Expr::Col("v"));
  struct Pair {
    const char* why;
    Shape a;
    Shape b;
  };
  const std::vector<Pair> pairs = {
      {"%.6g doubles",
       {sum_v_where(Expr::Gt(Expr::Col("v"), Expr::LitDouble(250000.0))), {}},
       {sum_v_where(Expr::Gt(Expr::Col("v"), Expr::LitDouble(250000.4))), {}}},
      {"int vs double literal",
       {sum_v_where(Expr::Eq(Expr::Col("g"), Expr::LitInt(3))), {}},
       {sum_v_where(Expr::Eq(Expr::Col("g"), Expr::LitDouble(3.0))), {}}},
      {"unescaped string literal",
       {sum_strlen({"x", "y"}), {}},
       {sum_strlen({"x', 'y"}), {}}},
      {"group columns", {sum_v, {"g"}}, {sum_v, {"s"}}},
      {"scalar vs grouped", {avg_v, {}}, {avg_v, {"g"}}},
  };
  for (const Pair& p : pairs) {
    SCOPED_TRACE(p.why);
    // The precondition: the rendering cannot tell the two queries apart.
    ASSERT_EQ(p.a.q.ToString(), p.b.q.ToString());
    ExpectSameAnswer(warm, cold, p.a);
    // Samples are cached from here on, so each query makes exactly one
    // memo lookup: q(S). `b` must miss (its own entry), and `a` must then
    // still hit (b did not overwrite it).
    StaleMemo::Stats before = warm.StaleMemoStats();
    ExpectSameAnswer(warm, cold, p.b);
    StaleMemo::Stats after = warm.StaleMemoStats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits);
    ExpectSameAnswer(warm, cold, p.a);
    EXPECT_EQ(warm.StaleMemoStats().hits, after.hits + 1);
  }
}

TEST(StaleMemoTest, EtaOverCommittedTablesIsSharedAcrossForks) {
  // A join view sampled on the join key: η pushes to the scans of F and D
  // (committed, memoized) and of their delta chunks (never memoized).
  SvcEngine warm(MakeDb(3));
  SVC_ASSERT_OK(warm.CreateView(
      "V", SqlToPlan(kJoinViewSql, *warm.db()).value(), kJoinKey));
  Rng rng(4);
  int64_t next_id = 1000;
  const Shape shape{AggregateQuery::Sum(Expr::Col("v")), {"label"}};
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    // Deltas on both sides, so the change table joins each committed
    // input with the other's delta.
    SVC_ASSERT_OK(warm.InsertRecord("F", FactRow(next_id++, &rng)));
    SVC_ASSERT_OK(warm.DeleteRecord(
        "F", (*warm.db()->GetTable("F"))->row(static_cast<size_t>(round))));
    SVC_ASSERT_OK(warm.InsertRecord(
        "D", {Value::Int(kGroups + 1 + round), Value::Int(round)}));
    // A fork with newer deltas: the cached sample cannot advance (deletes
    // are queued), so this is a full clean, yet after the first round Ŝ,
    // the merge join's view branch, both base leaves and q(S) all come
    // from the memo.
    SvcEngine fork(warm);
    SvcEngine cold(fork);
    cold.set_sample_cache_enabled(false);
    const StaleMemo::Stats before = fork.StaleMemoStats();
    ExpectSameAnswer(fork, cold, shape);
    const StaleMemo::Stats after = fork.StaleMemoStats();
    if (round == 0) {
      EXPECT_EQ(after.hits, before.hits + 1);  // the merge join's view branch
      EXPECT_EQ(after.misses, before.misses + 4);  // Ŝ, F's and D's leaf, q(S)
    } else {
      EXPECT_EQ(after.hits, before.hits + 5);
      EXPECT_EQ(after.misses, before.misses);
    }
    EXPECT_EQ(warm.StaleMemoStats().hits, after.hits) << "one memo per lineage";
    warm = fork;
  }
}

TEST(StaleMemoTest, EtaKeyCoversRatioAndHashFamily) {
  SvcEngine warm(MakeDb(12));
  SVC_ASSERT_OK(warm.CreateView(
      "V", SqlToPlan(kJoinViewSql, *warm.db()).value(), kJoinKey));
  Rng rng(13);
  SVC_ASSERT_OK(warm.InsertRecord("F", FactRow(1000, &rng)));
  SVC_ASSERT_OK(
      warm.InsertRecord("D", {Value::Int(kGroups + 1), Value::Int(0)}));
  SvcEngine cold(warm);
  cold.set_sample_cache_enabled(false);
  const AggregateQuery q = AggregateQuery::Sum(Expr::Col("v"));
  struct Draw {
    double ratio;
    HashFamily family;
  };
  bool first = true;
  for (const Draw& d : {Draw{0.25, HashFamily::kFnv1a},
                        Draw{0.5, HashFamily::kFnv1a},
                        Draw{0.25, HashFamily::kSdbm}}) {
    SCOPED_TRACE("ratio=" + std::to_string(d.ratio));
    SvcQueryOptions opts = Corr();
    opts.ratio = d.ratio;
    opts.family = d.family;
    // Every draw is a new cleaning run whose η leaves must miss: an entry
    // for another ratio or family holds a different sample.
    const StaleMemo::Stats before = warm.StaleMemoStats();
    SVC_ASSERT_OK_AND_ASSIGN(SvcGroupedAnswer w,
                             warm.QueryGrouped("V", {"label"}, q, opts));
    SVC_ASSERT_OK_AND_ASSIGN(SvcGroupedAnswer c,
                             cold.QueryGrouped("V", {"label"}, q, opts));
    ExpectBitEqual(w.result, c.result);
    // Ŝ, F's and D's leaf; q(S) does not depend on the draw, so only the
    // first one computes it.
    EXPECT_EQ(warm.StaleMemoStats().misses - before.misses, first ? 4u : 3u);
    first = false;
  }
}

TEST(StaleMemoTest, CacheOffForkComputesEverythingItself) {
  // The differential suite's and micro_ops' cache-off controls are forks
  // of a warm engine: the shared memo must not serve them.
  SvcEngine warm = MakeStaleEngine(5);
  const std::vector<Shape> shapes = {
      {AggregateQuery::Sum(Expr::Col("v")), {}},
      {AggregateQuery::Avg(Expr::Col("v")), {"g"}},
      {AggregateQuery::Median(Expr::Col("v")), {"s"}},
  };
  SvcEngine reference(warm);
  reference.set_sample_cache_enabled(false);
  for (const Shape& s : shapes) ExpectSameAnswer(warm, reference, s);
  ASSERT_GT(warm.StaleMemoStats().misses, 0u);

  SvcEngine cold(warm);
  cold.set_sample_cache_enabled(false);
  const StaleMemo::Stats before = warm.StaleMemoStats();
  for (const Shape& s : shapes) ExpectSameAnswer(warm, cold, s);
  // Only the warm engine's lookups (one q(S) hit per shape) moved the
  // shared counters; the cold fork made none.
  const StaleMemo::Stats after = cold.StaleMemoStats();
  EXPECT_EQ(after.hits, before.hits + shapes.size());
  EXPECT_EQ(after.misses, before.misses);
  ExpectSameAnswer(cold, cold, shapes[0]);
  EXPECT_EQ(cold.StaleMemoStats().hits, after.hits);
  EXPECT_EQ(cold.StaleMemoStats().misses, after.misses);
}

TEST(StaleMemoTest, ShardedCacheOffComputesEverythingItself) {
  ShardedEngine eng(MakeDb(6), 2);
  SVC_ASSERT_OK(eng.CreateView(
      "V",
      SqlToPlan(kViewSql, eng.Snapshot()->shards[0]->engine.db()).value()));
  ASSERT_TRUE(eng.Snapshot()->meta->IsPartitionedView("V"));
  Rng rng(7);
  std::vector<Row> rows;
  for (int64_t id = 1000; id < 1030; ++id) rows.push_back(FactRow(id, &rng));
  SVC_ASSERT_OK(eng.InsertRows("F", rows));

  const AggregateQuery q = AggregateQuery::Sum(Expr::Col("v"));
  auto memo_counts = [&eng] {
    ShardedSnapshotPtr snap = eng.Snapshot();
    uint64_t total = eng.CoordinatorStaleMemoStats().hits +
                     eng.CoordinatorStaleMemoStats().misses;
    for (const SnapshotPtr& shard : snap->shards) {
      const StaleMemo::Stats s = shard->engine.StaleMemoStats();
      total += s.hits + s.misses;
    }
    return total;
  };
  ShardedSnapshotPtr snap = eng.Snapshot();
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer warm, eng.Query(*snap, "V", q, Corr()));
  SVC_ASSERT_OK_AND_ASSIGN(SvcGroupedAnswer warm_g,
                           eng.QueryGrouped(*snap, "V", {"g"}, q, Corr()));
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer again, eng.Query(*snap, "V", q, Corr()));
  ExpectBitEqual(again.estimate, warm.estimate);
  // A sum's q(S) is each shard's memoized moments; the coordinator memo
  // (median, min and max over gathered views) is never consulted.
  uint64_t shard_hits = 0;
  for (const SnapshotPtr& shard : snap->shards) {
    shard_hits += shard->engine.StaleMemoStats().hits;
  }
  EXPECT_GT(shard_hits, 0u);
  EXPECT_EQ(eng.CoordinatorStaleMemoStats().hits +
                eng.CoordinatorStaleMemoStats().misses,
            0u);

  eng.set_sample_cache_enabled(false);
  const uint64_t before = memo_counts();
  ShardedSnapshotPtr cold_snap = eng.Snapshot();
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer cold,
                           eng.Query(*cold_snap, "V", q, Corr()));
  SVC_ASSERT_OK_AND_ASSIGN(SvcGroupedAnswer cold_g,
                           eng.QueryGrouped(*cold_snap, "V", {"g"}, q, Corr()));
  ExpectBitEqual(cold.estimate, warm.estimate);
  ExpectBitEqual(cold_g.result, warm_g.result);
  EXPECT_EQ(memo_counts(), before);
}

TEST(StaleMemoTest, KeepsOneTableGenerationPerName) {
  SharedEngine se(MakeDb(8));
  SVC_ASSERT_OK(se.CreateView(
      "V", SqlToPlan(kJoinViewSql, se.Snapshot()->engine.db()).value(),
      kJoinKey));
  Rng rng(9);
  for (int64_t id = 1000; id < 1020; ++id) {
    SVC_ASSERT_OK(se.InsertRecord("F", FactRow(id, &rng)));
  }
  SVC_ASSERT_OK(
      se.InsertRecord("D", {Value::Int(kGroups + 1), Value::Int(100)}));
  const std::vector<Shape> shapes = {
      {AggregateQuery::Sum(Expr::Col("v")), {}},
      {AggregateQuery::Count(), {"label"}},
  };
  auto query_each_shape = [&shapes](const EngineSnapshot& snap) {
    for (const Shape& s : shapes) {
      if (s.group_by.empty()) {
        ASSERT_TRUE(snap.engine.Query("V", s.q, Corr()).ok());
      } else {
        ASSERT_TRUE(
            snap.engine.QueryGrouped("V", s.group_by, s.q, Corr()).ok());
      }
    }
  };
  const std::vector<std::string> names = {"V", "F", "D"};
  SnapshotPtr old = se.Snapshot();
  query_each_shape(*old);
  std::vector<std::weak_ptr<const Table>> old_tables;
  for (const std::string& name : names) {
    old_tables.push_back(old->engine.db().GetTableShared(name));
  }

  SVC_ASSERT_OK(se.Refresh());
  SnapshotPtr head = se.Snapshot();
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_NE(head->engine.db().GetTableShared(names[i]), old_tables[i].lock())
        << "REFRESH must replace " << names[i];
  }
  // After a REFRESH the queue is empty, so the new cleaning plan no longer
  // scans F at all; the pre-REFRESH F must be released anyway.
  query_each_shape(*head);
  old.reset();
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(old_tables[i].expired())
        << "the pre-REFRESH " << names[i] << " is still pinned";
  }
}

TEST(StaleMemoTest, SlotCountIsBoundedWithLruEviction) {
  SvcEngine engine = MakeStaleEngine(10);
  auto query = [&engine](int64_t threshold) {
    AggregateQuery q = AggregateQuery::Count(
        Expr::Gt(Expr::Col("v"), Expr::LitInt(threshold)));
    ASSERT_TRUE(engine.Query("V", q, Corr()).ok());
  };
  query(0);
  query(0);
  const StaleMemo::Stats warm = engine.StaleMemoStats();
  // kMaxSlots distinct q(S) results push the first one out, together with
  // the η entries the cleaning run stored.
  for (size_t i = 1; i <= StaleMemo::kMaxSlots; ++i) {
    query(static_cast<int64_t>(i));
  }
  const StaleMemo::Stats filled = engine.StaleMemoStats();
  EXPECT_EQ(filled.misses, warm.misses + StaleMemo::kMaxSlots);
  query(0);
  EXPECT_EQ(engine.StaleMemoStats().misses, filled.misses + 1);
  // The most recent results are still there.
  query(static_cast<int64_t>(StaleMemo::kMaxSlots));
  EXPECT_EQ(engine.StaleMemoStats().hits, filled.hits + 1);
}

TEST(StaleMemoTest, CancelledCleaningStoresNothing) {
  const AggregateQuery q = AggregateQuery::Sum(Expr::Col("v"));
  SvcEngine cancelled = MakeStaleEngine(11);
  CancelToken token;
  token.Cancel();
  SvcQueryOptions expired = Corr();
  expired.exec.cancel = &token;
  Result<SvcAnswer> r = cancelled.Query("V", q, expired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  const StaleMemo::Stats after_cancel = cancelled.StaleMemoStats();

  // The same query on an untouched engine makes the same lookups with the
  // same outcomes: the cancelled attempt left nothing behind.
  SvcEngine fresh = MakeStaleEngine(11);
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer want, fresh.Query("V", q, Corr()));
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer got, cancelled.Query("V", q, Corr()));
  ExpectBitEqual(got.estimate, want.estimate);
  EXPECT_EQ(cancelled.StaleMemoStats().hits - after_cancel.hits,
            fresh.StaleMemoStats().hits);
  EXPECT_EQ(cancelled.StaleMemoStats().misses - after_cancel.misses,
            fresh.StaleMemoStats().misses);
}

}  // namespace
}  // namespace svc
