// ShardedEngine (core/sharded_engine.h): derived placement (which
// relations a view's sampling key partitions, which stay replicated and
// pinned), clean NotSupported failures on conflicting placement demands,
// bit-identity of scatter-gather answers against an unsharded replica, and
// a concurrency stress where readers race a writer across published cuts —
// the sharded analog of test_concurrent_engine.cc, run under TSan by
// `scripts/check.sh --tsan`.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/sharded_engine.h"
#include "core/svc.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "tests/test_util.h"
#include "tpcd/tpcd_gen.h"
#include "tpcd/tpcd_views.h"

namespace svc {
namespace {

using testing_util::EncodedRows;
using testing_util::MakeLogVideoDb;

constexpr char kVisitViewSql[] =
    "SELECT Log.videoId, COUNT(1) AS visitCount "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.videoId";

/// A view whose sampling key (the derived pk, spanning both join sides
/// with non-join-key attributes) cannot push through the join: the view
/// falls back to replicated-class and pins both relations.
constexpr char kBlockedViewSql[] =
    "SELECT Log.sessionId, Video.ownerId, COUNT(1) AS c "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.sessionId, Video.ownerId";

PlanPtr PlanOf(const ShardedEngine& eng, const std::string& sql) {
  return SqlToPlan(sql, eng.Snapshot()->shards[0]->engine.db()).value();
}

size_t ShardRows(const ShardedEngine& eng, size_t shard,
                 const std::string& table) {
  return (*eng.Snapshot()->shards[shard]->engine.db().GetTable(table))
      ->NumRows();
}

TEST(ShardedEngineTest, SamplingKeyReachableRelationsArePartitioned) {
  ShardedEngine eng(MakeLogVideoDb(), 4);
  SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
  ShardedSnapshotPtr snap = eng.Snapshot();
  // The sampling key (videoId) reaches both join inputs as a scan filter,
  // so both relations partition by it; no pins.
  EXPECT_TRUE(snap->meta->IsPartitionedRelation("Log"));
  EXPECT_TRUE(snap->meta->IsPartitionedRelation("Video"));
  EXPECT_TRUE(snap->meta->IsPartitionedView("visitView"));
  EXPECT_TRUE(snap->meta->replicated_pins.empty());
  // Partitioning is a partition: every row lives on exactly one shard.
  size_t log_rows = 0;
  size_t video_rows = 0;
  for (size_t s = 0; s < 4; ++s) {
    log_rows += ShardRows(eng, s, "Log");
    video_rows += ShardRows(eng, s, "Video");
  }
  EXPECT_EQ(log_rows, 10u);
  EXPECT_EQ(video_rows, 5u);
  // The gathered logical view matches an unsharded engine's view.
  SvcEngine replica(MakeLogVideoDb());
  SVC_ASSERT_OK(
      replica.CreateView("visitView", SqlToPlan(kVisitViewSql,
                                                *replica.db())
                                          .value()));
  SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> gathered,
                           eng.GatherTable(*snap, "visitView"));
  EXPECT_EQ(EncodedRows(*gathered),
            EncodedRows(**replica.db()->GetTable("visitView")));
}

TEST(ShardedEngineTest, BlockedSamplingKeyFallsBackToReplicatedClass) {
  ShardedEngine eng(MakeLogVideoDb(), 3);
  SVC_ASSERT_OK(eng.CreateView("blockedView", PlanOf(eng, kBlockedViewSql)));
  ShardedSnapshotPtr snap = eng.Snapshot();
  EXPECT_FALSE(snap->meta->IsPartitionedView("blockedView"));
  EXPECT_FALSE(snap->meta->IsPartitionedRelation("Log"));
  auto pin = snap->meta->replicated_pins.find("Log");
  ASSERT_NE(pin, snap->meta->replicated_pins.end());
  EXPECT_EQ(pin->second.count("blockedView"), 1u);
  // Every shard holds the full relation and the identical full view.
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(ShardRows(eng, s, "Log"), 10u);
    EXPECT_EQ(EncodedRows(
                  **snap->shards[s]->engine.db().GetTable("blockedView")),
              EncodedRows(
                  **snap->shards[0]->engine.db().GetTable("blockedView")));
  }
  // Replicated-class answers equal an unsharded replica's, bit for bit.
  SvcEngine replica(MakeLogVideoDb());
  SVC_ASSERT_OK(replica.CreateView(
      "blockedView", SqlToPlan(kBlockedViewSql, *replica.db()).value()));
  const Row delta{Value::Int(100), Value::Int(3)};
  SVC_ASSERT_OK(eng.InsertRecord("Log", delta));
  SVC_ASSERT_OK(replica.InsertRecord("Log", delta));
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("c"));
  SvcQueryOptions opts;
  opts.ratio = 1.0;
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer got,
                           eng.Query(*eng.Snapshot(), "blockedView", q, opts));
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer want,
                           replica.Query("blockedView", q, opts));
  EXPECT_EQ(got.estimate.value, want.estimate.value);
  EXPECT_EQ(got.estimate.ci_low, want.estimate.ci_low);
  EXPECT_EQ(got.estimate.ci_high, want.estimate.ci_high);
  EXPECT_EQ(got.estimate.sample_rows, want.estimate.sample_rows);
}

TEST(ShardedEngineTest, ConflictingPlacementDemandsFailCleanly) {
  {
    // A replicated pin blocks a later partitioning demand.
    ShardedEngine eng(MakeLogVideoDb(), 2);
    SVC_ASSERT_OK(eng.CreateView("blockedView", PlanOf(eng, kBlockedViewSql)));
    const uint64_t version = eng.version();
    Status st = eng.CreateView("visitView", PlanOf(eng, kVisitViewSql));
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("replicated"), std::string::npos);
    EXPECT_NE(st.ToString().find("blockedView"), std::string::npos);
    EXPECT_EQ(eng.version(), version) << "failed DDL must publish nothing";
  }
  {
    // A partitioned relation blocks a later replicated demand...
    ShardedEngine eng(MakeLogVideoDb(), 2);
    SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
    Status st = eng.CreateView("blockedView", PlanOf(eng, kBlockedViewSql));
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("hash-partitioned"), std::string::npos);
    // ...and so does a view demanding a different partitioning key.
    Status st2 = eng.CreateView(
        "sessionView",
        PlanOf(eng, "SELECT sessionId, COUNT(1) AS c FROM Log "
                    "GROUP BY sessionId"));
    ASSERT_FALSE(st2.ok());
    EXPECT_NE(st2.ToString().find("different key"), std::string::npos);
    // The engine stays fully serviceable after the rejected DDL.
    SVC_ASSERT_OK_AND_ASSIGN(
        SvcAnswer ans,
        eng.Query(*eng.Snapshot(), "visitView",
                  AggregateQuery::Sum(Expr::Col("visitCount")), {}));
    EXPECT_GT(ans.estimate.sample_rows, 0u);
  }
  {
    // Two views demanding the same partitioning coexist.
    ShardedEngine eng(MakeLogVideoDb(), 2);
    SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
    SVC_ASSERT_OK(eng.CreateView(
        "videoView",
        PlanOf(eng, "SELECT videoId, COUNT(1) AS c FROM Log "
                    "GROUP BY videoId")));
    EXPECT_TRUE(eng.Snapshot()->meta->IsPartitionedView("videoView"));
  }
}

TEST(ShardedEngineTest, RefreshCommitsShardsIndependentlyAndCountsLogically) {
  ShardedEngine eng(MakeLogVideoDb(), 4);
  SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
  SvcEngine replica(MakeLogVideoDb());
  SVC_ASSERT_OK(replica.CreateView(
      "visitView", SqlToPlan(kVisitViewSql, *replica.db()).value()));
  // Route a batch touching several shards, plus a delete.
  std::vector<Row> batch;
  for (int64_t i = 0; i < 8; ++i) {
    batch.push_back({Value::Int(100 + i), Value::Int(1 + i % 4)});
  }
  SVC_ASSERT_OK(eng.InsertRows("Log", std::vector<Row>(batch)));
  for (const Row& r : batch) SVC_ASSERT_OK(replica.InsertRecord("Log", r));
  const Row doomed{Value::Int(0), Value::Int(1)};
  SVC_ASSERT_OK(eng.DeleteRows("Log", {doomed}));
  SVC_ASSERT_OK(replica.DeleteRecord("Log", doomed));

  ShardedSnapshotPtr stale = eng.Snapshot();
  size_t ins = 0;
  size_t del = 0;
  eng.PendingCounts(*stale, &ins, &del);
  EXPECT_EQ(ins, 8u);
  EXPECT_EQ(del, 1u);
  EXPECT_EQ(eng.PendingRowsFor(*stale, "Log"), 9u);

  size_t committed_ins = 0;
  size_t committed_del = 0;
  SVC_ASSERT_OK(eng.Refresh(&committed_ins, &committed_del));
  SVC_ASSERT_OK(replica.MaintainAll());
  EXPECT_EQ(committed_ins, 8u);
  EXPECT_EQ(committed_del, 1u);
  ShardedSnapshotPtr fresh = eng.Snapshot();
  eng.PendingCounts(*fresh, &ins, &del);
  EXPECT_EQ(ins + del, 0u);
  // The maintained logical view matches the unsharded replica's.
  SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> gathered,
                           eng.GatherTable(*fresh, "visitView"));
  EXPECT_EQ(EncodedRows(*gathered),
            EncodedRows(**replica.db()->GetTable("visitView")));
  // A reader holding the pre-refresh cut still sees its pending deltas.
  EXPECT_EQ(eng.PendingRowsFor(*stale, "Log"), 9u);
}

TEST(ShardedEngineTest, KeyedWritesProbeShardsWithoutGathering) {
  // The TPCD join view partitions lineitem and orders by order key. After
  // a REFRESH every shard part is new, so any write that read the logical
  // relation would rebuild a cross-shard merge.
  TpcdConfig cfg;
  cfg.scale_factor = 0.002;
  SVC_ASSERT_OK_AND_ASSIGN(Database db, GenerateTpcdDatabase(cfg));
  auto eng = std::make_shared<ShardedEngine>(std::move(db), 4);
  SVC_ASSERT_OK(eng->CreateView("join_view", TpcdJoinViewDef(),
                                TpcdJoinViewSamplingKey()));
  ASSERT_TRUE(eng->Snapshot()->meta->IsPartitionedRelation("lineitem"));
  ASSERT_TRUE(eng->Snapshot()->meta->IsPartitionedRelation("orders"));
  SqlSession session(EngineHandle::Sharded(eng));
  auto run = [&](const std::string& sql) {
    auto r = session.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->message : std::string();
  };
  run("DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1");
  run("REFRESH ALL");

  const uint64_t before = eng->CoordinatorGathersBuilt();
  EXPECT_EQ(run("INSERT INTO orders VALUES "
                "(900001, 1, 'O', 10.5, 19950101, '1-URGENT')"),
            "queued 1 insert(s) into orders; REFRESH commits them");
  // The committed-key check finds (2, 1) through the shards' key indexes.
  auto dup = session.Execute(
      "INSERT INTO lineitem VALUES "
      "(2, 1, 1, 1, 5, 100.0, 0.05, 'N', 'AIR', 19950201)");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("of a committed row"),
            std::string::npos)
      << dup.status().ToString();
  EXPECT_EQ(run("INSERT INTO lineitem VALUES "
                "(900001, 1, 1, 1, 5, 100.0, 0.05, 'N', 'AIR', 19950201)"),
            "queued 1 insert(s) into lineitem; REFRESH commits them");
  EXPECT_EQ(run("DELETE FROM lineitem WHERE (l_orderkey = 2 AND "
                "l_linenumber = 1) OR (l_orderkey = 3 AND l_linenumber = 1)"),
            "queued 2 delete(s) from lineitem; REFRESH commits them");
  EXPECT_EQ(run("DELETE FROM orders WHERE o_orderkey = 4"),
            "queued 1 delete(s) from orders; REFRESH commits them");
  EXPECT_EQ(eng->CoordinatorGathersBuilt(), before);

  // A DELETE that names no key scans the logical relation: one merge.
  run("DELETE FROM lineitem WHERE l_quantity > 49");
  EXPECT_EQ(eng->CoordinatorGathersBuilt(), before + 1);
}

TEST(ShardedEngineTest, SvcReadsAddShardMomentsWithoutGathering) {
  // After a REFRESH every shard part is new, so any read that needed the
  // logical view would rebuild a cross-shard merge. Sum, count and avg add
  // the shards' exact moments instead; only a median still gathers.
  TpcdConfig cfg;
  cfg.scale_factor = 0.002;
  SVC_ASSERT_OK_AND_ASSIGN(Database db, GenerateTpcdDatabase(cfg));
  auto eng = std::make_shared<ShardedEngine>(std::move(db), 4);
  SVC_ASSERT_OK(eng->CreateView("join_view", TpcdJoinViewDef(),
                                TpcdJoinViewSamplingKey()));
  ASSERT_TRUE(eng->Snapshot()->meta->IsPartitionedView("join_view"));
  SqlSession session(EngineHandle::Sharded(eng));
  auto run = [&](const std::string& sql) {
    auto r = session.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  run("DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1");
  run("REFRESH ALL");
  run("DELETE FROM lineitem WHERE l_orderkey = 2 AND l_linenumber = 1");

  const uint64_t before = eng->CoordinatorGathersBuilt();
  const std::string rev = "l_extendedprice * (1 - l_discount)";
  for (const std::string& agg :
       {"SUM(" + rev + ")", std::string("COUNT(l_quantity)"),
        std::string("COUNT(*)"), std::string("AVG(l_discount)")}) {
    run("SELECT " + agg + " FROM join_view WITH SVC(ratio=0.2, mode=corr)");
    run("SELECT l_shipmode, " + agg +
        " FROM join_view GROUP BY l_shipmode WITH SVC(ratio=0.2, mode=corr)");
  }
  run("SELECT COUNT(*) FROM join_view WITH SVC(ratio=0.2, mode=auto)");
  run("SHOW MAINTENANCE");
  EXPECT_EQ(eng->CoordinatorGathersBuilt(), before);

  run("SELECT MEDIAN(l_discount) FROM join_view "
      "WITH SVC(ratio=0.2, mode=corr)");
  EXPECT_EQ(eng->CoordinatorGathersBuilt(), before + 1);
}

// ---- Concurrency stress (the TSan target) ----------------------------------
//
// One writer session runs rounds of INSERT + REFRESH while reader sessions
// continuously issue SVC SELECTs over the same 4-shard engine. Every
// statement publishes one atomic cut, so each reader answer must be
// byte-identical to one of the answers a sequential replay produces at
// some published state — an answer matching no state is a torn cut.

constexpr int kShards = 4;
constexpr int kReaders = 4;
constexpr int kRounds = 8;
constexpr int kBatch = 25;
constexpr int64_t kInitialRows = 400;
constexpr int kStressGroups = 6;

constexpr char kStressQuery[] =
    "SELECT SUM(sv) AS x FROM V WHERE c > 2 "
    "WITH SVC(ratio=0.5, mode=corr)";

std::string InsertBatchSql(int round) {
  Rng rng(0x5eed0000u + static_cast<uint64_t>(round));
  std::string sql = "INSERT INTO F VALUES ";
  for (int i = 0; i < kBatch; ++i) {
    const int64_t id = kInitialRows + round * kBatch + i;
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(id) + ", " +
           std::to_string(rng.UniformInt(1, kStressGroups)) + ", " +
           std::to_string(rng.UniformInt(0, 1000)) + ")";
  }
  return sql;
}

/// Builds a session over a fresh 4-shard engine loaded with the stress
/// schema: F committed, V materialized over it.
std::unique_ptr<SqlSession> BuildStressSession(
    std::shared_ptr<ShardedEngine>* out_engine) {
  auto eng = std::make_shared<ShardedEngine>(Database(), kShards);
  auto session = std::make_unique<SqlSession>(EngineHandle::Sharded(eng));
  EXPECT_TRUE(
      session->Execute("CREATE TABLE F (id INT, g INT, v INT, "
                       "PRIMARY KEY (id));")
          .ok());
  Rng rng(11);
  std::string load = "INSERT INTO F VALUES ";
  for (int64_t id = 0; id < kInitialRows; ++id) {
    if (id > 0) load += ", ";
    load += "(" + std::to_string(id) + ", " +
            std::to_string(rng.UniformInt(1, kStressGroups)) + ", " +
            std::to_string(rng.UniformInt(0, 1000)) + ")";
  }
  EXPECT_TRUE(session->Execute(load).ok());
  EXPECT_TRUE(session->Execute("REFRESH ALL;").ok());
  EXPECT_TRUE(session
                  ->Execute("CREATE MATERIALIZED VIEW V AS "
                            "SELECT g, COUNT(1) AS c, SUM(v) AS sv "
                            "FROM F GROUP BY g;")
                  .ok());
  if (out_engine != nullptr) *out_engine = eng;
  return session;
}

std::string AnswerBytes(const SqlResult& r) {
  std::string out;
  for (size_t i = 0; i < r.rows.NumRows(); ++i) {
    for (const Value& v : r.rows.row(i)) out += v.ToString() + "|";
  }
  return out;
}

TEST(ShardedEngineTest, ConcurrentReadersOnlyObservePublishedCuts) {
  // Sequential replay: the set of legal answers, one per published state.
  std::set<std::string> legal;
  {
    auto replay = BuildStressSession(nullptr);
    SVC_ASSERT_OK_AND_ASSIGN(SqlResult r0, replay->Execute(kStressQuery));
    legal.insert(AnswerBytes(r0));
    for (int round = 0; round < kRounds; ++round) {
      SVC_ASSERT_OK(replay->Execute(InsertBatchSql(round)).status());
      SVC_ASSERT_OK_AND_ASSIGN(SqlResult ri, replay->Execute(kStressQuery));
      legal.insert(AnswerBytes(ri));
      SVC_ASSERT_OK(replay->Execute("REFRESH ALL;").status());
      SVC_ASSERT_OK_AND_ASSIGN(SqlResult rr, replay->Execute(kStressQuery));
      legal.insert(AnswerBytes(rr));
    }
  }

  std::shared_ptr<ShardedEngine> eng;
  auto writer = BuildStressSession(&eng);
  std::vector<std::thread> readers;
  std::vector<int> reader_failures(kReaders, 0);
  std::vector<int> reader_queries(kReaders, 0);
  std::atomic<bool> done{false};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      SqlSession session(EngineHandle::Sharded(eng));
      // One guaranteed query after the writer finishes (the writer may
      // outpace a slow-starting reader), plus as many as fit during the
      // race window itself.
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load(std::memory_order_acquire);
        auto got = session.Execute(kStressQuery);
        if (!got.ok()) {
          ++reader_failures[r];
          continue;
        }
        ++reader_queries[r];
        if (legal.count(AnswerBytes(*got)) == 0) ++reader_failures[r];
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    SVC_ASSERT_OK(writer->Execute(InsertBatchSql(round)).status());
    SVC_ASSERT_OK(writer->Execute("REFRESH ALL;").status());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(reader_failures[r], 0) << "reader " << r << " saw an answer "
                                     << "matching no published state";
    EXPECT_GT(reader_queries[r], 0) << "reader " << r << " never ran";
  }
}

TEST(ShardedEngineTest, ConcurrentWritersSerializeValidationAndCommit) {
  // Two sessions insert disjoint id ranges concurrently: the
  // validate-then-commit critical section (WithStatementLock) must make
  // every batch land exactly once, with no key check racing a commit.
  std::shared_ptr<ShardedEngine> eng;
  auto setup = BuildStressSession(&eng);
  constexpr int kWriterRounds = 12;
  constexpr int kPerRound = 10;
  auto write = [&](int64_t base) {
    SqlSession session(EngineHandle::Sharded(eng));
    for (int round = 0; round < kWriterRounds; ++round) {
      std::string sql = "INSERT INTO F VALUES ";
      for (int i = 0; i < kPerRound; ++i) {
        const int64_t id = base + round * kPerRound + i;
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(id) + ", 1, 5)";
      }
      auto r = session.Execute(sql);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (round % 4 == 3) {
        auto ref = session.Execute("REFRESH ALL;");
        EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      }
    }
  };
  std::thread a(write, int64_t{10000});
  std::thread b(write, int64_t{20000});
  a.join();
  b.join();
  SVC_ASSERT_OK(setup->Execute("REFRESH ALL;").status());
  // Every row landed exactly once (PK uniqueness would reject a double
  // commit; a lost batch would shrink the count).
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult all, setup->Execute("SELECT id FROM F;"));
  EXPECT_EQ(all.rows.NumRows(),
            static_cast<size_t>(kInitialRows + 2 * kWriterRounds * kPerRound));
}

}  // namespace
}  // namespace svc
