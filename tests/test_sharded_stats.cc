// Regression for the sharded SHOW STATS over-count: cache counters and the
// delta version must be logical, per-statement quantities — one
// scatter-gather query is one hit/miss/clean, and the delta version counts
// logical rows queued plus one per refresh, exactly like an unsharded
// engine's pending queue — so the whole SHOW STATS (and SHOW MAINTENANCE)
// relation comes back bit-identical at every shard count, and the delta
// version matches a shared engine's. Before the fix, counters and the
// version summed across shards, so the same statement stream reported 4x
// the activity at --shards 4; later the version was the coordinator's
// publish counter, which no unsharded engine reports.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace svc {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};

SqlResult MustRun(SqlSession* session, const std::string& sql) {
  auto r = session->Execute(sql);
  if (!r.ok()) {
    ADD_FAILURE() << r.status().ToString() << "\nSQL: " << sql;
    return SqlResult();
  }
  return std::move(r).value();
}

/// Asserts two relations are identical cell-for-cell (all columns here are
/// strings/ints/doubles produced deterministically).
void ExpectSameRows(const SqlResult& got, const SqlResult& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows.schema().NumColumns(), want.rows.schema().NumColumns())
      << what;
  ASSERT_EQ(got.rows.NumRows(), want.rows.NumRows()) << what;
  for (size_t i = 0; i < want.rows.NumRows(); ++i) {
    for (size_t c = 0; c < want.rows.schema().NumColumns(); ++c) {
      EXPECT_TRUE(got.rows.row(i)[c] == want.rows.row(i)[c])
          << what << " row " << i << " col "
          << want.rows.schema().column(c).name << ": "
          << got.rows.row(i)[c].ToString() << " vs "
          << want.rows.row(i)[c].ToString();
    }
  }
}

/// The statement stream every shard count replays: DDL, committed load,
/// view, pending deltas, serving queries (these move the cache counters),
/// a refresh, and more queries.
const char* kScript[] = {
    "CREATE TABLE F (id INT, g INT, v DOUBLE, PRIMARY KEY (id))",
    "INSERT INTO F VALUES (0, 1, 1.5), (1, 2, 2.5), (2, 1, 3.5), "
    "(3, 3, 4.5), (4, 2, 5.5), (5, 1, 6.5), (6, 3, 7.5), (7, 2, 8.5)",
    "REFRESH ALL",
    "CREATE MATERIALIZED VIEW V AS "
    "SELECT g, COUNT(1) AS c, SUM(v) AS sv FROM F GROUP BY g",
    "INSERT INTO F VALUES (8, 1, 9.5), (9, 3, 10.5), (10, 2, 11.5)",
    "SELECT COUNT(1) AS x FROM V WITH SVC(ratio=0.5, mode=corr)",
    "SELECT SUM(sv) AS x FROM V WITH SVC(ratio=0.5, mode=corr)",
    "SELECT SUM(sv) AS x FROM V WITH SVC(ratio=0.5, mode=corr)",
    "INSERT INTO F VALUES (11, 1, 12.5)",
    "SELECT COUNT(1) AS x FROM V WITH SVC(ratio=0.5, mode=aqp)",
    "SET MAINTENANCE POLICY (mode=auto, budget=0.25, sla_ms=2000)",
    "REFRESH ALL",
    "SELECT COUNT(1) AS x FROM V WITH SVC(ratio=0.5, mode=corr)",
};

TEST(ShardedStatsTest, ShowStatsIsShardCountInvariant) {
  std::vector<SqlResult> stats;
  std::vector<SqlResult> maintenance;
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SqlSession session(EngineHandle::Sharded(
        std::make_shared<ShardedEngine>(Database(), shards)));
    for (const char* sql : kScript) MustRun(&session, sql);
    stats.push_back(MustRun(&session, "SHOW STATS"));
    maintenance.push_back(MustRun(&session, "SHOW MAINTENANCE"));
  }
  for (size_t i = 1; i < stats.size(); ++i) {
    SCOPED_TRACE("shards=" + std::to_string(kShardCounts[i]) + " vs shards=1");
    ExpectSameRows(stats[i], stats[0], "SHOW STATS");
    ExpectSameRows(maintenance[i], maintenance[0], "SHOW MAINTENANCE");
  }

  // Spot-check the logical meaning at shards=1 so invariance can't be
  // satisfied by everything being zero: three cached-serving queries ran
  // before the refresh against the same pending state — the first cleans,
  // the later ones hit or advance.
  const SqlResult& s = stats[0];
  ASSERT_EQ(s.rows.NumRows(), 1u);
  const int64_t hits = s.rows.row(0)[1].AsInt();
  const int64_t misses = s.rows.row(0)[2].AsInt();
  EXPECT_GT(hits + misses, 0);
  EXPECT_EQ(s.rows.row(0)[5].AsInt(), 0);  // refreshed: nothing pending
}

TEST(ShardedStatsTest, DeltaVersionMatchesSharedEngine) {
  // The delta_version column is the pending queue's logical mutation
  // counter on every engine: each sharded session must report exactly what
  // a shared-engine session reports after the same statement stream.
  SqlSession shared(
      EngineHandle::Shared(std::make_shared<SharedEngine>(Database())));
  for (const char* sql : kScript) MustRun(&shared, sql);
  const SqlResult want = MustRun(&shared, "SHOW STATS");
  ASSERT_EQ(want.rows.NumRows(), 1u);
  EXPECT_EQ(want.rows.schema().column(6).name, "delta_version");
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SqlSession session(EngineHandle::Sharded(
        std::make_shared<ShardedEngine>(Database(), shards)));
    for (const char* sql : kScript) MustRun(&session, sql);
    const SqlResult got = MustRun(&session, "SHOW STATS");
    ASSERT_EQ(got.rows.NumRows(), 1u);
    EXPECT_EQ(got.rows.row(0)[6].AsInt(), want.rows.row(0)[6].AsInt());
  }
}

TEST(ShardedStatsTest, PendingRowsCountLogicalRowsOnce) {
  // Partitioned base rows land on different shards; the view's
  // pending_rows column must still report the logical batch size at every
  // shard count (summing per-shard queues double-counts nothing, but
  // replicated relations would repeat per shard — this pins the contract).
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SqlSession session(EngineHandle::Sharded(
        std::make_shared<ShardedEngine>(Database(), shards)));
    MustRun(&session,
            "CREATE TABLE F (id INT, v DOUBLE, PRIMARY KEY (id))");
    MustRun(&session, "REFRESH ALL");
    MustRun(&session,
            "CREATE MATERIALIZED VIEW V AS "
            "SELECT id, SUM(v) AS sv FROM F GROUP BY id");
    MustRun(&session,
            "INSERT INTO F VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), "
            "(5, 5.0)");
    SqlResult stats = MustRun(&session, "SHOW STATS");
    ASSERT_EQ(stats.rows.NumRows(), 1u);
    EXPECT_EQ(stats.rows.row(0)[5].AsInt(), 5);  // pending_rows, once each
  }
}

}  // namespace
}  // namespace svc
