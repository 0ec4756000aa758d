#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "sql/planner.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace svc {
namespace {

using testing_util::MakeLogVideoDb;

constexpr char kVisitViewSql[] =
    "CREATE MATERIALIZED VIEW visitView AS "
    "SELECT Log.videoId, COUNT(1) AS visitCount "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.videoId";

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : session_(EngineHandle::Private(MakeLogVideoDb())) {}

  SqlResult Run(const std::string& sql) {
    auto r = session_.Execute(sql);
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString() << "\nSQL: " << sql;
      return SqlResult();
    }
    return std::move(r).value();
  }

  Status Fail(const std::string& sql) {
    auto r = session_.Execute(sql);
    EXPECT_FALSE(r.ok()) << "expected failure for: " << sql;
    return r.ok() ? Status::OK() : r.status();
  }

  SqlSession session_;
};

// ---- Lifecycle -------------------------------------------------------------

TEST_F(SessionTest, FullLifecycle) {
  SqlResult created = Run(kVisitViewSql);
  EXPECT_NE(created.message.find("visitView"), std::string::npos);

  // Ingest deltas: the view goes stale but keeps its old contents.
  Run("INSERT INTO Log VALUES (100, 3), (101, 3), (102, 1)");
  EXPECT_TRUE(session_.engine().IsStale());
  SqlResult stale = Run("SELECT SUM(visitCount) AS s FROM visitView");
  EXPECT_EQ(stale.rows.row(0)[0].AsInt(), 10);

  // REFRESH commits; the view reflects the deltas exactly.
  Run("REFRESH VIEW visitView");
  EXPECT_FALSE(session_.engine().IsStale());
  SqlResult fresh = Run("SELECT SUM(visitCount) AS s FROM visitView");
  EXPECT_EQ(fresh.rows.row(0)[0].AsInt(), 13);
}

TEST_F(SessionTest, CreateTableInsertSelect) {
  Run("CREATE TABLE t (a INT, b DOUBLE, c STRING, PRIMARY KEY (a))");
  Run("INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3, 'y')");  // 3 widens
  Run("REFRESH ALL");
  SqlResult r = Run("SELECT a, b, c FROM t WHERE b > 2.6");
  ASSERT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.rows.row(0)[0].AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.rows.row(0)[1].AsDouble(), 3.0);
}

TEST_F(SessionTest, DeleteWhereQueuesCommittedRows) {
  Run(kVisitViewSql);
  SqlResult del = Run("DELETE FROM Log WHERE videoId = 3");
  EXPECT_NE(del.message.find("4 delete(s)"), std::string::npos);
  Run("REFRESH ALL");
  SqlResult r = Run("SELECT COUNT(1) AS c FROM Log");
  EXPECT_EQ(r.rows.row(0)[0].AsInt(), 6);
  // The aggregate view dropped the group.
  SqlResult v = Run("SELECT COUNT(1) AS c FROM visitView");
  EXPECT_EQ(v.rows.row(0)[0].AsInt(), 2);
}

TEST_F(SessionTest, ShowTablesAndViews) {
  Run(kVisitViewSql);
  SqlResult tables = Run("SHOW TABLES");
  EXPECT_EQ(tables.rows.NumRows(), 3u);  // Log, Video, visitView
  SqlResult views = Run("SHOW VIEWS");
  ASSERT_EQ(views.rows.NumRows(), 1u);
  EXPECT_EQ(views.rows.row(0)[0].AsString(), "visitView");
  EXPECT_EQ(views.rows.row(0)[2].AsString(), "aggregate");
  EXPECT_EQ(views.rows.row(0)[3].AsString(), "no");
  Run("INSERT INTO Log VALUES (100, 1)");
  SqlResult stale = Run("SHOW VIEWS");
  EXPECT_EQ(stale.rows.row(0)[3].AsString(), "yes");
}

// ---- SVC SELECT matches the direct engine API bit for bit ------------------

TEST_F(SessionTest, SvcSelectMatchesEngineQueryBitForBit) {
  Run(kVisitViewSql);
  Run("INSERT INTO Log VALUES (100, 3), (101, 3), (102, 2), (103, 1)");

  // Direct C++ path on an identically-prepared engine.
  SvcEngine direct(MakeLogVideoDb());
  SVC_ASSERT_OK_AND_ASSIGN(
      PlanPtr def,
      SqlToPlan("SELECT Log.videoId, COUNT(1) AS visitCount "
                "FROM Log, Video WHERE Log.videoId = Video.videoId "
                "GROUP BY Log.videoId",
                *direct.db()));
  SVC_ASSERT_OK(direct.CreateView("visitView", def));
  SVC_ASSERT_OK(direct.InsertRecord("Log", {Value::Int(100), Value::Int(3)}));
  SVC_ASSERT_OK(direct.InsertRecord("Log", {Value::Int(101), Value::Int(3)}));
  SVC_ASSERT_OK(direct.InsertRecord("Log", {Value::Int(102), Value::Int(2)}));
  SVC_ASSERT_OK(direct.InsertRecord("Log", {Value::Int(103), Value::Int(1)}));

  AggregateQuery q = AggregateQuery::Count(
      Expr::Gt(Expr::Col("visitCount"), Expr::LitInt(3)));
  SvcQueryOptions opts;
  opts.ratio = 0.5;
  opts.mode = EstimatorMode::kCorr;
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer expected,
                           direct.Query("visitView", q, opts));

  SqlResult got = Run(
      "SELECT COUNT(1) FROM visitView WHERE visitCount > 3 "
      "WITH SVC(ratio=0.5, mode=corr)");
  ASSERT_EQ(got.kind, SqlResultKind::kEstimate);
  ASSERT_EQ(got.rows.NumRows(), 1u);
  const Row& row = got.rows.row(0);
  EXPECT_EQ(row[0].AsDouble(), expected.estimate.value);
  ASSERT_TRUE(expected.estimate.has_ci);
  EXPECT_EQ(row[1].AsDouble(), expected.estimate.ci_low);
  EXPECT_EQ(row[2].AsDouble(), expected.estimate.ci_high);
  EXPECT_EQ(row[3].AsString(), "CORR");
  EXPECT_EQ(static_cast<size_t>(row[4].AsInt()),
            expected.estimate.sample_rows);

  // AQP mode too.
  opts.mode = EstimatorMode::kAqp;
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer aqp, direct.Query("visitView", q, opts));
  SqlResult got_aqp = Run(
      "SELECT COUNT(1) FROM visitView WHERE visitCount > 3 "
      "WITH SVC(ratio=0.5, mode=aqp)");
  EXPECT_EQ(got_aqp.rows.row(0)[0].AsDouble(), aqp.estimate.value);
  EXPECT_EQ(got_aqp.rows.row(0)[1].AsDouble(), aqp.estimate.ci_low);
  EXPECT_EQ(got_aqp.rows.row(0)[2].AsDouble(), aqp.estimate.ci_high);

  // Grouped variant matches QueryGrouped per group.
  AggregateQuery sum_q = AggregateQuery::Sum(Expr::Col("visitCount"));
  opts.mode = EstimatorMode::kCorr;
  SVC_ASSERT_OK_AND_ASSIGN(
      SvcGroupedAnswer grouped,
      direct.QueryGrouped("visitView", {"videoId"}, sum_q, opts));
  SqlResult got_grouped = Run(
      "SELECT videoId, SUM(visitCount) FROM visitView GROUP BY videoId "
      "WITH SVC(ratio=0.5, mode=corr)");
  ASSERT_EQ(got_grouped.rows.NumRows(), grouped.result.group_keys.size());
  for (size_t i = 0; i < got_grouped.rows.NumRows(); ++i) {
    const Row& gr = got_grouped.rows.row(i);
    const Estimate* e = grouped.result.Find(EncodeRowKey(gr, {0}));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(gr[1].AsDouble(), e->value);
  }
}

TEST_F(SessionTest, SvcAutoModePicksAnEstimator) {
  Run(kVisitViewSql);
  Run("INSERT INTO Log VALUES (100, 3)");
  SqlResult r = Run(
      "SELECT COUNT(1) FROM visitView WHERE visitCount > 3 "
      "WITH SVC(ratio=1.0, mode=auto)");
  EXPECT_TRUE(r.rows.row(0)[3].AsString() == "AQP" ||
              r.rows.row(0)[3].AsString() == "CORR");
}

TEST_F(SessionTest, SvcConfidenceOptionWidensInterval) {
  Run(kVisitViewSql);
  Run("INSERT INTO Log VALUES (100, 3), (101, 2), (102, 1), (103, 3)");
  SqlResult lo = Run(
      "SELECT SUM(visitCount) FROM visitView "
      "WITH SVC(ratio=0.5, mode=aqp, confidence=0.8)");
  SqlResult hi = Run(
      "SELECT SUM(visitCount) FROM visitView "
      "WITH SVC(ratio=0.5, mode=aqp, confidence=0.99)");
  const double lo_hw =
      lo.rows.row(0)[2].AsDouble() - lo.rows.row(0)[1].AsDouble();
  const double hi_hw =
      hi.rows.row(0)[2].AsDouble() - hi.rows.row(0)[1].AsDouble();
  EXPECT_LT(lo_hw, hi_hw);
}

// ---- Error paths (each asserts the actionable message text) ----------------

TEST_F(SessionTest, UnknownTableErrorsListKnownTables) {
  Status s = Fail("SELECT * FROM NoSuchTable");
  EXPECT_NE(s.message().find("no such table: NoSuchTable"),
            std::string::npos);
  EXPECT_NE(s.message().find("known tables:"), std::string::npos);
  EXPECT_NE(s.message().find("Log"), std::string::npos);

  Status ins = Fail("INSERT INTO Nope VALUES (1)");
  EXPECT_NE(ins.message().find("no such table: Nope"), std::string::npos);
}

TEST_F(SessionTest, RefreshUnknownViewListsKnownViews) {
  Status none = Fail("REFRESH VIEW ghost");
  EXPECT_NE(none.message().find("no such view: ghost"), std::string::npos);
  EXPECT_NE(none.message().find("no views have been created"),
            std::string::npos);

  Run(kVisitViewSql);
  Status some = Fail("REFRESH VIEW ghost");
  EXPECT_NE(some.message().find("known views: visitView"),
            std::string::npos);
}

TEST_F(SessionTest, MalformedSvcOptions) {
  Run(kVisitViewSql);
  Status unknown = Fail(
      "SELECT COUNT(1) FROM visitView WITH SVC(rate=0.5)");
  EXPECT_NE(unknown.message().find("unknown SVC option 'rate'"),
            std::string::npos);
  EXPECT_NE(unknown.message().find("ratio, mode, confidence"),
            std::string::npos);

  Status bad_mode = Fail(
      "SELECT COUNT(1) FROM visitView WITH SVC(mode=fast)");
  EXPECT_NE(bad_mode.message().find("mode must be aqp, corr, or auto"),
            std::string::npos);

  Status bad_ratio = Fail(
      "SELECT COUNT(1) FROM visitView WITH SVC(ratio=1.5)");
  EXPECT_NE(bad_ratio.message().find("ratio must be in (0, 1]"),
            std::string::npos);

  Status bad_conf = Fail(
      "SELECT COUNT(1) FROM visitView WITH SVC(confidence=1.0)");
  EXPECT_NE(bad_conf.message().find("confidence must be in (0, 1)"),
            std::string::npos);
}

TEST_F(SessionTest, NonAggregateSvcSelectRejected) {
  Run(kVisitViewSql);
  Status s = Fail("SELECT videoId FROM visitView WITH SVC(ratio=0.5)");
  EXPECT_NE(s.message().find("requires an aggregate select list"),
            std::string::npos);
  EXPECT_NE(s.message().find("drop WITH SVC"), std::string::npos);

  Status star = Fail("SELECT * FROM visitView WITH SVC(ratio=0.5)");
  EXPECT_NE(star.message().find("SELECT * cannot be combined with WITH SVC"),
            std::string::npos);
}

TEST_F(SessionTest, SvcOnBaseTableRejected) {
  Status s = Fail("SELECT COUNT(1) FROM Log WITH SVC(ratio=0.5)");
  EXPECT_NE(s.message().find("'Log' is a base table"), std::string::npos);
}

TEST_F(SessionTest, SvcOnJoinRejected) {
  Run(kVisitViewSql);
  Status s = Fail(
      "SELECT COUNT(1) FROM visitView v JOIN Video o ON v.videoId = "
      "o.videoId WITH SVC(ratio=0.5)");
  EXPECT_NE(s.message().find("exactly one materialized view"),
            std::string::npos);
}

TEST_F(SessionTest, CountDistinctNotSvcEstimable) {
  Run(kVisitViewSql);
  Status s = Fail(
      "SELECT COUNT(DISTINCT videoId) FROM visitView WITH SVC(ratio=0.5)");
  EXPECT_NE(s.message().find("count(DISTINCT ...)"), std::string::npos);
}

TEST_F(SessionTest, ExactAggregateErrorNamesAggregateAndQuery) {
  Run(kVisitViewSql);
  AggregateQuery q;
  q.func = AggFunc::kCountDistinct;
  q.attr = Expr::Col("videoId");
  auto r = session_.engine().QueryStale("visitView", q);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("count_distinct"), std::string::npos);
  EXPECT_NE(r.status().message().find("query: count_distinct(videoId)"),
            std::string::npos);
}

TEST_F(SessionTest, InsertArityAndTypeErrors) {
  Status arity = Fail("INSERT INTO Log VALUES (1, 2, 3)");
  EXPECT_NE(arity.message().find("expects 2 values (sessionId, videoId)"),
            std::string::npos);
  EXPECT_NE(arity.message().find("row 1 has 3"), std::string::npos);

  Status type = Fail("INSERT INTO Log VALUES (1, 'three')");
  EXPECT_NE(type.message().find("column 'videoId' expects int"),
            std::string::npos);
  EXPECT_NE(type.message().find("three"), std::string::npos);
  // Nothing was queued: the statement validates before ingesting.
  EXPECT_FALSE(session_.engine().IsStale());
}

TEST_F(SessionTest, RepeatedDeleteIsIdempotent) {
  Run(kVisitViewSql);
  // Two overlapping DELETEs before the REFRESH: the second must not queue
  // the same rows again (a double delete delta would double-count in the
  // change table and corrupt the aggregate view at REFRESH).
  SqlResult first = Run("DELETE FROM Log WHERE sessionId = 0");
  EXPECT_NE(first.message.find("queued 1 delete(s)"), std::string::npos);
  SqlResult second = Run("DELETE FROM Log WHERE videoId = 1");
  EXPECT_NE(second.message.find("queued 2 delete(s)"), std::string::npos);
  Run("REFRESH ALL");
  // Log had sessions {0,1,2} on video 1; all three deleted exactly once.
  SqlResult base = Run("SELECT COUNT(1) AS c FROM Log");
  EXPECT_EQ(base.rows.row(0)[0].AsInt(), 7);
  SqlResult view = Run(
      "SELECT SUM(visitCount) AS s FROM visitView");
  EXPECT_EQ(view.rows.row(0)[0].AsInt(), 7);
}

TEST_F(SessionTest, Int64MinLiteralRoundTrips) {
  Run("CREATE TABLE t (a INT, PRIMARY KEY (a))");
  Run("INSERT INTO t VALUES (-9223372036854775808), (9223372036854775807)");
  Run("REFRESH ALL");
  SqlResult r = Run("SELECT a FROM t WHERE a < 0");
  ASSERT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.rows.row(0)[0].AsInt(),
            std::numeric_limits<int64_t>::min());
}

TEST_F(SessionTest, OutOfRangeLiteralIsAnErrorNotACrash) {
  Status big_int = Fail(
      "INSERT INTO Log VALUES (99999999999999999999999, 1)");
  EXPECT_NE(big_int.message().find("integer literal out of range"),
            std::string::npos);
  const std::string huge(400, '9');
  Status big_double = Fail("INSERT INTO Log VALUES (1, " + huge + ".0)");
  EXPECT_NE(big_double.message().find("out of range"), std::string::npos);
  Status in_expr = Fail(
      "SELECT * FROM Log WHERE sessionId = 99999999999999999999999");
  EXPECT_NE(in_expr.message().find("out of range"), std::string::npos);
}

TEST_F(SessionTest, DuplicatePrimaryKeyInsertsRejectedUpFront) {
  // Against a committed row: queueing it would poison every later REFRESH.
  Status committed = Fail("INSERT INTO Log VALUES (0, 9)");
  EXPECT_NE(committed.message().find("duplicates the primary key"),
            std::string::npos);
  EXPECT_NE(committed.message().find("sessionId=0"), std::string::npos);
  EXPECT_FALSE(session_.engine().IsStale());

  // Within one statement: nothing from the batch may be queued.
  Status batch = Fail("INSERT INTO Log VALUES (100, 1), (100, 2)");
  EXPECT_NE(batch.message().find("this statement"), std::string::npos);
  EXPECT_FALSE(session_.engine().IsStale());

  // Against an already-pending insert.
  Run("INSERT INTO Log VALUES (100, 1)");
  Status pending = Fail("INSERT INTO Log VALUES (100, 2)");
  EXPECT_NE(pending.message().find("the pending deltas"), std::string::npos);

  // NULL primary keys never enter the queue.
  Status null_pk = Fail("INSERT INTO Log VALUES (NULL, 1)");
  EXPECT_NE(null_pk.message().find("NULL in primary-key column"),
            std::string::npos);

  // The update idiom stays legal: DELETE the committed row, re-INSERT it.
  Run("DELETE FROM Log WHERE sessionId = 0");
  Run("INSERT INTO Log VALUES (0, 2)");
  Run("REFRESH ALL");
  SqlResult r = Run("SELECT videoId FROM Log WHERE sessionId = 0");
  ASSERT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.rows.row(0)[0].AsInt(), 2);
}

TEST_F(SessionTest, InsertIntoViewRejected) {
  Run(kVisitViewSql);
  Status s = Fail("INSERT INTO visitView VALUES (9, 9)");
  EXPECT_NE(s.message().find("'visitView' is a materialized view"),
            std::string::npos);
}

TEST_F(SessionTest, CreateTableRequiresPrimaryKey) {
  Status s = Fail("CREATE TABLE t (a INT, b INT)");
  EXPECT_NE(s.message().find("PRIMARY KEY"), std::string::npos);
}

TEST_F(SessionTest, CreateDuplicateRejected) {
  Run(kVisitViewSql);
  Status dup_view = Fail(std::string(kVisitViewSql));
  EXPECT_NE(dup_view.message().find("view already exists"),
            std::string::npos);
  Status dup_table = Fail(
      "CREATE TABLE Log (sessionId INT, PRIMARY KEY (sessionId))");
  EXPECT_NE(dup_table.message().find("already exists"), std::string::npos);
}

TEST_F(SessionTest, SyntaxErrorsCarryContext) {
  Status stmt = Fail("FROBNICATE the database");
  EXPECT_NE(stmt.message().find("expected a statement"), std::string::npos);

  Status lit = Fail("INSERT INTO Log VALUES (1, SELECT)");
  EXPECT_NE(lit.message().find("expected a literal value"),
            std::string::npos);

  Status show = Fail("SHOW everything");
  EXPECT_NE(show.message().find("expected TABLES, VIEWS, STATS, or MAINTENANCE"),
            std::string::npos);
}

TEST_F(SessionTest, EscapedQuoteInStringLiteral) {
  Run("CREATE TABLE t (a INT, s STRING, PRIMARY KEY (a))");
  Run("INSERT INTO t VALUES (1, 'it''s'), (2, '''quoted''')");
  Run("REFRESH ALL");
  SqlResult r = Run("SELECT s FROM t WHERE s = 'it''s'");
  ASSERT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.rows.row(0)[0].AsString(), "it's");
  SqlResult q = Run("SELECT s FROM t WHERE a = 2");
  EXPECT_EQ(q.rows.row(0)[0].AsString(), "'quoted'");
}

TEST_F(SessionTest, FailedRefreshKeepsQueuedDeltas) {
  // Regression: a failed maintenance commit used to leave half-applied
  // state behind (view tables maintained, base commit aborted part-way).
  // MaintainAll is now transactional, so REFRESH either commits everything
  // or changes nothing — queued deltas are never dropped.
  Run(kVisitViewSql);
  Run("INSERT INTO Log VALUES (100, 3)");  // a valid queued delta
  // Poison the queue behind the session's validation: a second delta whose
  // primary key duplicates a committed row makes the base commit fail.
  SVC_ASSERT_OK(
      session_.engine().InsertRecord("Log", {Value::Int(0), Value::Int(2)}));
  const SqlResult before = Run("SELECT SUM(visitCount) AS s FROM visitView");

  Status st = Fail("REFRESH ALL");
  EXPECT_NE(st.ToString().find("duplicate primary key"), std::string::npos)
      << st.ToString();

  // Both queued deltas survive, the view is still stale with its old
  // contents, and the base table was not partially mutated.
  EXPECT_TRUE(session_.engine().IsStale());
  EXPECT_EQ(session_.engine().pending().TotalInserts(), 2u);
  const SqlResult after = Run("SELECT SUM(visitCount) AS s FROM visitView");
  EXPECT_EQ(after.rows.row(0)[0].AsInt(), before.rows.row(0)[0].AsInt());
  const SqlResult base = Run("SELECT COUNT(1) AS c FROM Log");
  EXPECT_EQ(base.rows.row(0)[0].AsInt(), 10);
}

TEST_F(SessionTest, SplitSqlScriptRespectsQuotesAndComments) {
  const std::vector<std::string> parts = SplitSqlScript(
      "-- header comment\n"
      "SELECT 1 FROM t; INSERT INTO s VALUES ('a;b');\n"
      "-- trailing comment only\n");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_NE(parts[0].find("SELECT 1 FROM t;"), std::string::npos);
  EXPECT_NE(parts[1].find("'a;b'"), std::string::npos);
}

}  // namespace
}  // namespace svc
