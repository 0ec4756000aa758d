// Randomized differential harness (ISSUE 4, extended by ISSUE 5): generate
// random schemas, committed loads, delta batches, and SVC queries; run them
// through the SQL serving path in every engine mode, through the direct C++
// Query/QueryGrouped API on a *private* engine, and through a third private
// engine with the cleaned-sample cache disabled, and assert the answers are
// bit-identical — per value, CI bound, estimator mode, and sample count — at
// num_threads ∈ {1, 4} and across snapshot epochs (before and after the
// maintenance commit). The SQL sessions run one statement path over a
// shared engine (the reference), a private engine, a durable engine and
// sharded engines at every count in kShardCounts; every statement's full
// SqlResult — kind, message, rows bit for bit — must match across them, and
// a fixed list of failing statements must fail with the same StatusCode and
// message in every mode. The cached engines advance their caches across
// ingest commits, so every assertion doubles as a cache-on vs cache-off
// identity check on the ingest→query→refresh loop.
//
// Every trial is deterministic from its seed; a failure's SCOPED_TRACE
// prints `seed=N round=R query="..."`, so a repro is
//   ./test_differential --gtest_filter='*Differential*'   (seed N fails
//   identically every run; edit kSeeds to bisect a single trial).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "core/svc.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "storage/durable_engine.h"
#include "tests/test_util.h"

namespace svc {
namespace {

/// %.17g: enough digits that parsing the literal back yields the exact
/// same double, so the SQL path and the direct path see identical values.
std::string Lit17(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One randomly generated workload: a fact table F(id, g, v), optionally a
/// dimension D(g, label) joined in the view, committed rows, and the view.
struct Workload {
  bool join_view = false;
  int groups = 4;
  std::vector<Row> fact_rows;               // committed F rows, in order
  std::map<int64_t, Row> committed_by_id;   // for DELETE mirroring
  std::string view_sql;                     // CREATE ... AS <view_sql>
};

Workload GenerateWorkload(Rng* rng) {
  Workload w;
  w.join_view = rng->UniformInt(0, 1) == 1;
  w.groups = static_cast<int>(rng->UniformInt(3, 6));
  const int64_t n = rng->UniformInt(40, 120);
  for (int64_t id = 0; id < n; ++id) {
    Row r{Value::Int(id), Value::Int(rng->UniformInt(1, w.groups)),
          Value::Double(static_cast<double>(rng->UniformInt(0, 1000)) / 16.0)};
    w.committed_by_id[id] = r;
    w.fact_rows.push_back(std::move(r));
  }
  w.view_sql = w.join_view
                   ? "SELECT F.g, COUNT(1) AS c, SUM(F.v) AS sv "
                     "FROM F, D WHERE F.g = D.g GROUP BY F.g"
                   : "SELECT g, COUNT(1) AS c, SUM(v) AS sv "
                     "FROM F GROUP BY g";
  return w;
}

Schema FactSchema() {
  return Schema({{"", "id", ValueType::kInt},
                 {"", "g", ValueType::kInt},
                 {"", "v", ValueType::kDouble}});
}

Schema DimSchema() {
  return Schema({{"", "g", ValueType::kInt}, {"", "label", ValueType::kInt}});
}

/// The dimension table has one row per group (so the join is lossless and
/// both view templates cover every fact row).
std::vector<Row> DimRows(int groups) {
  std::vector<Row> rows;
  for (int64_t g = 1; g <= groups; ++g) {
    rows.push_back({Value::Int(g), Value::Int(100 + g)});
  }
  return rows;
}

/// One random SVC query: SQL text plus the equivalent direct call.
struct RandomQuery {
  std::string sql;        // full statement incl. WITH SVC(...)
  AggregateQuery direct;  // the same query for SvcEngine::Query
  bool grouped = false;
  SvcQueryOptions opts;   // ratio/mode for the direct call
};

RandomQuery GenerateQuery(Rng* rng) {
  RandomQuery q;
  // Aggregate: sum/count/avg over the view's visible columns, with an
  // occasional median to push the (seeded) bootstrap through both paths.
  const int func = static_cast<int>(rng->UniformInt(0, 7));
  std::string agg_sql;
  const char* attr = rng->UniformInt(0, 1) == 0 ? "c" : "sv";
  if (func <= 2) {
    agg_sql = "COUNT(1)";
    q.direct.func = AggFunc::kCountStar;
  } else if (func <= 4) {
    agg_sql = std::string("SUM(") + attr + ")";
    q.direct.func = AggFunc::kSum;
    q.direct.attr = Expr::Col(attr);
  } else if (func <= 6) {
    agg_sql = std::string("AVG(") + attr + ")";
    q.direct.func = AggFunc::kAvg;
    q.direct.attr = Expr::Col(attr);
  } else {
    agg_sql = std::string("MEDIAN(") + attr + ")";
    q.direct.func = AggFunc::kMedian;
    q.direct.attr = Expr::Col(attr);
  }
  // Predicate: none, or an inequality on a visible column.
  std::string where;
  const int pred = static_cast<int>(rng->UniformInt(0, 2));
  if (pred == 1) {
    const int64_t lit = rng->UniformInt(1, 20);
    where = " WHERE c > " + std::to_string(lit);
    q.direct.predicate = Expr::Gt(Expr::Col("c"), Expr::LitInt(lit));
  } else if (pred == 2) {
    const double lit =
        static_cast<double>(rng->UniformInt(0, 16000)) / 16.0;
    where = " WHERE sv <= " + Lit17(lit);
    q.direct.predicate = Expr::Le(Expr::Col("sv"), Expr::LitDouble(lit));
  }
  q.grouped = rng->UniformInt(0, 2) == 0;
  const double ratios[] = {0.25, 0.5, 1.0};
  q.opts.ratio = ratios[rng->UniformInt(0, 2)];
  q.opts.mode = rng->UniformInt(0, 1) == 0 ? EstimatorMode::kAqp
                                           : EstimatorMode::kCorr;
  const char* mode_sql = q.opts.mode == EstimatorMode::kAqp ? "aqp" : "corr";
  const std::string svc = " WITH SVC(ratio=" + Lit17(q.opts.ratio) +
                          ", mode=" + mode_sql + ")";
  if (q.grouped) {
    q.sql = "SELECT g, " + agg_sql + " AS x FROM V" + where + " GROUP BY g" +
            svc;
  } else {
    q.sql = "SELECT " + agg_sql + " AS x FROM V" + where + svc;
  }
  return q;
}

/// Runs one SQL statement, failing the test on error.
SqlResult MustRun(SqlSession* session, const std::string& sql) {
  auto r = session->Execute(sql);
  if (!r.ok()) {
    ADD_FAILURE() << r.status().ToString() << "\nSQL: " << sql;
    return SqlResult();
  }
  return std::move(r).value();
}

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// A result's rows; kRows results (plain SELECT, SHOW) sorted by value. A
/// plain SELECT without ORDER BY has no defined row order, and a sharded
/// engine answers it over relations gathered in canonical key order, while
/// an unsharded table keeps its storage order.
std::vector<Row> ComparableRows(const SqlResult& r) {
  std::vector<Row> rows(r.rows.rows().begin(), r.rows.rows().end());
  if (r.kind == SqlResultKind::kRows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    });
  }
  return rows;
}

/// Asserts two statement results are identical: kind, message, estimator
/// mode, degraded flag, column names, and rows bit for bit (doubles by IEEE
/// bit pattern — the cross-mode contract is bitwise, not approximate).
void ExpectSameResult(const SqlResult& got, const SqlResult& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.message, want.message);
  EXPECT_EQ(got.mode_used, want.mode_used);
  EXPECT_EQ(got.degraded, want.degraded);
  ASSERT_EQ(got.rows.schema().NumColumns(), want.rows.schema().NumColumns());
  for (size_t c = 0; c < want.rows.schema().NumColumns(); ++c) {
    EXPECT_EQ(got.rows.schema().column(c).name,
              want.rows.schema().column(c).name);
  }
  const std::vector<Row> got_rows = ComparableRows(got);
  const std::vector<Row> want_rows = ComparableRows(want);
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (size_t i = 0; i < want_rows.size(); ++i) {
    for (size_t c = 0; c < want_rows[i].size(); ++c) {
      const Value& g = got_rows[i][c];
      const Value& w = want_rows[i][c];
      ASSERT_EQ(g.type(), w.type()) << "row " << i << " col " << c;
      if (w.type() == ValueType::kDouble) {
        EXPECT_EQ(BitsOf(g.AsDouble()), BitsOf(w.AsDouble()))
            << "row " << i << " col " << c << ": " << g.ToString() << " vs "
            << w.ToString();
      } else {
        EXPECT_TRUE(g == w) << "row " << i << " col " << c << ": "
                            << g.ToString() << " vs " << w.ToString();
      }
    }
  }
}

/// Asserts one estimate row (value, ci_low, ci_high, mode, sample_rows)
/// from the SQL result equals the direct Estimate bit-for-bit.
void ExpectEstimateRowEq(const Row& row, size_t first_col,
                         const Estimate& e, EstimatorMode mode) {
  EXPECT_EQ(row[first_col].AsDouble(), e.value);
  if (e.has_ci) {
    EXPECT_EQ(row[first_col + 1].AsDouble(), e.ci_low);
    EXPECT_EQ(row[first_col + 2].AsDouble(), e.ci_high);
  } else {
    EXPECT_TRUE(row[first_col + 1].is_null());
    EXPECT_TRUE(row[first_col + 2].is_null());
  }
  EXPECT_EQ(row[first_col + 3].AsString(),
            mode == EstimatorMode::kAqp ? "AQP" : "CORR");
  EXPECT_EQ(row[first_col + 4].AsInt(),
            static_cast<int64_t>(e.sample_rows));
}

/// Shard counts the sharded SQL lanes run at.
constexpr int kShardCounts[] = {1, 2, 4};

/// One SQL path under test: a session over one engine mode.
struct SqlLane {
  std::string mode;
  std::unique_ptr<SqlSession> session;
};

/// The differential set under test: the same logical engine state reached
/// through (a) SQL statements in every engine mode — lanes[0] on a
/// SharedEngine is the reference, then a private, a durable, and a sharded
/// lane per count in kShardCounts — (b) direct C++ calls on a private
/// SvcEngine, and (c) a cache-off private engine.
struct EnginePair {
  std::shared_ptr<SharedEngine> shared;
  std::vector<SqlLane> lanes;
  std::unique_ptr<SvcEngine> direct;   // private engine (cache on)
  std::unique_ptr<SvcEngine> nocache;  // private engine, cache disabled
  int64_t next_id = 0;
};

/// Runs one statement on every lane, asserting each lane's full result
/// equals the reference lane's; returns the reference result.
SqlResult RunOnAllSql(EnginePair* p, const std::string& sql) {
  SqlResult want = MustRun(p->lanes[0].session.get(), sql);
  for (size_t i = 1; i < p->lanes.size(); ++i) {
    SCOPED_TRACE(p->lanes[i].mode + " lane: " + sql);
    ExpectSameResult(MustRun(p->lanes[i].session.get(), sql), want);
  }
  return want;
}

/// Runs a statement that must fail on every lane, asserting each lane's
/// StatusCode and message equal the reference lane's.
void ExpectSameFailureOnAll(EnginePair* p, const std::string& sql) {
  SCOPED_TRACE(sql);
  auto want = p->lanes[0].session->Execute(sql);
  ASSERT_FALSE(want.ok()) << "expected an error";
  for (size_t i = 1; i < p->lanes.size(); ++i) {
    SCOPED_TRACE(p->lanes[i].mode + " lane");
    auto got = p->lanes[i].session->Execute(sql);
    ASSERT_FALSE(got.ok()) << "expected an error";
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

/// `data_dir` holds the durable lane's WAL and checkpoints.
EnginePair BuildPair(const Workload& w, const std::string& data_dir) {
  EnginePair p;
  // Direct path: tables built in memory, view over the committed state.
  Database db;
  Table fact(FactSchema());
  EXPECT_TRUE(fact.SetPrimaryKey({"id"}).ok());
  for (const Row& r : w.fact_rows) EXPECT_TRUE(fact.Insert(r).ok());
  EXPECT_TRUE(db.CreateTable("F", std::move(fact)).ok());
  Table dim(DimSchema());
  EXPECT_TRUE(dim.SetPrimaryKey({"g"}).ok());
  for (const Row& r : DimRows(w.groups)) EXPECT_TRUE(dim.Insert(r).ok());
  EXPECT_TRUE(db.CreateTable("D", std::move(dim)).ok());
  p.direct = std::make_unique<SvcEngine>(std::move(db));
  PlanPtr def = SqlToPlan(w.view_sql, *p.direct->db()).value();
  EXPECT_TRUE(p.direct->CreateView("V", std::move(def)).ok());
  // The cache-off control: an exact fork that always runs the full
  // cleaning pipeline. Any divergence from `direct` is a cache bug.
  p.nocache = std::make_unique<SvcEngine>(*p.direct);
  p.nocache->set_sample_cache_enabled(false);

  // SQL path: the identical state scripted as statements on a SharedEngine
  // (INSERT queues deltas; REFRESH ALL commits the initial load so the
  // view materializes over the same committed rows, in the same order).
  p.shared = std::make_shared<SharedEngine>(Database());
  auto add_lane = [&](std::string mode, EngineHandle handle) {
    p.lanes.push_back(
        {std::move(mode), std::make_unique<SqlSession>(std::move(handle))});
  };
  add_lane("shared", EngineHandle::Shared(p.shared));
  add_lane("private", EngineHandle::Private());
  DurableOptions dopts;
  dopts.data_dir = data_dir;
  dopts.wal.policy = FsyncPolicy::kOff;  // crash safety is not under test
  auto durable = DurableEngine::Open(dopts);
  EXPECT_TRUE(durable.ok()) << durable.status().ToString();
  if (durable.ok()) add_lane("durable", EngineHandle::Durable(*durable));
  for (int shards : kShardCounts) {
    add_lane(std::to_string(shards) + "-shard",
             EngineHandle::Sharded(
                 std::make_shared<ShardedEngine>(Database(), shards)));
  }
  RunOnAllSql(&p,
              "CREATE TABLE F (id INT, g INT, v DOUBLE, PRIMARY KEY (id))");
  RunOnAllSql(&p, "CREATE TABLE D (g INT, label INT, PRIMARY KEY (g))");
  std::string ins = "INSERT INTO F VALUES ";
  for (size_t i = 0; i < w.fact_rows.size(); ++i) {
    const Row& r = w.fact_rows[i];
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(r[0].AsInt()) + ", " +
           std::to_string(r[1].AsInt()) + ", " + Lit17(r[2].AsDouble()) + ")";
  }
  RunOnAllSql(&p, ins);
  std::string dins = "INSERT INTO D VALUES ";
  for (int g = 1; g <= w.groups; ++g) {
    if (g > 1) dins += ", ";
    dins += "(" + std::to_string(g) + ", " + std::to_string(100 + g) + ")";
  }
  RunOnAllSql(&p, dins);
  RunOnAllSql(&p, "REFRESH ALL");
  RunOnAllSql(&p, "CREATE MATERIALIZED VIEW V AS " + w.view_sql);
  p.next_id = static_cast<int64_t>(w.fact_rows.size());
  return p;
}

/// Mirrors one random delta batch into both engines: inserts with fresh
/// ids, deletes of still-committed ids (each id deleted at most once —
/// the SQL session skips re-queued deletes, the direct API would not).
void ApplyRandomDeltas(Rng* rng, const Workload& w, EnginePair* p,
                       std::map<int64_t, Row>* committed) {
  const int64_t n_ins = rng->UniformInt(3, 12);
  std::string ins = "INSERT INTO F VALUES ";
  for (int64_t i = 0; i < n_ins; ++i) {
    Row r{Value::Int(p->next_id++), Value::Int(rng->UniformInt(1, w.groups)),
          Value::Double(static_cast<double>(rng->UniformInt(0, 1000)) / 16.0)};
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(r[0].AsInt()) + ", " +
           std::to_string(r[1].AsInt()) + ", " + Lit17(r[2].AsDouble()) + ")";
    SVC_ASSERT_OK(p->nocache->InsertRecord("F", r));
    SVC_ASSERT_OK(p->direct->InsertRecord("F", std::move(r)));
  }
  RunOnAllSql(p, ins);

  const int64_t n_del = rng->UniformInt(0, 5);
  for (int64_t i = 0; i < n_del && !committed->empty(); ++i) {
    auto it = committed->begin();
    std::advance(it, static_cast<size_t>(rng->UniformInt(
                         0, static_cast<int64_t>(committed->size()) - 1)));
    RunOnAllSql(p, "DELETE FROM F WHERE id = " + std::to_string(it->first));
    SVC_ASSERT_OK(p->direct->DeleteRecord("F", it->second));
    SVC_ASSERT_OK(p->nocache->DeleteRecord("F", it->second));
    committed->erase(it);
  }
}

/// Runs `q` through every path at `num_threads` and asserts bit-identity.
void CheckQuery(const RandomQuery& q, EnginePair* p, int num_threads) {
  SCOPED_TRACE("threads=" + std::to_string(num_threads) +
               " query=\"" + q.sql + "\"");
  SvcQueryOptions opts = q.opts;
  opts.exec.num_threads = num_threads;
  opts.estimator.num_threads = num_threads;
  // The sessions inherit thread counts via their defaults; WITH SVC(...)
  // overrides ratio/mode per query, exactly like the direct opts.
  for (SqlLane& lane : p->lanes) lane.session->default_svc_options() = opts;

  SqlResult got = RunOnAllSql(p, q.sql);
  if (got.kind != SqlResultKind::kEstimate) return;  // MustRun already failed
  if (!q.grouped) {
    SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer want, p->direct->Query("V", q.direct,
                                                              opts));
    ASSERT_EQ(got.rows.NumRows(), 1u);
    EXPECT_EQ(got.mode_used, want.mode_used);
    ExpectEstimateRowEq(got.rows.row(0), 0, want.estimate, want.mode_used);
    // Cache-off control: the full cleaning pipeline, bit-for-bit.
    SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer cold,
                             p->nocache->Query("V", q.direct, opts));
    EXPECT_EQ(cold.mode_used, want.mode_used);
    EXPECT_EQ(cold.estimate.value, want.estimate.value);
    EXPECT_EQ(cold.estimate.ci_low, want.estimate.ci_low);
    EXPECT_EQ(cold.estimate.ci_high, want.estimate.ci_high);
    EXPECT_EQ(cold.estimate.sample_rows, want.estimate.sample_rows);
    return;
  }
  SVC_ASSERT_OK_AND_ASSIGN(
      SvcGroupedAnswer want,
      p->direct->QueryGrouped("V", {"g"}, q.direct, opts));
  SVC_ASSERT_OK_AND_ASSIGN(
      SvcGroupedAnswer cold,
      p->nocache->QueryGrouped("V", {"g"}, q.direct, opts));
  EXPECT_EQ(cold.mode_used, want.mode_used);
  ASSERT_EQ(cold.result.group_keys.size(), want.result.group_keys.size());
  for (size_t k = 0; k < want.result.group_keys.size(); ++k) {
    EXPECT_TRUE(cold.result.group_keys[k][0] == want.result.group_keys[k][0]);
    EXPECT_EQ(cold.result.estimates[k].value, want.result.estimates[k].value);
    EXPECT_EQ(cold.result.estimates[k].ci_low,
              want.result.estimates[k].ci_low);
    EXPECT_EQ(cold.result.estimates[k].ci_high,
              want.result.estimates[k].ci_high);
    EXPECT_EQ(cold.result.estimates[k].sample_rows,
              want.result.estimates[k].sample_rows);
  }
  ASSERT_EQ(got.rows.NumRows(), want.result.group_keys.size());
  // The SQL result is sorted by group key; match each row to its group.
  for (size_t i = 0; i < got.rows.NumRows(); ++i) {
    const Row& row = got.rows.row(i);
    size_t gi = want.result.group_keys.size();
    for (size_t k = 0; k < want.result.group_keys.size(); ++k) {
      if (want.result.group_keys[k][0] == row[0]) {
        gi = k;
        break;
      }
    }
    ASSERT_LT(gi, want.result.group_keys.size())
        << "group " << row[0].ToString() << " missing from the direct answer";
    ExpectEstimateRowEq(row, 1, want.result.estimates[gi], want.mode_used);
  }
}

/// Statements that must fail identically in every mode, given one id with a
/// pending insert and one committed id not queued for deletion.
std::vector<std::string> FailingStatements(int64_t pending_id,
                                           int64_t committed_id) {
  const std::string pending = std::to_string(pending_id);
  const std::string committed = std::to_string(committed_id);
  return {
      "INSERT INTO F VALUES (" + pending + ", 1, 1.5)",
      "INSERT INTO F VALUES (" + committed + ", 1, 1.5)",
      "INSERT INTO F VALUES (999999, 1, 1.5), (999999, 2, 2.5)",
      "INSERT INTO F VALUES (NULL, 1, 1.5)",
      "INSERT INTO F VALUES (999999, 1)",
      "INSERT INTO F VALUES (999999, 'x', 1.5)",
      "INSERT INTO V VALUES (1, 2, 3.5)",
      "DELETE FROM V",
      "DELETE FROM __ins_F",
      "INSERT INTO Nope VALUES (1)",
      "DELETE FROM Nope WHERE id = 1",
      "SELECT COUNT(1) FROM Nope WITH SVC(ratio=0.5)",
      "REFRESH VIEW Nope",
      "CREATE TABLE F (id INT, PRIMARY KEY (id))",
      "CREATE TABLE G (id INT)",
      "CREATE MATERIALIZED VIEW V AS SELECT g, COUNT(1) AS c FROM F "
      "GROUP BY g",
      "CREATE MATERIALIZED VIEW D AS SELECT g, COUNT(1) AS c FROM F "
      "GROUP BY g",
      "SELECT COUNT(1) FROM F WITH SVC(ratio=0.5)",
      "SET MAINTENANCE POLICY ON Nope (budget=0.1)",
  };
}

/// Deterministic reads whose full results must match in every mode.
constexpr const char* kCatalogReads[] = {
    "SHOW TABLES",
    "SHOW VIEWS",
    "SHOW MAINTENANCE",
    "SELECT g, c, sv FROM V WHERE c > 1",
};

constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 11, 42};

TEST(DifferentialTest, SqlOnSharedEngineMatchesDirectPrivateEngine) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string data_dir = ::testing::TempDir() + "/svc_differential_" +
                                 std::to_string(seed);
    std::filesystem::remove_all(data_dir);
    {
      Rng rng(seed);
      Workload w = GenerateWorkload(&rng);
      EnginePair pair = BuildPair(w, data_dir);
      std::map<int64_t, Row> committed = w.committed_by_id;

      for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        ApplyRandomDeltas(&rng, w, &pair, &committed);
        const uint64_t stale_epoch = pair.shared->epoch();
        if (round == 0) {
          for (const std::string& sql : FailingStatements(
                   pair.next_id - 1, committed.begin()->first)) {
            ExpectSameFailureOnAll(&pair, sql);
          }
        }
        for (const char* sql : kCatalogReads) RunOnAllSql(&pair, sql);
        for (int i = 0; i < 4; ++i) {
          RandomQuery q = GenerateQuery(&rng);
          for (int threads : {1, 4}) CheckQuery(q, &pair, threads);
        }
        EXPECT_EQ(pair.shared->epoch(), stale_epoch)
            << "reads and failed writes must not publish new engine versions";

        // Maintenance commit on every path: a new snapshot epoch. Queries
        // must stay bit-identical against the fresh state too.
        RunOnAllSql(&pair, "REFRESH ALL");
        SVC_ASSERT_OK(pair.direct->MaintainAll());
        SVC_ASSERT_OK(pair.nocache->MaintainAll());
        EXPECT_EQ(pair.shared->epoch(), stale_epoch + 1);
        for (const char* sql : kCatalogReads) RunOnAllSql(&pair, sql);
        for (int i = 0; i < 2; ++i) {
          RandomQuery q = GenerateQuery(&rng);
          for (int threads : {1, 4}) CheckQuery(q, &pair, threads);
        }
      }
    }
    std::filesystem::remove_all(data_dir);
  }
}

}  // namespace
}  // namespace svc
