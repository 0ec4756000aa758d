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
#include "tpcd/tpcd_gen.h"
#include "tpcd/tpcd_views.h"

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

// ---- Storage order --------------------------------------------------------
//
// Sum, count and avg answers may not depend on the order rows are stored
// in. The base tables load in their generated order and in two seeded
// permutations, one delta stream queues on each, and every lane — private,
// shared, and 1/2/4 shards — must answer every query bit for bit like the
// private engine over the generated order: value, CI bounds, sample rows,
// mode, and group order. The one exception is AVG under SVC+CORR, whose
// bootstrap interval resamples pairs in storage order by design. The views
// are the TPCD join and an aggregate view whose per-row terms (sv * 0.1)
// round, so a sum over them depends on order unless it is exact.

std::string SqlLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return std::to_string(v.AsInt());
    case ValueType::kDouble:
      return Lit17(v.AsDouble());
    case ValueType::kString:
      return "'" + v.AsString() + "'";
    default:
      return "NULL";
  }
}

std::string InsertSql(const std::string& table, const std::vector<Row>& rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    sql += i > 0 ? ", (" : "(";
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (c > 0) sql += ", ";
      sql += SqlLiteral(rows[i][c]);
    }
    sql += ")";
  }
  return sql;
}

/// The base tables: TPCD plus F(id, g, v) with v = k/16.
Database OrderTestBase() {
  TpcdConfig cfg;
  cfg.scale_factor = 0.001;
  Database db = GenerateTpcdDatabase(cfg).value();
  Table fact(FactSchema());
  EXPECT_TRUE(fact.SetPrimaryKey({"id"}).ok());
  Rng rng(0x0bde5);
  for (int64_t id = 0; id < 300; ++id) {
    EXPECT_TRUE(fact.Insert({Value::Int(id), Value::Int(rng.UniformInt(1, 6)),
                             Value::Double(static_cast<double>(
                                               rng.UniformInt(0, 100000)) /
                                           16.0)})
                    .ok());
  }
  EXPECT_TRUE(db.CreateTable("F", std::move(fact)).ok());
  return db;
}

/// `base` with every table's rows in a seeded permutation (seed 0 keeps
/// the generated order).
Database Permuted(const Database& base, uint64_t seed) {
  Database db;
  Rng rng(seed);
  for (const std::string& name : base.TableNames()) {
    const Table& t = *base.GetTable(name).value();
    std::vector<size_t> order(t.NumRows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); seed != 0 && i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    Table out(t.schema());
    EXPECT_TRUE(out.SetPrimaryKey(t.PrimaryKeyNames()).ok());
    for (size_t i : order) EXPECT_TRUE(out.Insert(t.row(i)).ok());
    EXPECT_TRUE(db.CreateTable(name, std::move(out)).ok());
  }
  return db;
}

constexpr char kAggViewSql[] =
    "SELECT g, COUNT(1) AS c, SUM(v) AS sv FROM F GROUP BY g";

/// One session per lane over `db`, with the join view J and the aggregate
/// view A; `shared` receives the shared lane's engine.
std::vector<SqlLane> OrderLanes(const Database& db,
                                std::shared_ptr<SharedEngine>* shared_out) {
  std::vector<SqlLane> lanes;
  const PlanPtr agg = SqlToPlan(kAggViewSql, db).value();
  SvcEngine priv(db);
  EXPECT_TRUE(
      priv.CreateView("J", TpcdJoinViewDef(), TpcdJoinViewSamplingKey()).ok());
  EXPECT_TRUE(priv.CreateView("A", agg).ok());
  lanes.push_back({"private", std::make_unique<SqlSession>(
                                  EngineHandle::Private(std::move(priv)))});
  auto shared = std::make_shared<SharedEngine>(db);
  EXPECT_TRUE(
      shared->CreateView("J", TpcdJoinViewDef(), TpcdJoinViewSamplingKey())
          .ok());
  EXPECT_TRUE(shared->CreateView("A", agg).ok());
  *shared_out = shared;
  lanes.push_back(
      {"shared", std::make_unique<SqlSession>(EngineHandle::Shared(shared))});
  for (int shards : kShardCounts) {
    auto sharded = std::make_shared<ShardedEngine>(db, shards);
    EXPECT_TRUE(
        sharded->CreateView("J", TpcdJoinViewDef(), TpcdJoinViewSamplingKey())
            .ok());
    EXPECT_TRUE(sharded->CreateView("A", agg).ok());
    lanes.push_back({std::to_string(shards) + "-shard",
                     std::make_unique<SqlSession>(
                         EngineHandle::Sharded(std::move(sharded)))});
  }
  return lanes;
}

/// One delta batch: new orders with their lineitems, updated and deleted
/// lineitems, and fact rows in and out.
std::vector<std::string> DeltaBatch(const Database& base, int batch) {
  Rng rng(0xde17a + static_cast<uint64_t>(batch));
  const Table& orders = *base.GetTable("orders").value();
  const Table& lineitem = *base.GetTable("lineitem").value();
  std::vector<std::string> sql;
  std::vector<Row> new_orders, new_lines, deleted, updated;
  for (int i = 0; i < 40; ++i) {
    Row o = orders.row(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(orders.NumRows()) - 1)));
    const int64_t key = 10000000 + batch * 1000 + i;
    o[0] = Value::Int(key);
    new_orders.push_back(o);
    for (int64_t n = 1; n <= rng.UniformInt(1, 4); ++n) {
      Row l = lineitem.row(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(lineitem.NumRows()) - 1)));
      l[0] = Value::Int(key);
      l[1] = Value::Int(n);
      l[5] = Value::Double(static_cast<double>(rng.UniformInt(100, 9999999)) /
                           100.0);
      new_lines.push_back(std::move(l));
    }
  }
  // Distinct committed lineitems per batch: two in three updated, the
  // rest deleted.
  for (int i = 0; i < 150; ++i) {
    const size_t at = static_cast<size_t>(batch * 1000 + i * 7) %
                      lineitem.NumRows();
    Row l = lineitem.row(at);
    sql.push_back("DELETE FROM lineitem WHERE l_orderkey = " +
                  SqlLiteral(l[0]) + " AND l_linenumber = " + SqlLiteral(l[1]));
    if (i % 3 != 0) {
      l[6] = Value::Double(static_cast<double>(rng.UniformInt(0, 10)) / 100.0);
      l[5] = Value::Double(l[5].AsDouble() * 1.1);
      updated.push_back(std::move(l));
    }
  }
  sql.push_back(InsertSql("orders", new_orders));
  sql.push_back(InsertSql("lineitem", new_lines));
  if (!updated.empty()) sql.push_back(InsertSql("lineitem", updated));
  std::vector<Row> facts;
  for (int64_t i = 0; i < 25; ++i) {
    facts.push_back({Value::Int(100000 + batch * 100 + i),
                     Value::Int(rng.UniformInt(1, 6)),
                     Value::Double(static_cast<double>(
                                       rng.UniformInt(0, 100000)) /
                                   16.0)});
  }
  sql.push_back(InsertSql("F", facts));
  for (int i = 0; i < 8; ++i) {
    sql.push_back("DELETE FROM F WHERE id = " +
                  std::to_string(batch * 60 + i * 5));
  }
  return sql;
}

/// Sum, count, count(*) and avg queries on both views, scalar and grouped.
std::vector<std::string> OrderQueries() {
  const std::string rev = "l_extendedprice * (1 - l_discount)";
  const std::vector<std::string> shapes = {
      "SELECT SUM(" + rev + ") FROM J",
      "SELECT COUNT(*) FROM J WHERE o_orderstatus = 'O'",
      "SELECT COUNT(l_quantity) FROM J WHERE l_quantity > 20",
      "SELECT AVG(l_discount) FROM J",
      "SELECT l_shipmode, SUM(" + rev + ") FROM J GROUP BY l_shipmode",
      "SELECT o_orderpriority, COUNT(*) FROM J GROUP BY o_orderpriority",
      "SELECT l_returnflag, AVG(" + rev + ") FROM J GROUP BY l_returnflag",
      "SELECT l_shipmode, AVG(l_extendedprice) FROM J WHERE l_quantity > 10 "
      "GROUP BY l_shipmode",
      "SELECT SUM(sv * 0.1) FROM A",
      "SELECT AVG(sv * 0.3) FROM A WHERE c > 2",
      "SELECT COUNT(*) FROM A WHERE sv > 1000.5",
      "SELECT g, SUM(sv * 0.7) FROM A GROUP BY g",
      "SELECT g, AVG(sv * 0.1) FROM A GROUP BY g",
  };
  std::vector<std::string> out;
  for (const std::string& s : shapes) {
    for (const char* mode : {"corr", "aqp", "auto"}) {
      out.push_back(s + " WITH SVC(ratio=0.3, mode=" + std::string(mode) +
                    ")");
    }
  }
  return out;
}

/// ExpectSameResult, except that an AVG answered by SVC+CORR keeps its
/// order-dependent bootstrap interval (and the message that prints it) out
/// of the comparison.
void ExpectSameAnswer(const std::string& sql, const SqlResult& got,
                      const SqlResult& want) {
  const bool bootstrap = sql.find("AVG(") != std::string::npos &&
                         want.mode_used == EstimatorMode::kCorr;
  if (!bootstrap) {
    ExpectSameResult(got, want);
    return;
  }
  EXPECT_EQ(got.mode_used, want.mode_used);
  ASSERT_EQ(got.rows.NumRows(), want.rows.NumRows());
  const size_t cols = want.rows.schema().NumColumns();
  for (size_t i = 0; i < want.rows.NumRows(); ++i) {
    for (size_t c = 0; c < cols; ++c) {
      if (c == cols - 4 || c == cols - 3) continue;  // ci_low, ci_high
      const Value& g = got.rows.row(i)[c];
      const Value& w = want.rows.row(i)[c];
      ASSERT_EQ(g.type(), w.type()) << "row " << i << " col " << c;
      if (w.type() == ValueType::kDouble) {
        EXPECT_EQ(BitsOf(g.AsDouble()), BitsOf(w.AsDouble()))
            << "row " << i << " col " << c;
      } else {
        EXPECT_TRUE(g == w) << "row " << i << " col " << c;
      }
    }
  }
}

/// `t` with its rows in a seeded order.
Table Shuffled(const Table& t, uint64_t seed) {
  std::vector<size_t> order(t.NumRows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  Table out(t.schema());
  EXPECT_TRUE(out.SetPrimaryKey(t.PrimaryKeyNames()).ok());
  for (size_t i : order) out.AppendUnchecked(t.row(i));
  return out;
}

/// The §5.2.2 moments behind auto mode, σ²_S and cov(S, S′), for a few
/// aggregates on the shared lane's samples with their rows in an order
/// seeded by `seed`.
std::vector<double> PolicyMoments(const SharedEngine& shared, uint64_t seed) {
  const SvcEngine& eng = shared.Snapshot()->engine;
  const ExprPtr rev = Expr::Mul(
      Expr::Col("l_extendedprice"),
      Expr::Sub(Expr::LitInt(1), Expr::Col("l_discount")));
  const std::vector<std::pair<std::string, AggregateQuery>> queries = {
      {"J", AggregateQuery::Sum(rev)},
      {"J", AggregateQuery::Sum(Expr::Col("l_extendedprice"),
                                Expr::Gt(Expr::Col("l_quantity"),
                                         Expr::LitInt(25)))},
      {"J", AggregateQuery::Avg(Expr::Col("l_discount"))},
      {"A", AggregateQuery::Sum(Expr::Mul(Expr::Col("sv"),
                                          Expr::LitDouble(0.1)))},
  };
  std::vector<double> out;
  for (const auto& [view, q] : queries) {
    auto samples =
        eng.CleanSample(view, CleanOptions(0.3, HashFamily::kFnv1a));
    EXPECT_TRUE(samples.ok()) << samples.status().ToString();
    if (!samples.ok()) continue;
    // Several row orders per permutation: the pairing's hash table visits
    // rows in an order that storage order moves only where keys collide.
    const CorrespondingSamples stored = *samples;
    for (uint64_t shuffle = 0; shuffle < 4; ++shuffle) {
      samples->fresh = Shuffled(stored.fresh, seed * 8 + shuffle);
      samples->stale = Shuffled(stored.stale, seed * 8 + shuffle + 4);
      auto d = ChooseEstimator(*samples, q);
      EXPECT_TRUE(d.ok()) << d.status().ToString();
      if (!d.ok()) continue;
      out.push_back(d->var_stale);
      out.push_back(d->cov);
    }
  }
  return out;
}

TEST(DifferentialTest, AnswersDoNotDependOnStorageOrder) {
  const Database base = OrderTestBase();
  const std::vector<std::string> queries = OrderQueries();
  // results[phase][query] of the reference: the private lane over the
  // generated order.
  std::vector<std::vector<SqlResult>> want(2);
  std::vector<uint64_t> want_moments;
  for (uint64_t perm : {0, 1, 2}) {
    std::shared_ptr<SharedEngine> shared;
    std::vector<SqlLane> lanes = OrderLanes(Permuted(base, perm), &shared);
    for (SqlLane& lane : lanes) {
      SCOPED_TRACE("permutation=" + std::to_string(perm) +
                   " lane=" + lane.mode);
      for (int phase = 0; phase < 2; ++phase) {
        // Phase 0 queries a stale view; phase 1 after REFRESH and a second
        // batch, over maintained views.
        if (phase == 1) MustRun(lane.session.get(), "REFRESH ALL");
        for (const std::string& sql : DeltaBatch(base, phase)) {
          MustRun(lane.session.get(), sql);
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          SCOPED_TRACE(queries[q]);
          SqlResult got = MustRun(lane.session.get(), queries[q]);
          if (want[phase].size() == q) {
            want[phase].push_back(std::move(got));
            continue;
          }
          ExpectSameAnswer(queries[q], got, want[phase][q]);
        }
      }
    }
    std::vector<uint64_t> moments;
    for (double m : PolicyMoments(*shared, perm)) moments.push_back(BitsOf(m));
    if (perm == 0) want_moments = moments;
    EXPECT_EQ(moments, want_moments) << "permutation=" << perm;
  }
}

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
