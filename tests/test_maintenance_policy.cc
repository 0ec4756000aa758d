// Maintenance policy (core/maintenance_policy.h) and the background
// scheduler (SharedEngine/ShardedEngine StartMaintenance): scoring formula
// units, the policy-vs-manual differential — an engine whose maintenance is
// driven by deterministic MaintenanceTick calls must answer every query
// bit-identically to a replica whose REFRESH ALL statements were issued by
// hand at the same logical points, across shard counts {1, 2, 4} and thread
// counts {1, 4} — scheduler thread lifecycle, and the kill-and-recover
// check that a policy-triggered refresh is never half-durable.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/maintenance_policy.h"
#include "sql/parser.h"
#include "storage/ops.h"
#include "storage/serde.h"
#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "core/svc.h"
#include "sql/session.h"
#include "storage/durable_engine.h"
#include "server/client.h"
#include "storage/fault.h"
#include "tests/served_process.h"
#include "tests/test_util.h"

namespace svc {
namespace {

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

SqlResult MustRun(SqlSession* session, const std::string& sql) {
  auto r = session->Execute(sql);
  if (!r.ok()) {
    ADD_FAILURE() << r.status().ToString() << "\nSQL: " << sql;
    return SqlResult();
  }
  return std::move(r).value();
}

void ExpectResultsBitIdentical(const SqlResult& got, const SqlResult& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.mode_used, want.mode_used);
  ASSERT_EQ(got.rows.schema().NumColumns(), want.rows.schema().NumColumns());
  ASSERT_EQ(got.rows.NumRows(), want.rows.NumRows());
  for (size_t i = 0; i < want.rows.NumRows(); ++i) {
    for (size_t c = 0; c < want.rows.schema().NumColumns(); ++c) {
      const Value& g = got.rows.row(i)[c];
      const Value& w = want.rows.row(i)[c];
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

// ---- Scoring formula units -------------------------------------------------

TEST(MaintenancePolicyTest, FreshViewScoresZero) {
  MaintenancePolicyConfig cfg;
  // elapsed_ms is huge, but a view with nothing pending is not stale: the
  // SLA bounds staleness age, not time-since-refresh in the abstract.
  ViewMaintenanceScore s = ScoreOneView("v", 0, 100, nullptr, cfg, 1u << 20);
  EXPECT_EQ(s.score, 0.0);
  EXPECT_EQ(s.action, MaintenanceAction::kNone);
}

TEST(MaintenancePolicyTest, StalenessAndSlaTermsAdd) {
  MaintenancePolicyConfig cfg;
  cfg.sla_ms = 5000;
  ViewMaintenanceScore s = ScoreOneView("v", 5, 5, nullptr, cfg, 2500);
  EXPECT_EQ(s.staleness, 0.5);
  EXPECT_EQ(s.error, 0.0);  // no probe
  EXPECT_EQ(s.sla, 0.5);
  EXPECT_EQ(s.score, 1.0);
  EXPECT_EQ(s.action, MaintenanceAction::kRefresh);
  ViewMaintenanceScore warm = ScoreOneView("v", 5, 5, nullptr, cfg, 2000);
  EXPECT_EQ(warm.action, MaintenanceAction::kWarm);
}

TEST(MaintenancePolicyTest, ErrorTermIsRelativeHalfWidthOverBudget) {
  MaintenancePolicyConfig cfg;
  cfg.budget = 0.05;
  Estimate probe;
  probe.value = 100.0;
  probe.ci_low = 90.0;
  probe.ci_high = 110.0;
  probe.has_ci = true;
  // half-width 10 on |value| 100 → relative 0.1 → 2x the 0.05 budget.
  ViewMaintenanceScore s = ScoreOneView("v", 1, 999, &probe, cfg, 0);
  EXPECT_DOUBLE_EQ(s.error, 2.0);
  EXPECT_EQ(s.action, MaintenanceAction::kRefresh);
  // Without a CI the probe contributes nothing (exact answers have no
  // error budget to spend).
  probe.has_ci = false;
  EXPECT_EQ(ScoreOneView("v", 1, 999, &probe, cfg, 0).error, 0.0);
}

TEST(MaintenancePolicyTest, DescribeAndNames) {
  MaintenancePolicyConfig cfg;
  cfg.mode = MaintenancePolicyConfig::Mode::kAuto;
  cfg.budget = 0.05;
  cfg.sla_ms = 1000;
  EXPECT_EQ(DescribeMaintenancePolicy(cfg), "mode=auto budget=0.05 sla_ms=1000");
  EXPECT_STREQ(MaintenanceActionName(MaintenanceAction::kRefresh), "refresh");
  EXPECT_STREQ(MaintenanceModeName(MaintenancePolicyConfig::Mode::kOff), "off");
}

TEST(MaintenancePolicyTest, PolicyIsEngineStateAndForksCopyIt) {
  SvcEngine eng{Database()};
  MaintenancePolicyConfig cfg;
  cfg.mode = MaintenancePolicyConfig::Mode::kAuto;
  cfg.budget = 0.02;
  cfg.tick_ms = 7;
  eng.set_maintenance_policy(cfg);
  SvcEngine fork(eng);
  EXPECT_TRUE(fork.maintenance_policy() == cfg);
  EXPECT_TRUE(SvcEngine{Database()}.maintenance_policy() !=  cfg);
}

// ---- The policy-vs-manual differential -------------------------------------

constexpr int kShardCounts[] = {1, 2, 4};

/// One engine configuration under test: the unsharded SharedEngine or a
/// ShardedEngine at some shard count, plus a SQL session over it.
struct Lane {
  std::string name;
  std::shared_ptr<SharedEngine> shared;    // null when sharded
  std::shared_ptr<ShardedEngine> sharded;  // null when shared
  std::unique_ptr<SqlSession> sql;

  Result<bool> Tick(uint64_t elapsed_ms) {
    return shared != nullptr ? shared->MaintenanceTick(elapsed_ms)
                             : sharded->MaintenanceTick(elapsed_ms);
  }
  MaintenanceStats Stats() const {
    return shared != nullptr ? shared->maintenance_stats()
                             : sharded->maintenance_stats();
  }
};

std::vector<Lane> MakeLanes() {
  std::vector<Lane> lanes;
  Lane l;
  l.name = "shared";
  l.shared = std::make_shared<SharedEngine>(Database());
  l.sql = std::make_unique<SqlSession>(EngineHandle::Shared(l.shared));
  lanes.push_back(std::move(l));
  for (int shards : kShardCounts) {
    Lane s;
    s.name = "shards=" + std::to_string(shards);
    s.sharded = std::make_shared<ShardedEngine>(Database(), shards);
    s.sql = std::make_unique<SqlSession>(EngineHandle::Sharded(s.sharded));
    lanes.push_back(std::move(s));
  }
  return lanes;
}

void RunOnLanes(std::vector<Lane>* lanes, const std::string& sql) {
  for (auto& l : *lanes) MustRun(l.sql.get(), sql);
}

/// Deterministic workload: a fact table and a grouped aggregate view, with
/// three delta rounds.
const char kViewSql[] =
    "SELECT g, COUNT(1) AS c, SUM(v) AS sv FROM F GROUP BY g";

void LoadInitial(std::vector<Lane>* lanes) {
  RunOnLanes(lanes, "CREATE TABLE F (id INT, g INT, v DOUBLE, "
                    "PRIMARY KEY (id))");
  std::string ins = "INSERT INTO F VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(i) + ", " + std::to_string(i % 4 + 1) + ", " +
           std::to_string((i * 7) % 31) + ".5)";
  }
  RunOnLanes(lanes, ins);
  RunOnLanes(lanes, "REFRESH ALL");
  RunOnLanes(lanes, std::string("CREATE MATERIALIZED VIEW V AS ") + kViewSql);
}

std::string DeltaBatch(int round) {
  std::string ins = "INSERT INTO F VALUES ";
  for (int i = 0; i < 10; ++i) {
    const int id = 100 + round * 10 + i;
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(id) + ", " + std::to_string(id % 4 + 1) +
           ", " + std::to_string((id * 3) % 17) + ".25)";
  }
  return ins;
}

const char* kQueries[] = {
    "SELECT COUNT(1) AS x FROM V WITH SVC(ratio=0.5, mode=corr)",
    "SELECT SUM(sv) AS x FROM V WITH SVC(ratio=0.5, mode=aqp)",
    "SELECT g, AVG(sv) AS x FROM V GROUP BY g WITH SVC(ratio=0.5, mode=corr)",
};

TEST(MaintenancePolicyTest, PolicyTickMatchesManualRefreshDifferential) {
  // Two fleets over the same statement stream: `policy` lanes refresh only
  // through MaintenanceTick (driven with a deterministic elapsed_ms),
  // `manual` lanes through REFRESH ALL at the same logical points.
  std::vector<Lane> policy = MakeLanes();
  std::vector<Lane> manual = MakeLanes();
  LoadInitial(&policy);
  LoadInitial(&manual);
  // budget=100 keeps the probe's error term negligible, so the tick
  // decision is purely staleness + SLA: Tick(0) scores ~0.7 (warm only),
  // Tick(1000) scores past 1.0 (refresh) — deterministic either way.
  RunOnLanes(&policy,
             "SET MAINTENANCE POLICY (mode=auto, budget=100, sla_ms=100, "
             "ratio=0.5)");

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const std::string batch = DeltaBatch(round);
    RunOnLanes(&policy, batch);
    RunOnLanes(&manual, batch);

    // Below the threshold the tick warms but must not commit anything.
    for (auto& l : policy) {
      SCOPED_TRACE(l.name);
      SVC_ASSERT_OK_AND_ASSIGN(bool refreshed, l.Tick(0));
      EXPECT_FALSE(refreshed);
    }
    // Past the SLA every lane must run exactly one maintenance commit.
    for (auto& l : policy) {
      SCOPED_TRACE(l.name);
      SVC_ASSERT_OK_AND_ASSIGN(bool refreshed, l.Tick(1000));
      EXPECT_TRUE(refreshed);
    }
    RunOnLanes(&manual, "REFRESH ALL");

    // Every lane of both fleets must now answer bit-identically.
    for (const char* q : kQueries) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " query=\"" +
                     std::string(q) + "\"");
        SvcQueryOptions opts;
        opts.exec.num_threads = threads;
        opts.estimator.num_threads = threads;
        manual[0].sql->default_svc_options() = opts;
        SqlResult want = MustRun(manual[0].sql.get(), q);
        for (auto* fleet : {&policy, &manual}) {
          for (auto& l : *fleet) {
            SCOPED_TRACE((fleet == &policy ? "policy " : "manual ") + l.name);
            l.sql->default_svc_options() = opts;
            ExpectResultsBitIdentical(MustRun(l.sql.get(), q), want);
          }
        }
      }
    }
  }
  for (auto& l : policy) {
    EXPECT_EQ(l.Stats().refreshes, 3u) << l.name;
    EXPECT_EQ(l.Stats().ticks, 6u) << l.name;
    EXPECT_GE(l.Stats().warms, 3u) << l.name;
  }
}

TEST(MaintenancePolicyTest, TickIsNoOpUnderModeOff) {
  std::vector<Lane> lanes = MakeLanes();
  LoadInitial(&lanes);
  RunOnLanes(&lanes, DeltaBatch(0));
  for (auto& l : lanes) {
    SCOPED_TRACE(l.name);
    SVC_ASSERT_OK_AND_ASSIGN(bool refreshed, l.Tick(1u << 20));
    EXPECT_FALSE(refreshed);
    EXPECT_EQ(l.Stats().ticks, 0u);
  }
}

// ---- Scheduler thread lifecycle --------------------------------------------

/// Polls until the lane has refreshed at least once (the thread's timing is
/// real; the *state it publishes* is the deterministic part).
bool WaitForRefresh(const Lane& l) {
  for (int i = 0; i < 5000; ++i) {
    if (l.Stats().refreshes >= 1) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(MaintenancePolicyTest, SchedulerThreadRefreshesAndStops) {
  std::vector<Lane> lanes = MakeLanes();
  LoadInitial(&lanes);
  RunOnLanes(&lanes, DeltaBatch(0));
  RunOnLanes(&lanes,
             "SET MAINTENANCE POLICY (mode=auto, sla_ms=1, tick_ms=1)");
  for (auto& l : lanes) {
    if (l.shared != nullptr) {
      l.shared->StartMaintenance();
      l.shared->StartMaintenance();  // idempotent
    } else {
      l.sharded->StartMaintenance();
      l.sharded->StartMaintenance();
    }
  }
  for (auto& l : lanes) {
    SCOPED_TRACE(l.name);
    EXPECT_TRUE(WaitForRefresh(l)) << "scheduler never refreshed";
  }
  for (auto& l : lanes) {
    if (l.shared != nullptr) {
      l.shared->StopMaintenance();
      l.shared->StopMaintenance();  // idempotent
    } else {
      l.sharded->StopMaintenance();
      l.sharded->StopMaintenance();
    }
  }
  // The policy refresh drained the queue — and the lanes still agree.
  for (auto& l : lanes) {
    SCOPED_TRACE(l.name);
    SqlResult stats = MustRun(l.sql.get(), "SHOW STATS");
    ASSERT_EQ(stats.rows.NumRows(), 1u);
    EXPECT_EQ(stats.rows.row(0)[5].AsInt(), 0);  // pending_rows
  }
}

// ---- Kill-and-recover: the maint.refresh crash site ------------------------

TEST(MaintenancePolicyTest, PolicyRefreshCrashRecoversPreRefreshState) {
  const std::string dir = ::testing::TempDir() + "/svc_maint_crash";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // The logical commits the child applies before its scheduler fires: DDL,
  // a committed load, a pending batch, then the policy DDL.
  const std::vector<std::string> sql = {
      "CREATE TABLE F (id INT, g INT, v DOUBLE, PRIMARY KEY (id))",
      "INSERT INTO F VALUES (1, 1, 2.5), (2, 2, 7.5), (3, 1, 1.25)",
      "REFRESH ALL",
      "CREATE MATERIALIZED VIEW V AS SELECT g, COUNT(1) AS c FROM F "
      "GROUP BY g",
      "INSERT INTO F VALUES (4, 2, 9.0), (5, 1, 3.0)",
      "SET MAINTENANCE POLICY (mode=auto, sla_ms=1, tick_ms=1)",
  };

  // The server's scheduler thread crashes at the maint.refresh site, before
  // the refresh's WAL record exists. It can fire before the response to
  // the policy DDL leaves, so that last statement may fail on the wire.
  testing_util::ServedProcess child;
  ASSERT_EQ(child.Start(dir, dir + ".port", "maint.refresh"), "");
  {
    ClientOptions copts;
    copts.port = child.port();
    SVC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<SvcClient> client,
                             SvcClient::Connect(copts));
    for (size_t i = 0; i + 1 < sql.size(); ++i) {
      SVC_ASSERT_OK(client->Execute(sql[i]).status());
    }
    (void)client->Execute(sql.back());
  }
  ASSERT_EQ(child.Wait(), FaultInjector::kCrashExitCode)
      << "the armed maint.refresh site was never reached";

  // Recovery lands on exactly the pre-refresh state: every hand-issued
  // commit (including the policy DDL) is there, the policy refresh is not.
  RecoveryReport report;
  DurableOptions o;
  o.data_dir = dir;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
  EXPECT_EQ(report.recovered_epoch, sql.size());
  const SvcEngine& recovered = eng->shared()->Snapshot()->engine;
  EXPECT_EQ(recovered.maintenance_policy().mode,
            MaintenancePolicyConfig::Mode::kAuto);
  EXPECT_EQ(recovered.maintenance_policy().sla_ms, 1u);
  EXPECT_EQ(recovered.pending().InsertRows("F"), 2u);  // batch still queued
  std::filesystem::remove_all(dir);
}

// ---- Per-view overrides ----------------------------------------------------

TEST(ViewPolicyOverrideTest, ParserOnFormAndRejections) {
  SVC_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      ParseStatement("SET MAINTENANCE POLICY ON V (budget=0.02, ratio=0.3)"));
  EXPECT_EQ(stmt.kind, Statement::Kind::kSetPolicy);
  EXPECT_TRUE(stmt.policy_on_view);
  EXPECT_EQ(stmt.target, "V");
  ASSERT_TRUE(stmt.policy_override.budget.has_value());
  EXPECT_DOUBLE_EQ(*stmt.policy_override.budget, 0.02);
  EXPECT_FALSE(stmt.policy_override.sla_ms.has_value());
  ASSERT_TRUE(stmt.policy_override.ratio.has_value());
  EXPECT_DOUBLE_EQ(*stmt.policy_override.ratio, 0.3);

  // The empty key list is the documented "clear this view's override".
  SVC_ASSERT_OK_AND_ASSIGN(Statement clear,
                           ParseStatement("SET MAINTENANCE POLICY ON V ()"));
  EXPECT_TRUE(clear.policy_on_view);
  EXPECT_TRUE(clear.policy_override.empty());

  // mode and tick_ms belong to the one scheduler thread: global only.
  EXPECT_FALSE(ParseStatement("SET MAINTENANCE POLICY ON V (mode=auto)").ok());
  EXPECT_FALSE(ParseStatement("SET MAINTENANCE POLICY ON V (tick_ms=5)").ok());
  EXPECT_FALSE(ParseStatement("SET MAINTENANCE POLICY ON V (bogus=1)").ok());
  EXPECT_FALSE(ParseStatement("SET MAINTENANCE POLICY ON V (ratio=1.5)").ok());
}

TEST(ViewPolicyOverrideTest, EffectiveForFoldsOverrideFields) {
  MaintenancePolicyConfig cfg;
  cfg.mode = MaintenancePolicyConfig::Mode::kAuto;
  cfg.budget = 0.1;
  cfg.sla_ms = 5000;
  cfg.ratio = 0.1;
  cfg.overrides["V"].budget = 0.02;
  cfg.overrides["V"].sla_ms = 250;
  cfg.overrides["W"].ratio = 0.5;

  const MaintenancePolicyConfig v = EffectiveFor(cfg, "V");
  EXPECT_EQ(v.mode, cfg.mode);
  EXPECT_DOUBLE_EQ(v.budget, 0.02);
  EXPECT_EQ(v.sla_ms, 250u);
  EXPECT_DOUBLE_EQ(v.ratio, 0.1);  // unset field falls through to global
  EXPECT_TRUE(v.overrides.empty());

  const MaintenancePolicyConfig w = EffectiveFor(cfg, "W");
  EXPECT_DOUBLE_EQ(w.budget, 0.1);
  EXPECT_EQ(w.sla_ms, 5000u);
  EXPECT_DOUBLE_EQ(w.ratio, 0.5);

  // A view with no override runs the globals verbatim.
  EXPECT_DOUBLE_EQ(EffectiveFor(cfg, "other").budget, 0.1);
  EXPECT_TRUE(EffectiveFor(cfg, "other").overrides.empty());
}

TEST(ViewPolicyOverrideTest, DescribeAppendsOverridesOnlyWhenPresent) {
  MaintenancePolicyConfig cfg;
  cfg.mode = MaintenancePolicyConfig::Mode::kAuto;
  cfg.budget = 0.05;
  cfg.sla_ms = 1000;
  EXPECT_EQ(DescribeMaintenancePolicy(cfg),
            "mode=auto budget=0.05 sla_ms=1000");
  cfg.overrides["V"].budget = 0.02;
  cfg.overrides["V"].sla_ms = 250;
  EXPECT_EQ(DescribeMaintenancePolicy(cfg),
            "mode=auto budget=0.05 sla_ms=1000 overrides: "
            "V(budget=0.02 sla_ms=250)");
}

TEST(ViewPolicyOverrideTest, PolicyCodecRoundTripsOverrides) {
  MaintenancePolicyConfig cfg;
  cfg.mode = MaintenancePolicyConfig::Mode::kAuto;
  cfg.budget = 0.07;
  cfg.sla_ms = 123;
  cfg.tick_ms = 9;
  cfg.ratio = 0.4;
  cfg.overrides["a"].budget = 0.01;
  cfg.overrides["b"].sla_ms = 42;
  cfg.overrides["b"].ratio = 0.9;
  std::string bytes;
  EncodeMaintenancePolicy(cfg, &bytes);
  ByteReader r(bytes);
  SVC_ASSERT_OK_AND_ASSIGN(MaintenancePolicyConfig back,
                           DecodeMaintenancePolicy(&r));
  EXPECT_TRUE(back == cfg);

  // And the pre-override shape still round-trips unchanged.
  const MaintenancePolicyConfig plain;
  bytes.clear();
  EncodeMaintenancePolicy(plain, &bytes);
  ByteReader r2(bytes);
  SVC_ASSERT_OK_AND_ASSIGN(MaintenancePolicyConfig back2,
                           DecodeMaintenancePolicy(&r2));
  EXPECT_TRUE(back2 == plain);
}

TEST(ViewPolicyOverrideTest, OnFormSqlEndToEnd) {
  SqlSession session(EngineHandle::Private());
  MustRun(&session, "CREATE TABLE F (id INT, g INT, PRIMARY KEY (id))");
  MustRun(&session, "INSERT INTO F VALUES (1, 1), (2, 2)");
  MustRun(&session, "REFRESH ALL");
  MustRun(&session,
          "CREATE MATERIALIZED VIEW V AS SELECT g, COUNT(1) AS c FROM F "
          "GROUP BY g");

  auto missing =
      session.Execute("SET MAINTENANCE POLICY ON nosuch (budget=0.05)");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  MustRun(&session, "SET MAINTENANCE POLICY ON V (budget=0.02, sla_ms=250)");
  SqlResult shown = MustRun(&session, "SHOW MAINTENANCE");
  EXPECT_NE(shown.message.find("overrides: V(budget=0.02 sla_ms=250)"),
            std::string::npos)
      << shown.message;

  // Re-SETting the globals keeps the per-view override...
  MustRun(&session, "SET MAINTENANCE POLICY (mode=auto, budget=0.2)");
  shown = MustRun(&session, "SHOW MAINTENANCE");
  EXPECT_NE(shown.message.find("overrides: V("), std::string::npos)
      << shown.message;

  // ...and the empty ON-form clears exactly that view's entry.
  MustRun(&session, "SET MAINTENANCE POLICY ON V ()");
  shown = MustRun(&session, "SHOW MAINTENANCE");
  EXPECT_EQ(shown.message.find("overrides"), std::string::npos)
      << shown.message;
}

TEST(ViewPolicyOverrideTest, OverrideSurvivesDurableRecovery) {
  const std::string dir = ::testing::TempDir() + "/svc_policy_override";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    DurableOptions o;
    o.data_dir = dir;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    SqlSession session(EngineHandle::Durable(eng));
    MustRun(&session, "CREATE TABLE F (id INT, g INT, PRIMARY KEY (id))");
    MustRun(&session, "INSERT INTO F VALUES (1, 1), (2, 2)");
    MustRun(&session, "REFRESH ALL");
    MustRun(&session,
            "CREATE MATERIALIZED VIEW V AS SELECT g, COUNT(1) AS c FROM F "
            "GROUP BY g");
    MustRun(&session, "SET MAINTENANCE POLICY (mode=auto, budget=0.1)");
    MustRun(&session, "SET MAINTENANCE POLICY ON V (budget=0.02, ratio=0.5)");
  }
  DurableOptions o;
  o.data_dir = dir;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
  const MaintenancePolicyConfig cfg =
      eng->shared()->Snapshot()->engine.maintenance_policy();
  EXPECT_EQ(cfg.mode, MaintenancePolicyConfig::Mode::kAuto);
  ASSERT_EQ(cfg.overrides.count("V"), 1u);
  ASSERT_TRUE(cfg.overrides.at("V").budget.has_value());
  EXPECT_DOUBLE_EQ(*cfg.overrides.at("V").budget, 0.02);
  EXPECT_FALSE(cfg.overrides.at("V").sla_ms.has_value());
  ASSERT_TRUE(cfg.overrides.at("V").ratio.has_value());
  EXPECT_DOUBLE_EQ(*cfg.overrides.at("V").ratio, 0.5);
  std::filesystem::remove_all(dir);
}

TEST(ViewPolicyOverrideTest, ShardedSessionMatchesShared) {
  const std::vector<std::string> sql = {
      "CREATE TABLE F (id INT, g INT, PRIMARY KEY (id))",
      "INSERT INTO F VALUES (1, 1), (2, 2), (3, 1)",
      "REFRESH ALL",
      "CREATE MATERIALIZED VIEW V AS SELECT g, COUNT(1) AS c FROM F "
      "GROUP BY g",
      "SET MAINTENANCE POLICY ON V (budget=0.02, sla_ms=250)",
  };
  std::string want;
  {
    SqlSession shared(
        EngineHandle::Shared(std::make_shared<SharedEngine>(Database())));
    for (const std::string& s : sql) MustRun(&shared, s);
    want = MustRun(&shared, "SHOW MAINTENANCE").message;
  }
  EXPECT_NE(want.find("overrides: V("), std::string::npos) << want;
  for (int shards : {1, 2, 4}) {
    SqlSession session(EngineHandle::Sharded(
        std::make_shared<ShardedEngine>(Database(), shards)));
    for (const std::string& s : sql) MustRun(&session, s);
    EXPECT_EQ(MustRun(&session, "SHOW MAINTENANCE").message, want)
        << shards << " shard(s)";
  }
}

}  // namespace
}  // namespace svc
