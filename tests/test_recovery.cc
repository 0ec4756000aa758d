// Durability and recovery (storage/durable_engine.h): reopen round-trips,
// checkpoint + WAL-tail recovery, torn tails, unreadable-checkpoint
// fallback, the durable SQL surface (CHECKPOINT, SHOW STATS counters) —
// and the kill-and-recover differential harness: a forked child arms the
// fault injector at one crash site, runs a seeded workload until the
// injected crash (_exit, no cleanup), then the parent recovers the
// directory and asserts the recovered engine's state and query answers are
// bit-identical to a never-crashed replica that applied the same logical
// commit prefix in memory.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sql/planner.h"
#include "sql/session.h"
#include "storage/checkpoint.h"
#include "storage/durable_engine.h"
#include "storage/fault.h"
#include "storage/serde.h"
#include "tests/test_util.h"

namespace svc {
namespace {

using testing_util::MakeLogVideoDb;

constexpr char kVisitViewSql[] =
    "SELECT Log.videoId, COUNT(1) AS visitCount "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.videoId";

/// The workload checkpoints after applying ops[0..kCkptAfter] inclusive.
constexpr size_t kCkptAfter = 10;
constexpr size_t kWorkloadSteps = 24;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/svc_rec_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// A deterministic logical-commit stream: table + view DDL, then seeded
/// inserts / deletes / refreshes. Pure in `seed`, so the same call
/// reproduces the exact ops a crashed child was applying.
std::vector<DurableOp> MakeWorkloadOps(uint64_t seed, size_t steps) {
  std::vector<DurableOp> ops;
  Database db = MakeLogVideoDb();
  ops.push_back(DurableOp::CreateTableOp("Log", **db.GetTable("Log")));
  ops.push_back(DurableOp::CreateTableOp("Video", **db.GetTable("Video")));
  ops.push_back(DurableOp::CreateViewOp(
      "visitView", SqlToPlan(kVisitViewSql, db).value(), {}));

  uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  int64_t next_session = 100;
  // Rows committed into Log (and not yet queued for deletion) — the
  // original ten plus whatever a REFRESH committed.
  std::vector<Row> committed;
  const int64_t visits[10] = {1, 1, 1, 2, 2, 3, 3, 3, 3, 2};
  for (int64_t s = 0; s < 10; ++s) {
    committed.push_back({Value::Int(s), Value::Int(visits[s])});
  }
  std::vector<Row> pending;

  for (size_t i = 0; i < steps; ++i) {
    const uint64_t roll = next() % 10;
    if (roll >= 8 && !committed.empty()) {
      Row doomed = committed[next() % committed.size()];
      committed.erase(std::find(committed.begin(), committed.end(), doomed));
      ops.push_back(DurableOp::DeleteOp("Log", {doomed}));
    } else if (roll >= 6) {
      ops.push_back(DurableOp::RefreshOp());
      committed.insert(committed.end(), pending.begin(), pending.end());
      pending.clear();
    } else {
      Row row = {Value::Int(next_session++),
                 Value::Int(static_cast<int64_t>(next() % 5 + 1))};
      pending.push_back(row);
      ops.push_back(DurableOp::InsertOp("Log", {std::move(row)}));
    }
  }
  return ops;
}

/// The never-crashed replica: the first `prefix` logical commits applied
/// in memory through the same entry points replay uses.
SvcEngine MakeReplica(const std::vector<DurableOp>& ops, size_t prefix) {
  SvcEngine replica((Database()));
  for (size_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(ApplyDurableOp(ops[i], &replica).ok()) << "replica op " << i;
  }
  return replica;
}

/// Asserts bit-identical engine state and bit-identical SVC answers
/// (estimate value, CI bounds, mode, sample rows) between two engines.
void ExpectBitIdentical(const SvcEngine& recovered, const SvcEngine& replica,
                        uint64_t epoch) {
  std::string a, b;
  SVC_ASSERT_OK(EncodeEngineState(recovered, epoch, &a));
  SVC_ASSERT_OK(EncodeEngineState(replica, epoch, &b));
  EXPECT_TRUE(a == b) << "encoded engine states diverge ("
                      << a.size() << " vs " << b.size() << " bytes)";

  AggregateQuery q = AggregateQuery::Sum(Expr::Col("visitCount"));
  for (EstimatorMode mode : {EstimatorMode::kCorr, EstimatorMode::kAqp}) {
    SvcQueryOptions opts;
    opts.ratio = 0.5;
    opts.mode = mode;
    SvcAnswer ra = recovered.Query("visitView", q, opts).value();
    SvcAnswer rb = replica.Query("visitView", q, opts).value();
    EXPECT_EQ(BitsOf(ra.estimate.value), BitsOf(rb.estimate.value));
    EXPECT_EQ(BitsOf(ra.estimate.ci_low), BitsOf(rb.estimate.ci_low));
    EXPECT_EQ(BitsOf(ra.estimate.ci_high), BitsOf(rb.estimate.ci_high));
    EXPECT_EQ(ra.estimate.has_ci, rb.estimate.has_ci);
    EXPECT_EQ(ra.estimate.sample_rows, rb.estimate.sample_rows);
    EXPECT_EQ(ra.mode_used, rb.mode_used);
  }
  EXPECT_EQ(BitsOf(recovered.QueryStale("visitView", q).value()),
            BitsOf(replica.QueryStale("visitView", q).value()));
}

/// Applies the full workload against a durable engine in `dir`, with one
/// checkpoint after ops[kCkptAfter]. Exit codes: distinct small numbers
/// for setup failures so the parent can tell them from the injected crash.
void RunWorkloadOrExit(const std::string& dir,
                       const std::vector<DurableOp>& ops) {
  DurableOptions o;
  o.data_dir = dir;
  auto opened = DurableEngine::Open(o);
  if (!opened.ok()) _exit(3);
  auto eng = std::move(opened).value();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!eng->Apply(ops[i]).ok()) _exit(4);
    if (i == kCkptAfter && !eng->Checkpoint().ok()) _exit(5);
  }
  _exit(0);
}

TEST_F(RecoveryTest, ReopenRoundTripIsBitIdentical) {
  const std::vector<DurableOp> ops = MakeWorkloadOps(11, kWorkloadSteps);
  {
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    for (const DurableOp& op : ops) SVC_ASSERT_OK(eng->Apply(op));
    EXPECT_EQ(eng->epoch(), ops.size());
  }
  RecoveryReport report;
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
  EXPECT_EQ(report.recovered_epoch, ops.size());
  EXPECT_EQ(report.checkpoint_epoch, 0u);  // never checkpointed
  EXPECT_EQ(report.wal_records_replayed, ops.size());
  EXPECT_FALSE(report.torn_tail);
  SvcEngine replica = MakeReplica(ops, ops.size());
  ExpectBitIdentical(eng->shared()->Snapshot()->engine, replica, ops.size());
}

TEST_F(RecoveryTest, CheckpointPlusWalTailRecovers) {
  const std::vector<DurableOp> ops = MakeWorkloadOps(12, kWorkloadSteps);
  {
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    for (size_t i = 0; i < ops.size(); ++i) {
      SVC_ASSERT_OK(eng->Apply(ops[i]));
      if (i == kCkptAfter) {
        SVC_ASSERT_OK_AND_ASSIGN(uint64_t e, eng->Checkpoint());
        EXPECT_EQ(e, kCkptAfter + 1);
        // The checkpoint superseded the initial WAL.
        EXPECT_FALSE(std::filesystem::exists(dir_ + "/" + WalFileName(0)));
      }
    }
    const DurabilityStats stats = eng->stats();
    EXPECT_EQ(stats.last_checkpoint_epoch, kCkptAfter + 1);
    EXPECT_EQ(stats.wal_records, ops.size() - (kCkptAfter + 1));
  }
  RecoveryReport report;
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
  EXPECT_EQ(report.checkpoint_epoch, kCkptAfter + 1);
  EXPECT_EQ(report.wal_records_replayed, ops.size() - (kCkptAfter + 1));
  EXPECT_EQ(report.recovered_epoch, ops.size());
  SvcEngine replica = MakeReplica(ops, ops.size());
  ExpectBitIdentical(eng->shared()->Snapshot()->engine, replica, ops.size());
}

TEST_F(RecoveryTest, AutoCheckpointEvery) {
  const std::vector<DurableOp> ops = MakeWorkloadOps(13, kWorkloadSteps);
  {
    DurableOptions o;
    o.data_dir = dir_;
    o.checkpoint_every = 5;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    for (const DurableOp& op : ops) SVC_ASSERT_OK(eng->Apply(op));
    const DurabilityStats stats = eng->stats();
    EXPECT_GT(stats.last_checkpoint_epoch, 0u);
    EXPECT_LT(stats.wal_records, 5u);
  }
  RecoveryReport report;
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
  EXPECT_EQ(report.recovered_epoch, ops.size());
  ExpectBitIdentical(eng->shared()->Snapshot()->engine,
                     MakeReplica(ops, ops.size()), ops.size());
}

TEST_F(RecoveryTest, TornWalTailRecoversToLastCompleteEpoch) {
  const std::vector<DurableOp> ops = MakeWorkloadOps(14, kWorkloadSteps);
  {
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    for (const DurableOp& op : ops) SVC_ASSERT_OK(eng->Apply(op));
  }
  // Tear the final record by hand: drop the last 3 bytes of the log.
  const std::string wal = dir_ + "/" + WalFileName(0);
  const uint64_t size = std::filesystem::file_size(wal);
  SVC_ASSERT_OK(TruncateFile(wal, size - 3));

  RecoveryReport report;
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
  EXPECT_TRUE(report.torn_tail);
  EXPECT_NE(report.warning.find("torn WAL tail"), std::string::npos);
  EXPECT_EQ(report.recovered_epoch, ops.size() - 1);
  ExpectBitIdentical(eng->shared()->Snapshot()->engine,
                     MakeReplica(ops, ops.size() - 1), ops.size() - 1);
}

TEST_F(RecoveryTest, UnreadableCheckpointFallsBackWithWarning) {
  const std::vector<DurableOp> ops = MakeWorkloadOps(15, kWorkloadSteps);
  {
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    for (size_t i = 0; i < ops.size(); ++i) {
      SVC_ASSERT_OK(eng->Apply(ops[i]));
      if (i == kCkptAfter) SVC_ASSERT_OK(eng->Checkpoint().status());
    }
  }
  // Flip a byte in the middle of the checkpoint: CRC validation must
  // reject it and recovery must fall back (to the empty state here — the
  // pre-checkpoint WAL was superseded and removed) instead of aborting.
  const std::string ckpt = dir_ + "/" + CheckpointFileName(kCkptAfter + 1);
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(ckpt) / 2));
    char c;
    f.seekg(f.tellp());
    f.get(c);
    f.seekp(-1, std::ios::cur);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  RecoveryReport report;
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
  EXPECT_NE(report.warning.find("skipping unreadable checkpoint"),
            std::string::npos)
      << report.warning;
  // The fallback state is older but consistent; the tail WAL no longer
  // chains onto it, so recovery surfaces the checkpoint-only state.
  EXPECT_EQ(report.checkpoint_epoch, 0u);
  (void)eng;
}

TEST_F(RecoveryTest, SqlSessionDurableStatsAndCheckpointStatement) {
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
  EngineHandle handle = EngineHandle::Durable(eng);
  EXPECT_TRUE(handle.is_shared());
  SqlSession session(std::move(handle));
  SVC_ASSERT_OK(session
                    .Execute("CREATE TABLE T (a INT, b INT, "
                             "PRIMARY KEY (a));")
                    .status());
  SVC_ASSERT_OK(session.Execute("INSERT INTO T VALUES (1, 10);").status());
  SVC_ASSERT_OK(session.Execute("REFRESH ALL;").status());
  SVC_ASSERT_OK(
      session
          .Execute("CREATE MATERIALIZED VIEW V AS SELECT a, b FROM T;")
          .status());

  SVC_ASSERT_OK_AND_ASSIGN(SqlResult stats, session.Execute("SHOW STATS;"));
  const Schema& schema = stats.rows.schema();
  ASSERT_EQ(schema.NumColumns(), 11u);
  EXPECT_EQ(schema.column(7).name, "wal_records");
  EXPECT_EQ(schema.column(8).name, "wal_bytes");
  EXPECT_EQ(schema.column(9).name, "last_checkpoint_epoch");
  EXPECT_EQ(schema.column(10).name, "recovered_epoch");
  ASSERT_EQ(stats.rows.NumRows(), 1u);
  EXPECT_EQ(stats.rows.row(0)[7].AsInt(), 4);  // four logged commits
  EXPECT_GT(stats.rows.row(0)[8].AsInt(), 0);
  EXPECT_EQ(stats.rows.row(0)[9].AsInt(), 0);
  EXPECT_EQ(stats.rows.row(0)[10].AsInt(), 0);

  SVC_ASSERT_OK_AND_ASSIGN(SqlResult ckpt, session.Execute("CHECKPOINT;"));
  EXPECT_EQ(ckpt.message, "checkpoint at epoch 4");
  SVC_ASSERT_OK_AND_ASSIGN(stats, session.Execute("SHOW STATS;"));
  EXPECT_EQ(stats.rows.row(0)[7].AsInt(), 0);  // WAL rotated
  EXPECT_EQ(stats.rows.row(0)[9].AsInt(), 4);

  // Non-durable sessions accept CHECKPOINT as a no-op...
  SqlSession plain(EngineHandle::Private());
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult skipped, plain.Execute("CHECKPOINT;"));
  EXPECT_NE(skipped.message.find("skipped"), std::string::npos);
  // ...and keep the original seven SHOW STATS columns.
  SVC_ASSERT_OK(plain
                    .Execute("CREATE TABLE T (a INT, PRIMARY KEY (a));")
                    .status());
  SVC_ASSERT_OK(
      plain.Execute("CREATE MATERIALIZED VIEW W AS SELECT a FROM T;")
          .status());
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult plain_stats,
                           plain.Execute("SHOW STATS;"));
  EXPECT_EQ(plain_stats.rows.schema().NumColumns(), 7u);
}

TEST_F(RecoveryTest, DeltaVersionSurvivesCheckpointAndReplay) {
  // The pending queue's mutation counter (SHOW STATS's delta_version) must
  // re-pair with the recovered state: restarting it from zero would alias
  // sample-cache keys across the restart and visibly reset the counter.
  int64_t before = 0;
  {
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    SqlSession session(EngineHandle::Durable(eng));
    SVC_ASSERT_OK(session
                      .Execute("CREATE TABLE T (a INT, b INT, "
                               "PRIMARY KEY (a));")
                      .status());
    SVC_ASSERT_OK(
        session.Execute("INSERT INTO T VALUES (1, 10), (2, 20);").status());
    SVC_ASSERT_OK(session.Execute("REFRESH ALL;").status());
    SVC_ASSERT_OK(
        session.Execute("CREATE MATERIALIZED VIEW V AS SELECT a, b FROM T;")
            .status());
    SVC_ASSERT_OK(session.Execute("INSERT INTO T VALUES (3, 30);").status());
    SVC_ASSERT_OK_AND_ASSIGN(SqlResult stats, session.Execute("SHOW STATS;"));
    ASSERT_EQ(stats.rows.NumRows(), 1u);
    before = stats.rows.row(0)[6].AsInt();
    EXPECT_GT(before, 0);
    SVC_ASSERT_OK(session.Execute("CHECKPOINT;").status());
  }
  {
    // Reopen from the checkpoint alone: the counter is the persisted one,
    // not a recount of the re-ingested pending rows.
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    SqlSession session(EngineHandle::Durable(eng));
    SVC_ASSERT_OK_AND_ASSIGN(SqlResult stats, session.Execute("SHOW STATS;"));
    EXPECT_EQ(stats.rows.row(0)[6].AsInt(), before);
    // Queue another logged commit so the next open replays a WAL tail.
    SVC_ASSERT_OK(session.Execute("INSERT INTO T VALUES (4, 40);").status());
  }
  {
    // Checkpoint + WAL replay: the counter continues from the persisted
    // value instead of restarting.
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    SqlSession session(EngineHandle::Durable(eng));
    SVC_ASSERT_OK_AND_ASSIGN(SqlResult stats, session.Execute("SHOW STATS;"));
    EXPECT_GT(stats.rows.row(0)[6].AsInt(), before);
  }
}

TEST_F(RecoveryTest, MaintenancePolicyReplaysFromWalAndCheckpoint) {
  MaintenancePolicyConfig cfg;
  cfg.mode = MaintenancePolicyConfig::Mode::kAuto;
  cfg.budget = 0.02;
  cfg.sla_ms = 250;
  cfg.tick_ms = 10;
  cfg.ratio = 0.2;
  {
    DurableOptions o;
    o.data_dir = dir_;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
    SqlSession session(EngineHandle::Durable(eng));
    SVC_ASSERT_OK(
        session.Execute("CREATE TABLE T (a INT, PRIMARY KEY (a));").status());
    SVC_ASSERT_OK(session
                      .Execute("SET MAINTENANCE POLICY (mode=auto, "
                               "budget=0.02, sla_ms=250, tick_ms=10, "
                               "ratio=0.2);")
                      .status());
  }
  {
    // No checkpoint was taken: the policy came back from the WAL alone.
    DurableOptions o;
    o.data_dir = dir_;
    RecoveryReport report;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
    EXPECT_EQ(report.wal_records_replayed, 2u);
    EXPECT_TRUE(eng->shared()->maintenance_policy() == cfg);
    SVC_ASSERT_OK(eng->Checkpoint().status());
  }
  {
    // And from the checkpoint alone (its WAL is empty after rotation).
    DurableOptions o;
    o.data_dir = dir_;
    RecoveryReport report;
    SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
    EXPECT_EQ(report.wal_records_replayed, 0u);
    EXPECT_TRUE(eng->shared()->maintenance_policy() == cfg);
  }
}

TEST_F(RecoveryTest, IncrementalCheckpointSkipsUnchangedTables) {
  DurableOptions o;
  o.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o));
  SqlSession session(EngineHandle::Durable(eng));
  SVC_ASSERT_OK(
      session.Execute("CREATE TABLE T (a INT, b INT, PRIMARY KEY (a));")
          .status());
  SVC_ASSERT_OK(
      session.Execute("CREATE TABLE U (a INT, PRIMARY KEY (a));").status());
  SVC_ASSERT_OK(
      session.Execute("INSERT INTO T VALUES (1, 10), (2, 20);").status());
  SVC_ASSERT_OK(session.Execute("REFRESH ALL;").status());
  SVC_ASSERT_OK(
      session.Execute("CREATE MATERIALIZED VIEW V AS SELECT a, b FROM T;")
          .status());

  // First checkpoint: everything is new — three tables serialized, none
  // reused.
  SVC_ASSERT_OK(eng->Checkpoint().status());
  EXPECT_EQ(eng->stats().checkpoint_tables_encoded, 3u);
  EXPECT_EQ(eng->stats().checkpoint_tables_reused, 0u);

  // Unchanged state: re-checkpointing re-serializes nothing (copy-on-write
  // identity pins every table's contents).
  SVC_ASSERT_OK(eng->Checkpoint().status());
  EXPECT_EQ(eng->stats().checkpoint_tables_encoded, 0u);
  EXPECT_EQ(eng->stats().checkpoint_tables_reused, 3u);

  // A refresh that commits rows into T rebuilds T and V but not U.
  SVC_ASSERT_OK(session.Execute("INSERT INTO T VALUES (3, 30);").status());
  SVC_ASSERT_OK(session.Execute("REFRESH ALL;").status());
  SVC_ASSERT_OK(eng->Checkpoint().status());
  EXPECT_EQ(eng->stats().checkpoint_tables_encoded, 2u);
  EXPECT_EQ(eng->stats().checkpoint_tables_reused, 1u);

  // The cache is a pure serialization shortcut: cached and uncached
  // encodings of the same snapshot are byte-identical, and the recovered
  // engine is bit-identical to the live one.
  const SvcEngine& live = eng->shared()->Snapshot()->engine;
  const uint64_t epoch = eng->epoch();
  std::string uncached;
  SVC_ASSERT_OK(EncodeEngineState(live, epoch, &uncached));
  TableEncodeCache warm;
  std::string cold_pass, warmed;
  SVC_ASSERT_OK(EncodeEngineState(live, epoch, &cold_pass, &warm));
  SVC_ASSERT_OK(EncodeEngineState(live, epoch, &warmed, &warm));
  EXPECT_TRUE(cold_pass == uncached);
  EXPECT_TRUE(warmed == uncached);
  EXPECT_EQ(warm.tables_reused, 3u);

  DurableOptions o2;
  o2.data_dir = dir_;
  SVC_ASSERT_OK_AND_ASSIGN(auto reopened, DurableEngine::Open(o2));
  std::string recovered;
  SVC_ASSERT_OK(EncodeEngineState(reopened->shared()->Snapshot()->engine,
                                  epoch, &recovered));
  EXPECT_TRUE(recovered == uncached);
}

// ---- The kill-and-recover differential matrix ------------------------------
//
// For every crash site and seed: fork a child that arms the injector and
// runs the workload; the injected crash _exits with kCrashExitCode at the
// armed site. The parent recovers the directory, checks the recovered
// epoch is exactly what the site's durability semantics promise, and
// bit-diffs state + answers against a never-crashed in-memory replica of
// the same commit prefix.

struct CrashCase {
  const char* site;
  uint64_t nth;
  /// Expected recovered epoch. kWalNth-based sites: the Nth logged commit
  /// was interrupted; whether its record survives depends on the site.
  uint64_t expected_epoch;
};

constexpr uint64_t kWalNth = 7;

const CrashCase kCrashMatrix[] = {
    // Crash before any byte of commit N's record: N-1 commits survive.
    {"wal.append.pre", kWalNth, kWalNth - 1},
    // Crash after half of commit N's frame: torn tail, N-1 commits.
    {"wal.append.torn", kWalNth, kWalNth - 1},
    // Record durable, crash before publish: recovery surfaces commit N —
    // write-ahead means durable-but-unpublished work may complete.
    {"wal.append.post", kWalNth, kWalNth},
    // Mid-checkpoint crashes: the temp file (whole or torn) is discarded;
    // every commit before the checkpoint was WAL-durable.
    {"ckpt.tear", 1, kCkptAfter + 1},
    {"ckpt.pre_rename", 1, kCkptAfter + 1},
    // Checkpoint renamed into place, crash before WAL rotation: recovery
    // uses the new checkpoint (its WAL is simply absent).
    {"ckpt.post_rename", 1, kCkptAfter + 1},
};

TEST_F(RecoveryTest, KillAndRecoverDifferentialMatrix) {
  for (const CrashCase& c : kCrashMatrix) {
    for (uint64_t seed : {1, 2, 3}) {
      const std::string dir =
          dir_ + "/" + c.site + "-" + std::to_string(seed);
      std::filesystem::create_directories(dir);
      const std::vector<DurableOp> ops =
          MakeWorkloadOps(seed, kWorkloadSteps);

      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: arm and run until the injected crash. No gtest macros
        // here — failures exit with distinct codes.
        FaultInjector::Global().Arm(c.site, c.nth);
        RunWorkloadOrExit(dir, ops);  // _exits; never returns
      }
      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus)) << c.site << " seed " << seed;
      ASSERT_EQ(WEXITSTATUS(wstatus), FaultInjector::kCrashExitCode)
          << c.site << " seed " << seed
          << ": child exited " << WEXITSTATUS(wstatus)
          << " (0 means the armed site was never reached)";

      RecoveryReport report;
      DurableOptions o;
      o.data_dir = dir;
      SVC_ASSERT_OK_AND_ASSIGN(auto eng, DurableEngine::Open(o, &report));
      EXPECT_EQ(report.recovered_epoch, c.expected_epoch)
          << c.site << " seed " << seed << " (" << report.warning << ")";
      EXPECT_EQ(report.torn_tail, std::strcmp(c.site, "wal.append.torn") == 0)
          << c.site << " seed " << seed;

      SvcEngine replica = MakeReplica(ops, report.recovered_epoch);
      ExpectBitIdentical(eng->shared()->Snapshot()->engine, replica,
                         report.recovered_epoch);

      // The recovered directory must be fully usable: apply the rest of
      // the workload and land on the same final state as a replica that
      // never crashed at all.
      for (size_t i = report.recovered_epoch; i < ops.size(); ++i) {
        SVC_ASSERT_OK(eng->Apply(ops[i]));
      }
      ExpectBitIdentical(eng->shared()->Snapshot()->engine,
                         MakeReplica(ops, ops.size()), ops.size());
    }
  }
}

}  // namespace
}  // namespace svc
