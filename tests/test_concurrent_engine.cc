// Concurrency stress for SharedEngine (ISSUE 4): N reader sessions issue
// SVC SELECTs through the SQL path while one writer ingests delta batches
// and runs maintenance commits (REFRESH) in a loop. Every published epoch
// is a deterministic function of the commit sequence, so every reader
// answer must be *bit-identical* to the answer a private replica engine
// gives at that epoch — a reader that ever observed a half-applied commit
// (torn read) produces bytes matching no epoch and fails the comparison.
//
// Runs under ASan/UBSan with the rest of the suite and under TSan via
// `scripts/check.sh --tsan` (the dedicated CI job), which is what verifies
// the snapshot handoff itself is race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/shared_engine.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace svc {
namespace {

using testing_util::EncodedRows;

constexpr int kReaders = 4;
constexpr int kRounds = 10;       // each round = 1 ingest commit + 1 refresh
constexpr int kBatch = 30;        // insert rows per ingest commit
constexpr int kGroups = 6;
constexpr int64_t kInitialRows = 600;

/// The readers alternate between a scalar and a grouped CORR statement.
/// Every fork of the engine shares one stale-side memo (q(S) and η over
/// committed tables), so under TSan this races memo population across the
/// writer's ingest and REFRESH forks.
constexpr const char* kQueries[] = {
    "SELECT SUM(sv) AS x FROM V WHERE c > 2 WITH SVC(ratio=0.5, mode=corr)",
    "SELECT g, SUM(sv) AS x FROM V WHERE c > 2 GROUP BY g "
    "WITH SVC(ratio=0.5, mode=corr)",
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

Row MakeFactRow(int64_t id, Rng* rng) {
  return {Value::Int(id), Value::Int(rng->UniformInt(1, kGroups)),
          Value::Double(static_cast<double>(rng->UniformInt(0, 1000)) / 8.0)};
}

/// The initial committed fact rows (deterministic; shared by the live
/// engine, the replica, and the delete-batch generator).
std::vector<Row> InitialRows() {
  Rng rng(7);
  std::vector<Row> rows;
  rows.reserve(kInitialRows);
  for (int64_t id = 0; id < kInitialRows; ++id) {
    rows.push_back(MakeFactRow(id, &rng));
  }
  return rows;
}

/// The engine state at epoch 0: F loaded and the aggregate view created.
SvcEngine BuildInitialEngine() {
  Database db;
  Table fact(Schema({{"", "id", ValueType::kInt},
                     {"", "g", ValueType::kInt},
                     {"", "v", ValueType::kDouble}}));
  EXPECT_TRUE(fact.SetPrimaryKey({"id"}).ok());
  for (const Row& r : InitialRows()) EXPECT_TRUE(fact.Insert(r).ok());
  EXPECT_TRUE(db.CreateTable("F", std::move(fact)).ok());
  SvcEngine engine(std::move(db));
  PlanPtr def = SqlToPlan(
                    "SELECT g, COUNT(1) AS c, SUM(v) AS sv FROM F GROUP BY g",
                    *engine.db())
                    .value();
  EXPECT_TRUE(engine.CreateView("V", std::move(def)).ok());
  return engine;
}

/// Delta batch for `round`: kBatch inserts with fresh ids plus three
/// deletes of initial rows (disjoint id ranges across rounds).
DeltaSet MakeBatch(const Database& db, const std::vector<Row>& initial,
                   int round) {
  DeltaSet ds;
  Rng rng(9000 + static_cast<uint64_t>(round));
  int64_t next_id = kInitialRows + static_cast<int64_t>(round) * kBatch;
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(ds.AddInsert(db, "F", MakeFactRow(next_id++, &rng)).ok());
  }
  for (int64_t d = 0; d < 3; ++d) {
    const int64_t id = static_cast<int64_t>(round) * 3 + d;
    EXPECT_TRUE(ds.AddDelete(db, "F", initial[id]).ok());
  }
  return ds;
}

/// One reader observation. The head epoch is sampled immediately before
/// and after the statement; the statement's own snapshot necessarily has
/// an epoch in [epoch_before, epoch_after] (epochs are monotonic), so the
/// answer must byte-match the replica's answer at one of those epochs —
/// the ISSUE's "pre- or post-commit snapshot, never a torn read" check.
/// When the two samples agree the match is exact.
struct Observation {
  size_t query = 0;  // index into kQueries
  uint64_t epoch_before = 0;
  uint64_t epoch_after = 0;
  std::vector<std::string> rows;
  std::string error;  // non-empty if the statement failed
};

TEST(ConcurrentEngineTest, ReadersSeeOnlyCommittedEpochsDuringRefresh) {
  const std::vector<Row> initial = InitialRows();

  // Expected answers per epoch, from a private replica replaying the
  // writer's exact commit sequence: epoch 2r+1 = ingest of batch r,
  // epoch 2r+2 = maintenance commit.
  SvcEngine replica = BuildInitialEngine();
  auto shared = std::make_shared<SharedEngine>(SvcEngine(replica));
  // expected[epoch][query]: the encoded answer rows.
  std::vector<std::vector<std::vector<std::string>>> expected;
  // Answers come from a fresh private session per epoch (a CoW copy of the
  // replica), so no session state leaks between epochs.
  auto answer_of = [&](const SvcEngine& engine) {
    SqlSession session(EngineHandle::Private(SvcEngine(engine)));
    std::vector<std::vector<std::string>> answers;
    for (const char* sql : kQueries) {
      auto r = session.Execute(sql);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      answers.push_back(r.ok() ? EncodedRows(r.value().rows)
                               : std::vector<std::string>());
    }
    return answers;
  };
  expected.push_back(answer_of(replica));  // epoch 0
  for (int round = 0; round < kRounds; ++round) {
    SVC_ASSERT_OK(
        replica.IngestDeltas(MakeBatch(*replica.db(), initial, round)));
    expected.push_back(answer_of(replica));  // epoch 2r+1 (stale + deltas)
    SVC_ASSERT_OK(replica.MaintainAll());
    expected.push_back(answer_of(replica));  // epoch 2r+2 (fresh)
  }

  // Readers: SQL sessions over the shared engine, recording every answer
  // with its epoch. No gtest assertions inside threads (gtest is not
  // thread-safe); everything is verified after the join.
  std::atomic<int> readers_started{0};
  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      SqlSession session(EngineHandle::Shared(shared));
      bool counted = false;
      size_t next_query = static_cast<size_t>(t);
      auto observe = [&]() -> bool {
        Observation obs;
        obs.query = next_query++ % kNumQueries;
        obs.epoch_before = shared->epoch();
        auto r = session.Execute(kQueries[obs.query]);
        obs.epoch_after = shared->epoch();
        if (!r.ok()) {
          obs.error = r.status().ToString();
        } else {
          obs.rows = EncodedRows(r.value().rows);
        }
        const bool ok = obs.error.empty();
        observations[t].push_back(std::move(obs));
        if (!counted) {
          counted = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
        return ok;
      };
      // Keep reading while the writer commits; stop early on a statement
      // error (it would only repeat). The writer always terminates, so
      // the loop does too.
      while (!done.load(std::memory_order_acquire)) {
        if (!observe()) return;
      }
      // One final observation after the last commit: pins the final epoch
      // exactly (epoch_before == epoch_after — no writer is running).
      observe();
    });
  }

  // Writer: waits until every reader is actively querying (so commits
  // genuinely interleave with reads), then runs the ingest/refresh loop.
  std::thread writer([&] {
    while (readers_started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int round = 0; round < kRounds; ++round) {
      Status st = shared->Commit([&](SvcEngine* e) {
        return e->IngestDeltas(MakeBatch(*e->db(), initial, round));
      });
      if (!st.ok()) break;  // verified below via epoch count
      if (!shared->Refresh().ok()) break;
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& t : readers) t.join();

  ASSERT_EQ(shared->epoch(), static_cast<uint64_t>(2 * kRounds))
      << "writer commits failed part-way";

  // Every observation must byte-match the replica's answer at some epoch
  // in its [before, after] window: a reader that raced a commit would hold
  // bytes matching no published epoch at all.
  size_t total = 0;
  std::map<uint64_t, size_t> epochs_matched;
  for (int t = 0; t < kReaders; ++t) {
    for (size_t i = 0; i < observations[t].size(); ++i) {
      const Observation& obs = observations[t][i];
      ASSERT_TRUE(obs.error.empty())
          << "reader " << t << " query " << i << ": " << obs.error;
      ASSERT_LE(obs.epoch_before, obs.epoch_after);
      ASSERT_LT(obs.epoch_after, expected.size());
      bool matched = false;
      for (uint64_t e = obs.epoch_before; e <= obs.epoch_after && !matched;
           ++e) {
        if (obs.rows == expected[e][obs.query]) {
          matched = true;
          ++epochs_matched[e];
        }
      }
      EXPECT_TRUE(matched)
          << "reader " << t << " observation " << i
          << " matches no committed epoch in [" << obs.epoch_before << ", "
          << obs.epoch_after << "] — torn read";
      ++total;
    }
    // Snapshots never go backwards: the pre-query head epoch is
    // monotonically non-decreasing per reader.
    for (size_t i = 1; i < observations[t].size(); ++i) {
      EXPECT_LE(observations[t][i - 1].epoch_before,
                observations[t][i].epoch_before);
    }
  }
  EXPECT_GE(total, static_cast<size_t>(kReaders) * 2);
  // The writer waited for all readers before its first commit (epoch 0 is
  // observed) and every reader takes a final post-done observation (the
  // last epoch is observed): commits provably interleaved with reads.
  EXPECT_GE(epochs_matched.size(), 2u);
  EXPECT_TRUE(epochs_matched.count(0));
  EXPECT_TRUE(epochs_matched.count(2 * kRounds));
}

}  // namespace
}  // namespace svc
