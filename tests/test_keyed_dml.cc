// Key-addressed DELETE (sql/session.cc PinnedKeys + EngineCut::FindRowsByKey)
// against the scan it replaces. A DELETE whose every OR-branch pins the
// whole primary key to exact-type literals looks the keys up; any other
// WHERE scans. Both must queue exactly the rows a naive scan of the lane's
// logical table selects — minus keys already pending delete — in the
// logical table's order, in every engine mode: private, shared, durable,
// and sharded at 1, 2 and 4 shards. Storage order is scrambled first (a
// committed REFRESH with deletes swap-removes rows), so ascending row
// position differs from key order and from the order the WHERE lists keys.
//
// The two tables cover both sharded placements: C's composite INT key
// (a, b) is also its routing key, while S, keyed by a STRING, is
// partitioned by the non-key column g, so its keys do not name a shard.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "sql/params.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/durable_engine.h"
#include "tests/test_util.h"

namespace svc {
namespace {

/// One engine mode under test, with read access to its state.
struct Lane {
  std::string mode;
  std::unique_ptr<SqlSession> session;
  std::shared_ptr<SharedEngine> shared;    // shared and durable lanes
  std::shared_ptr<ShardedEngine> sharded;  // sharded lanes
};

/// What a lane holds for one relation: the logical committed rows in the
/// order EngineCut::GetTable lists them, and each part's delete queue (one
/// part unsharded, one per shard when sharded) in queue order. `owned[s]`
/// says which committed keys shard s stores.
struct LaneState {
  std::vector<Row> logical;
  std::vector<std::vector<Row>> deletes;
  std::vector<std::set<std::string>> owned;
  bool partitioned = false;
};

LaneState Observe(Lane* lane, const std::string& rel) {
  LaneState st;
  auto add_part = [&](const SvcEngine& e) {
    std::vector<Row> queue;
    e.pending().ForEachDelete(rel, [&](const Row& r) { queue.push_back(r); });
    st.deletes.push_back(std::move(queue));
    const Table& t = **e.db().GetTable(rel);
    std::set<std::string> keys;
    for (size_t i = 0; i < t.NumRows(); ++i) keys.insert(t.EncodedKey(i));
    st.owned.push_back(std::move(keys));
  };
  if (lane->sharded != nullptr) {
    ShardedSnapshotPtr snap = lane->sharded->Snapshot();
    st.partitioned = snap->meta->IsPartitionedRelation(rel);
    st.logical = (*lane->sharded->GatherTable(*snap, rel))->rows();
    for (const SnapshotPtr& shard : snap->shards) add_part(shard->engine);
    return st;
  }
  SnapshotPtr snap;
  if (lane->shared != nullptr) snap = lane->shared->Snapshot();
  const SvcEngine& e = snap ? snap->engine : lane->session->engine();
  st.logical = (*e.db().GetTable(rel))->rows();
  add_part(e);
  return st;
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    out.push_back(s);
  }
  return out;
}

class KeyedDeleteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_dir_ = ::testing::TempDir() + "/svc_keyed_dml_" +
                std::to_string(::getpid());
    std::filesystem::remove_all(data_dir_);
    auto add = [&](std::string mode, EngineHandle handle) {
      Lane lane;
      lane.mode = std::move(mode);
      lane.session = std::make_unique<SqlSession>(std::move(handle));
      lanes_.push_back(std::move(lane));
    };
    add("private", EngineHandle::Private());
    auto shared = std::make_shared<SharedEngine>(Database());
    add("shared", EngineHandle::Shared(shared));
    lanes_.back().shared = shared;
    DurableOptions dopts;
    dopts.data_dir = data_dir_;
    dopts.wal.policy = FsyncPolicy::kOff;
    auto durable = DurableEngine::Open(dopts);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    add("durable", EngineHandle::Durable(*durable));
    lanes_.back().shared = (*durable)->shared();
    for (int shards : {1, 2, 4}) {
      auto sharded = std::make_shared<ShardedEngine>(Database(), shards);
      add(std::to_string(shards) + "-shard", EngineHandle::Sharded(sharded));
      lanes_.back().sharded = sharded;
    }

    RunAll("CREATE TABLE C (a INT, b INT, x INT, PRIMARY KEY (a, b))");
    RunAll("CREATE TABLE S (name STRING, g INT, v INT, PRIMARY KEY (name))");
    std::string c = "INSERT INTO C VALUES (9007199254740993, 1, 99)";
    for (int a = 1; a <= 10; ++a) {
      for (int b = 1; b <= 4; ++b) {
        c += ", (" + std::to_string(a) + ", " + std::to_string(b) + ", " +
             std::to_string(a * 10 + b) + ")";
      }
    }
    RunAll(c);
    std::string s = "INSERT INTO S VALUES ";
    for (int i = 0; i < 24; ++i) {
      char name[8];
      std::snprintf(name, sizeof(name), "k%02d", i);
      s += std::string(i > 0 ? ", " : "") + "('" + name + "', " +
           std::to_string(i % 5) + ", " + std::to_string(i * 7 % 50) + ")";
    }
    RunAll(s);
    RunAll("REFRESH ALL");
    RunAll("CREATE MATERIALIZED VIEW CV AS SELECT a, b, x FROM C");
    RunAll(
        "CREATE MATERIALIZED VIEW SV AS SELECT g, COUNT(1) AS c, SUM(v) AS sv "
        "FROM S GROUP BY g");
    // Scramble storage order: REFRESH swap-removes deleted rows.
    RunAll("DELETE FROM C WHERE x < 25");
    RunAll("DELETE FROM S WHERE v % 3 = 0");
    RunAll("INSERT INTO C VALUES (50, 1, 501), (1, 1, 111), (0, 2, 2)");
    RunAll("INSERT INTO S VALUES ('a00', 1, 5), ('zz9', 2, 6)");
    RunAll("REFRESH ALL");
  }

  void TearDown() override {
    lanes_.clear();
    std::filesystem::remove_all(data_dir_);
  }

  /// Runs `sql` on every lane; every result must equal the first lane's.
  void RunAll(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto stmt = ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    RunAll(*stmt, sql);
  }

  void RunAll(const Statement& stmt, const std::string& label) {
    SCOPED_TRACE(label);
    std::string want;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      auto got = lanes_[i].session->Execute(stmt);
      ASSERT_TRUE(got.ok()) << lanes_[i].mode << ": "
                            << got.status().ToString();
      if (i == 0) want = got->message;
      EXPECT_EQ(got->message, want) << lanes_[i].mode;
    }
  }

  /// Runs a DELETE on every lane and checks the rows it queued against a
  /// naive scan of that lane's logical table: every committed row the WHERE
  /// selects and whose key is not already pending delete, in logical
  /// order. A sharded lane must queue on each shard exactly the reference
  /// rows that shard stores, in that order, and build no gather when the
  /// WHERE is key-addressed.
  void CheckDelete(const Statement& stmt, const std::string& label,
                   bool keyed) {
    SCOPED_TRACE(label);
    ASSERT_EQ(stmt.kind, Statement::Kind::kDelete);
    const std::string& rel = stmt.target;
    std::vector<LaneState> before;
    std::vector<uint64_t> gathers;
    for (Lane& lane : lanes_) {
      before.push_back(Observe(&lane, rel));
      gathers.push_back(lane.sharded ? lane.sharded->CoordinatorGathersBuilt()
                                     : 0);
    }
    RunAll(stmt, label);
    // Every lane shares the schema; the private lane's table outlives the
    // check (a DELETE changes only the pending queue).
    const SvcEngine& reference_engine = lanes_[0].session->engine();
    const Table& catalog = **reference_engine.db().GetTable(rel);
    ExprPtr pred = stmt.where->Clone();
    SVC_ASSERT_OK(pred->Bind(catalog.schema()));
    const std::vector<size_t>& pk = catalog.pk_indices();
    for (size_t l = 0; l < lanes_.size(); ++l) {
      Lane& lane = lanes_[l];
      SCOPED_TRACE(lane.mode);
      const LaneState& was = before[l];
      const LaneState now = Observe(&lane, rel);
      std::set<std::string> pending;
      for (const auto& queue : was.deletes) {
        for (const Row& r : queue) pending.insert(EncodeRowKey(r, pk));
      }
      std::vector<Row> reference;
      for (const Row& r : was.logical) {
        if (pred->Eval(r).IsTrue() && !pending.count(EncodeRowKey(r, pk))) {
          reference.push_back(r);
        }
      }
      ASSERT_EQ(now.deletes.size(), was.deletes.size());
      for (size_t p = 0; p < now.deletes.size(); ++p) {
        SCOPED_TRACE("part " + std::to_string(p));
        const std::vector<Row>& queue = now.deletes[p];
        ASSERT_GE(queue.size(), was.deletes[p].size());
        const std::vector<Row> queued(queue.begin() + was.deletes[p].size(),
                                      queue.end());
        std::vector<Row> want;
        for (const Row& r : reference) {
          if (!was.partitioned || was.owned[p].count(EncodeRowKey(r, pk))) {
            want.push_back(r);
          }
        }
        EXPECT_EQ(Render(queued), Render(want));
      }
      if (keyed && lane.sharded) {
        EXPECT_EQ(lane.sharded->CoordinatorGathersBuilt(), gathers[l]);
      }
    }
  }

  void CheckDelete(const std::string& sql, bool keyed) {
    auto stmt = ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    CheckDelete(*stmt, sql, keyed);
  }

  std::string data_dir_;
  std::vector<Lane> lanes_;
};

TEST_F(KeyedDeleteTest, RelationsCoverBothShardedProbePaths) {
  for (const Lane& lane : lanes_) {
    if (lane.sharded == nullptr) continue;
    const ShardedSnapshotPtr snap = lane.sharded->Snapshot();
    const ShardMeta& meta = *snap->meta;
    SCOPED_TRACE(lane.mode);
    ASSERT_TRUE(meta.IsPartitionedRelation("C"));
    ASSERT_TRUE(meta.IsPartitionedRelation("S"));
    EXPECT_EQ(meta.routing.at("C").columns, (std::vector<size_t>{0, 1}));
    EXPECT_EQ(meta.routing.at("S").columns, (std::vector<size_t>{1}));
  }
}

TEST_F(KeyedDeleteTest, StorageOrderIsScrambled) {
  // Ascending key order and storage order must differ on an unsharded
  // lane, or the order checks below would prove nothing.
  LaneState st = Observe(&lanes_[0], "C");
  std::vector<Row> sorted = st.logical;
  std::sort(sorted.begin(), sorted.end(), [](const Row& x, const Row& y) {
    return x[0] < y[0] || (x[0] == y[0] && x[1] < y[1]);
  });
  EXPECT_NE(Render(st.logical), Render(sorted));
}

TEST_F(KeyedDeleteTest, KeyedDeletesQueueWhatTheScanSelects) {
  // Several pinned branches, listed against key and storage order, with
  // extra non-key conjuncts the re-check must apply.
  CheckDelete(
      "DELETE FROM C WHERE (a = 7 AND b = 2) OR (a = 3 AND b = 4 AND x > 0) "
      "OR (a = 9 AND b = 1 AND x < 0) OR (a = 4 AND b = 2 AND x = 42)",
      true);
  // Duplicate keys, pins in either column order, and an absent key.
  CheckDelete(
      "DELETE FROM C WHERE (b = 3 AND a = 10) OR (a = 10 AND b = 3) "
      "OR (a = 99 AND b = 99)",
      true);
  // A key already pending delete is skipped.
  CheckDelete("DELETE FROM C WHERE (a = 7 AND b = 2) OR (a = 6 AND b = 1)",
              true);
  // A key that is only pending insert is not committed: nothing to delete.
  RunAll("INSERT INTO C VALUES (60, 1, 601)");
  CheckDelete("DELETE FROM C WHERE a = 60 AND b = 1", true);
  // Contradictory pins: the lookup hits, the re-check drops it.
  CheckDelete("DELETE FROM C WHERE a = 5 AND b = 2 AND a = 6", true);
  // Literal on the left.
  CheckDelete("DELETE FROM C WHERE 4 = a AND 3 = b", true);
  CheckDelete(
      "DELETE FROM C WHERE (a = 8 AND b = 4) OR (a = 0 AND b = 2) "
      "OR (a = 5 AND b = 3) OR (a = 50 AND b = 1) OR (a = 1 AND b = 1) "
      "OR (a = 8 AND b = 1) OR (a = 9007199254740993 AND b = 1)",
      true);
  CheckDelete(
      "DELETE FROM S WHERE name = 'k17' OR name = 'k04' OR name = 'nope' "
      "OR (name = 'k11' AND v < 0) OR name = 'a00' OR name = 'k22'",
      true);
  CheckDelete("DELETE FROM S WHERE name = 'k04' OR name = 'zz9'", true);
}

TEST_F(KeyedDeleteTest, OtherWhereShapesScanWithTheSameResult) {
  // A branch that pins no key.
  CheckDelete("DELETE FROM C WHERE (a = 6 AND b = 2) OR x = 83", false);
  // A key column left unpinned.
  CheckDelete("DELETE FROM C WHERE a = 9", false);
  // Mixed-type literals: 2^53 as a DOUBLE equals the INT 2^53 + 1 under
  // numeric coercion, but their key encodings differ, so only the scan
  // finds the row.
  CheckDelete("DELETE FROM C WHERE a = 9007199254740992.0 AND b = 1", false);
  CheckDelete("DELETE FROM C WHERE a = 6.0 AND b = 3", false);
  // NULL never pins.
  CheckDelete("DELETE FROM C WHERE a = NULL AND b = 4", false);
  // Inequality and range comparisons.
  CheckDelete("DELETE FROM C WHERE a <> 1 AND b = 4 AND x > 70", false);
  CheckDelete("DELETE FROM S WHERE name <> 'k05' AND v > 40", false);
  CheckDelete("DELETE FROM S WHERE name = 'k13' OR g = 4", false);
}

TEST_F(KeyedDeleteTest, BoundParametersAreKeyAddressed) {
  auto c = ParseStatement("DELETE FROM C WHERE a = ? AND b = ?");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto bound = BindStatementParams(*c, {Value::Int(9), Value::Int(3)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  CheckDelete(*bound, "C params (9, 3)", true);
  auto s = ParseStatement("DELETE FROM S WHERE name = ?");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  bound = BindStatementParams(*s, {Value::String("k21")});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  CheckDelete(*bound, "S param 'k21'", true);
}

TEST_F(KeyedDeleteTest, CommittedStateAgreesAfterRefresh) {
  CheckDelete("DELETE FROM C WHERE (a = 3 AND b = 3) OR (a = 10 AND b = 4)",
              true);
  CheckDelete("DELETE FROM S WHERE name = 'k01' OR name = 'k19'", true);
  RunAll("INSERT INTO C VALUES (3, 3, 333)");
  RunAll("REFRESH ALL");
  for (const char* sql :
       {"SELECT a, b, x FROM C", "SELECT name, g, v FROM S",
        "SELECT COUNT(1) FROM CV WITH SVC(ratio=0.5)"}) {
    SCOPED_TRACE(sql);
    std::vector<std::string> want;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      auto got = lanes_[i].session->Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::vector<std::string> rows = Render(got->rows.rows());
      std::sort(rows.begin(), rows.end());
      if (i == 0) want = rows;
      EXPECT_EQ(rows, want) << lanes_[i].mode;
    }
  }
}

}  // namespace
}  // namespace svc
