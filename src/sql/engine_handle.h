#ifndef SVC_SQL_ENGINE_HANDLE_H_
#define SVC_SQL_ENGINE_HANDLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/maintenance_policy.h"
#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "core/svc.h"
#include "storage/durable_engine.h"
#include "storage/ops.h"

namespace svc {

/// One statement's consistent view of an engine, whatever its mode: the
/// private engine, a published shared (or durable) snapshot, a sharded cut,
/// or — inside EngineHandle::Write — the head the statement is about to
/// replace. Every quantity it reports is *logical*: a sharded cut gathers
/// partitioned rows and counts a replicated relation's per-shard copies
/// once, so a statement handler written against the cut behaves the same in
/// every mode.
class EngineCut {
 public:
  /// Catalog metadata: view definitions, table schemas, the maintenance
  /// policy and executor defaults. A sharded cut answers with shard 0's
  /// engine — catalogs are identical on every shard, but its rows are only
  /// shard 0's part, so read rows through GetTable / NumRows.
  const SvcEngine& catalog() const { return *engine_; }

  /// The logical rows of table or view `name`: the stored table itself
  /// (zero-copy) unless sharded, where partitioned relations merge their
  /// shard parts through ShardedEngine::GatherTable (memoized).
  Result<std::shared_ptr<const Table>> GetTable(const std::string& name) const;

  /// Logical row count of table or view `name`, without gathering.
  Result<size_t> NumRows(const std::string& name) const;

  /// The committed rows of base table `name` whose primary keys equal
  /// those of `key_rows` (full-width rows; only the key columns are read),
  /// each row once, listed in the order GetTable(name)->rows() lists them.
  /// Costs O(keys), not O(table): a sharded cut probes the shards' key
  /// indexes (ShardedEngine::FindRowsByKey) and never gathers. Requires a
  /// primary key.
  Result<std::vector<Row>> FindRowsByKey(
      const std::string& name, const std::vector<Row>& key_rows) const;

  /// The database a plain SELECT plans and runs against: the engine's own
  /// (no copy) unless sharded, where every user relation is gathered into
  /// `*scratch`.
  Result<const Database*> SelectDatabase(Database* scratch) const;

  /// SVC estimates (SvcEngine::Query / ShardedEngine::Query semantics).
  Result<SvcAnswer> Query(const std::string& view, const AggregateQuery& q,
                          const SvcQueryOptions& opts) const;
  Result<SvcGroupedAnswer> QueryGrouped(
      const std::string& view, const std::vector<std::string>& group_columns,
      const AggregateQuery& q, const SvcQueryOptions& opts) const;

  /// Visits each pending queue holding part of `relation`'s logical delta
  /// rows, each logical row exactly once across the visits.
  void ForEachPendingSet(const std::string& relation,
                         const std::function<void(const DeltaSet&)>& fn) const;
  /// Logical pending insert + delete rows of `relation`.
  size_t PendingRows(const std::string& relation) const;
  /// Logical pending rows across every relation.
  void PendingTotals(size_t* inserts, size_t* deletes) const;

  /// Per-view serving counters (one logical event per query).
  std::map<std::string, ViewCacheStats> CacheStats() const;
  /// The pending queue's logical mutation counter: rows queued plus one per
  /// maintenance commit.
  uint64_t delta_version() const;
  /// Maintenance-policy view scores (core/maintenance_policy.h).
  Result<std::vector<ViewMaintenanceScore>> ScoreViews(
      const MaintenancePolicyConfig& cfg, uint64_t elapsed_ms) const;

  /// Applies one mutation. Only a cut handed out by EngineHandle::Write may
  /// apply, and a statement applies at most once. A durable cut first
  /// encodes `op` as the commit's WAL payload. The op then goes through
  /// ApplyDurableOp — the function WAL replay uses — on the engine, or on
  /// the sharded engine's op router. Reads made afterwards see the result;
  /// a sharded cut rebinds to the new head, so references taken from
  /// catalog() before Apply must not be used after it.
  Status Apply(DurableOp op);

 private:
  friend class EngineHandle;
  EngineCut() = default;

  /// Binds the cut to the sharded engine's current head.
  void ReadShardedHead();

  /// Runs `fn` over each engine holding part of `name`'s logical contents:
  /// the cut's engine unless sharded, where a partitioned relation or view
  /// spans every shard and anything else is whole on shard 0.
  template <typename Fn>
  Status ForEachPart(const std::string& name, Fn fn) const;

  const SvcEngine* engine_ = nullptr;  ///< the engine, or shard 0's
  SnapshotPtr snapshot_;               ///< holds a shared read alive
  ShardedEngine* sharded_ = nullptr;
  ShardedSnapshotPtr shard_cut_;  ///< null unless sharded
  // Write cuts only.
  SvcEngine* writable_ = nullptr;  ///< the fork, or the private engine
  bool owned_ = false;             ///< writable_ is the private engine
  std::string* wal_ = nullptr;     ///< durable commit payload
};

/// Names the engine a session (or server) runs on — exactly one of:
///
///   * **Private**: the handle owns a SvcEngine (shared-nothing; one
///     engine per session).
///   * **Shared**: the handle addresses a SharedEngine; many sessions run
///     concurrently with snapshot isolation.
///   * **Durable**: shared-mode semantics over a DurableEngine (each write
///     is one WAL-logged commit).
///   * **Sharded**: the handle addresses a ShardedEngine; statements run
///     against hash-partitioned shards, reads against one published cut.
///
/// The handle is the one place that knows the mode: Read() and Write() hand
/// statements an EngineCut, so callers (svc_shell, svc_served, SqlSession)
/// never branch on it. Move-only, like the engine ownership it carries.
class EngineHandle {
 public:
  /// A fresh private engine over an empty catalog.
  static EngineHandle Private() { return Private(Database()); }
  /// A private engine over pre-loaded base relations.
  static EngineHandle Private(Database db) {
    return Private(SvcEngine(std::move(db)));
  }
  /// A private engine adopting existing engine state — e.g. a copy of a
  /// SharedEngine snapshot's engine, for deterministic offline replay.
  static EngineHandle Private(SvcEngine engine) {
    EngineHandle h;
    h.own_ = std::make_unique<SvcEngine>(std::move(engine));
    return h;
  }
  /// A handle onto a shared (snapshot-isolated) engine.
  static EngineHandle Shared(std::shared_ptr<SharedEngine> shared) {
    EngineHandle h;
    h.shared_ = std::move(shared);
    return h;
  }
  /// A handle onto a durable engine: shared-mode semantics plus the WAL.
  static EngineHandle Durable(std::shared_ptr<DurableEngine> durable) {
    EngineHandle h;
    h.shared_ = durable->shared();
    h.durable_ = std::move(durable);
    return h;
  }
  /// A handle onto a sharded engine (scatter-gather serving).
  static EngineHandle Sharded(std::shared_ptr<ShardedEngine> sharded) {
    EngineHandle h;
    h.sharded_ = std::move(sharded);
    return h;
  }

  /// True iff the handle addresses a SharedEngine (durable included).
  bool is_shared() const { return shared_ != nullptr; }
  /// True iff the handle addresses a DurableEngine.
  bool is_durable() const { return durable_ != nullptr; }
  /// The owned engine (null unless private mode).
  SvcEngine* private_engine() const { return own_.get(); }
  /// The shared engine (null in private and sharded mode).
  const std::shared_ptr<SharedEngine>& shared() const { return shared_; }
  /// The durable engine (null unless durable mode).
  const std::shared_ptr<DurableEngine>& durable() const { return durable_; }

  /// A read cut: the private engine, the current published snapshot, or
  /// the current sharded cut — held alive (and unaffected by concurrent
  /// commits) for as long as the cut lives.
  EngineCut Read() const;

  /// Runs `fn` on a write cut of the head under the mode's serialization:
  /// in place on a private engine; on the fork of one SharedEngine::Commit
  /// (validation and mutation are atomic and serialized against other
  /// writers, and an error publishes nothing); inside one
  /// DurableEngine::CommitLogged, carrying `idem`, so the applied op is
  /// WAL-appended before the commit publishes; or under the sharded
  /// engine's statement lock, so validation against the cut and the
  /// commit are one critical section.
  Status Write(const std::function<Status(EngineCut&)>& fn,
               const DurableEngine::IdemMark& idem);

 private:
  EngineHandle() = default;  // factories fill exactly one mode

  std::unique_ptr<SvcEngine> own_;
  std::shared_ptr<SharedEngine> shared_;
  std::shared_ptr<DurableEngine> durable_;
  std::shared_ptr<ShardedEngine> sharded_;
};

}  // namespace svc

#endif  // SVC_SQL_ENGINE_HANDLE_H_
