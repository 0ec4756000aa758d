#ifndef SVC_CORE_SHARDED_ENGINE_H_
#define SVC_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/shared_engine.h"
#include "core/svc.h"

namespace svc {

/// How the sharded engine places one base relation.
struct ShardRouting {
  /// Column positions (in the relation's schema) the placement hashes on.
  /// Empty = the relation is replicated (full copy on every shard).
  std::vector<size_t> columns;
  bool partitioned() const { return !columns.empty(); }
};

/// The placement catalog published with every sharded snapshot: which
/// relations are hash-partitioned (and by what), which views fan out, and
/// which views pin a relation to stay replicated. Immutable once
/// published; DDL builds a new one.
struct ShardMeta {
  /// Base relation -> placement. Every known relation has an entry.
  std::map<std::string, ShardRouting> routing;
  /// Relation -> views that require it replicated. A pinned relation can
  /// never be re-partitioned (the views' per-shard state would break).
  std::map<std::string, std::set<std::string>> replicated_pins;
  /// View -> true when the view is partitioned-class (its per-shard
  /// contents partition the global view; queries fan out and merge).
  /// False = replicated-class (every shard holds the identical full view;
  /// reads are served from shard 0).
  std::map<std::string, bool> view_partitioned;

  bool IsPartitionedRelation(const std::string& relation) const {
    auto it = routing.find(relation);
    return it != routing.end() && it->second.partitioned();
  }
  bool IsPartitionedView(const std::string& view) const {
    auto it = view_partitioned.find(view);
    return it != view_partitioned.end() && it->second;
  }
};

/// One consistent cross-shard cut: per-shard engine snapshots taken
/// together with the placement catalog that describes them. Readers hold
/// the pointer and query freely; a concurrent statement publishes a whole
/// new cut, so a reader never sees shard A after a statement and shard B
/// before it.
struct ShardedSnapshot {
  /// Monotonic statement counter: +1 per published statement.
  uint64_t version = 0;
  /// The logical pending-queue mutation counter — what an unsharded
  /// engine's DeltaSet::version() reports for the same statement history:
  /// +1 per row queued by InsertRows / DeleteRows (a replicated row counts
  /// once, not once per shard), +1 per Refresh.
  uint64_t delta_version = 0;
  /// One snapshot per shard, in shard-index order.
  std::vector<SnapshotPtr> shards;
  std::shared_ptr<const ShardMeta> meta;
};

using ShardedSnapshotPtr = std::shared_ptr<const ShardedSnapshot>;

/// N `SharedEngine` shards behind one engine facade: base tables and their
/// pending `DeltaSet` queues are hash-partitioned by each view's sampling
/// key (`KeyHash` over the encoded key bytes — the same FNV-1a/splitmix64
/// hash the executor's `KeyBuffer` uses), so a sampling key's rows — and
/// therefore its η-sample membership — live on exactly one shard. SVC
/// queries fan out to the per-shard snapshots on the shared `ThreadPool`:
/// each shard cleans its sample locally (each shard has its own
/// `SampleCache`) and, for sum, count and avg, returns exact partial
/// moments of q(S) and of its sample (SvcEngine::QueryPart), which the
/// coordinator only adds. Exact sums do not depend on how the rows split
/// into shards, so every answer is bit-identical at every shard count.
/// Only auto mode's §5.2.2 choice, the bootstrap and the extrema still
/// merge the per-shard samples in canonical order (core/estimator_merge.h),
/// and only median, min and max still gather the stale view.
///
/// Placement is derived, not declared: relations start replicated; CREATE
/// VIEW pushes the view's sampling key down its plan (the same Theorem-1
/// rewriter η uses) and partitions exactly the relations the key reaches
/// as a scan-level filter, re-routing their queued deltas. Relations the
/// key cannot reach (e.g. the unfiltered side of a one-sided join push)
/// stay replicated and are pinned. Views whose key pushes nowhere fall
/// back to replicated-class: every shard materializes the identical full
/// view and reads come from shard 0. Conflicting demands (one view needs
/// R partitioned, another needs it replicated — or partitioned by a
/// different key) fail CREATE VIEW with NotSupported naming the conflict.
///
/// Concurrency: statements (writes + DDL) are serialized by one statement
/// mutex and commit per shard through each shard's `SharedEngine`;
/// `Refresh` commits the shards' maintenance in parallel — one shard's
/// maintenance never stalls another shard's commit, and readers are never
/// stalled at all: they read the last published cut until the whole
/// statement lands, then the new cut is swapped in atomically (O(shards)
/// pointer copies).
class ShardedEngine {
 public:
  /// Starts with every relation of `db` replicated across `num_shards`
  /// shards (clamped to >= 1).
  ShardedEngine(Database db, int num_shards);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Joins the maintenance thread (StopMaintenance) before shards die.
  ~ShardedEngine();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The current published cut. Cheap; safe from any thread.
  ShardedSnapshotPtr Snapshot() const;
  uint64_t version() const { return Snapshot()->version; }

  // ---- Statements (serialized; each publishes one new cut) ----------------
  /// Broadcasts the table to every shard (relations start replicated).
  Status CreateTable(const std::string& name, Table table);

  /// Derives the view's placement (see class comment), re-partitions any
  /// newly partitioned relations, and creates the view on every shard.
  Status CreateView(const std::string& name, PlanPtr definition,
                    std::vector<std::string> sampling_key = {});

  /// Queues inserts, routed to the owning shard (replicated relations
  /// broadcast to every shard). One commit per involved shard; the cut is
  /// published once all land. Rows must already be validated (the SQL
  /// layer checks keys against a snapshot first) — a per-shard failure
  /// aborts with the remaining shards unchanged.
  Status InsertRows(const std::string& relation, std::vector<Row> rows);
  Status InsertRecord(const std::string& relation, Row row);

  /// Queues deletes of the given full rows (routed like InsertRows).
  Status DeleteRows(const std::string& relation, std::vector<Row> rows);

  /// Maintenance: every shard runs MaintainAll on its own fork, committed
  /// per shard in parallel. `committed_inserts`/`committed_deletes`
  /// (optional) receive the logical row counts that were committed
  /// (replicated relations count once, not once per shard).
  Status Refresh(size_t* committed_inserts = nullptr,
                 size_t* committed_deletes = nullptr);

  // ---- Reads (against one snapshot cut) -----------------------------------
  /// SVC estimate on the named view. Partitioned-class views fan out and
  /// finish at the coordinator (FinishSvcQuery); replicated-class views
  /// answer from shard 0 (identical state everywhere).
  Result<SvcAnswer> Query(const ShardedSnapshot& snap, const std::string& view,
                          const AggregateQuery& q,
                          const SvcQueryOptions& opts = {}) const;

  /// Per-group variant of Query.
  Result<SvcGroupedAnswer> QueryGrouped(
      const ShardedSnapshot& snap, const std::string& view,
      const std::vector<std::string>& group_columns, const AggregateQuery& q,
      const SvcQueryOptions& opts = {}) const;

  /// The full logical contents of table `name` under `snap`: partitioned
  /// relations/views merge their shard parts in canonical order
  /// (memoized per shard-part identity, so repeated gathers between
  /// maintenance commits are free); everything else is shard 0's table.
  /// Plain SELECT and the q(S) of median, min and max read through it.
  Result<std::shared_ptr<const Table>> GatherTable(
      const ShardedSnapshot& snap, const std::string& name) const;

  /// The committed rows of base relation `relation` under `snap` whose
  /// primary keys equal those of `key_rows` (full-width rows; only the key
  /// columns are read), each once, in GatherTable's order: primary-key
  /// value order for a partitioned relation, shard 0's storage order for a
  /// replicated one. Probes key indexes (every shard's for a partitioned
  /// relation, shard 0's for a replicated one) and never gathers. Requires
  /// a primary key.
  Result<std::vector<Row>> FindRowsByKey(
      const ShardedSnapshot& snap, const std::string& relation,
      const std::vector<Row>& key_rows) const;

  /// A scratch catalog holding GatherTable(name) for every `name`, against
  /// which coordinator-side plans (plain SELECT) execute.
  Result<Database> GatherDatabase(const ShardedSnapshot& snap,
                                  const std::vector<std::string>& names) const;

  /// Logical pending-delta row counts under `snap` (replicated relations
  /// count shard 0 only; partitioned relations sum their shards).
  void PendingCounts(const ShardedSnapshot& snap, size_t* inserts,
                     size_t* deletes) const;

  /// Logical pending rows for one relation under `snap`.
  size_t PendingRowsFor(const ShardedSnapshot& snap,
                        const std::string& relation) const;

  /// Enables/disables every shard's sample cache, and with it the shards'
  /// and the coordinator's stale-side memos (new statements fork from the
  /// current heads, so this takes effect at the next commit; call it
  /// before serving).
  void set_sample_cache_enabled(bool enabled);

  // ---- Maintenance policy (docs/ARCHITECTURE.md "Maintenance policy") -----
  /// Publishes `cfg` on every shard as one statement (every shard's policy
  /// is always identical — the scheduler reads shard 0's).
  Status SetMaintenancePolicy(const MaintenancePolicyConfig& cfg);
  MaintenancePolicyConfig maintenance_policy() const {
    return Snapshot()->shards[0]->engine.maintenance_policy();
  }

  /// Starts/stops the coordinator's scheduler thread — one thread for the
  /// whole engine, fanning each policy refresh out per shard through
  /// Refresh(). Same contract as SharedEngine's pair: idempotent, and after
  /// StopMaintenance returns no policy refresh is in flight.
  void StartMaintenance();
  void StopMaintenance();

  /// One deterministic scheduler evaluation against the current cut:
  /// scores with logical pending counts and coordinator-merged probes (so
  /// scores are bit-identical at any shard count) and runs one parallel
  /// Refresh when any view crosses the threshold. Returns true iff it
  /// refreshed; no-op (false) under mode=off.
  Result<bool> MaintenanceTick(uint64_t elapsed_ms);

  MaintenanceStats maintenance_stats() const;

  /// Coordinator-side view scores under `snap` (SHOW MAINTENANCE and the
  /// tick): pending rows are logical (PendingRowsFor), view rows are the
  /// sum of the shard parts' row counts, and the error probe is an
  /// auto-mode COUNT(*) — all shard-count-invariant, and nothing gathers.
  Result<std::vector<ViewMaintenanceScore>> ScoreViews(
      const ShardedSnapshot& snap, const MaintenancePolicyConfig& cfg,
      uint64_t elapsed_ms) const;

  /// Logical per-view serving counters: partitioned-class views count one
  /// event per coordinator query (a fan-out is one logical serving event,
  /// however many shards it touched); replicated-class views read shard
  /// 0's counters (their queries only ever touch shard 0's cache). The
  /// numbers are shard-count-invariant.
  std::map<std::string, ViewCacheStats> CoordinatorCacheStats(
      const ShardedSnapshot& snap) const;

  /// Lookup counters of the coordinator's stale-side memo (the q(S) of
  /// median, min and max over gathered partitioned-class views). Each
  /// shard's engine lineage keeps its own memo for η and for its q(S)
  /// moments (EngineSnapshot::engine.StaleMemoStats()).
  StaleMemo::Stats CoordinatorStaleMemoStats() const {
    return stale_memo_.stats();
  }

  /// Cross-shard merges GatherTable has built (its cache misses) over the
  /// engine's lifetime. An in-process diagnostic, not a SHOW STATS column.
  uint64_t CoordinatorGathersBuilt() const {
    return gathers_built_.load(std::memory_order_relaxed);
  }

  /// Runs `fn` with the statement lock held, so validation done inside
  /// `fn` against `Snapshot()` cannot race another session's write landing
  /// in between (the SQL layer checks INSERT keys against a snapshot and
  /// then commits — that read-validate-write must be one critical
  /// section). `fn` may call any statement method on this engine (the
  /// lock is recursive); reads never take this lock.
  Status WithStatementLock(const std::function<Status()>& fn);

 private:
  void MaintenanceLoop();

  /// Folds per-shard cache outcomes into one logical serving event for
  /// `view` (any full clean dominates, else any advance, else a hit) and
  /// records it in fanout_stats_.
  void RecordFanOutOutcome(const std::string& view,
                           const std::vector<CacheOutcome>& outcomes) const;

  /// InsertRows / DeleteRows: routes each row to its owning shard
  /// (replicated relations broadcast), one commit per involved shard, then
  /// publishes one cut.
  Status QueueRows(const std::string& relation, std::vector<Row> rows,
                   bool deletes);

  /// Re-reads every shard's head and publishes them as one cut with
  /// `meta`, advancing the cut's delta_version by `delta_mutations`.
  /// Caller holds stmt_mu_.
  void PublishLocked(std::shared_ptr<const ShardMeta> meta,
                     uint64_t delta_mutations = 0);

  /// The shard owning the encoded routing-key bytes.
  size_t OwnerShard(const std::string& key_bytes) const;

  /// Derives the placement a new view demands: which relations it needs
  /// partitioned (and by which columns) and which it needs replicated.
  struct ViewPlacement {
    bool partitioned_class = false;
    std::map<std::string, std::vector<size_t>> partition_by;
    std::set<std::string> need_replicated;
  };
  Result<ViewPlacement> DerivePlacement(const std::string& name,
                                        const PlanPtr& definition,
                                        const std::vector<std::string>& key,
                                        const ShardedSnapshot& snap) const;

  /// Every shard's part of a query on a partitioned view, computed in
  /// parallel (SvcEngine::QueryPart), with the fan-out's serving event
  /// recorded.
  Result<std::vector<SvcQueryPart>> FanOutQuery(
      const ShardedSnapshot& snap, const std::string& view,
      const std::vector<std::string>& group_columns, const AggregateQuery& q,
      const SvcQueryOptions& opts) const;

  /// The coordinator memo when `snap`'s sample caches are on, else null
  /// (every shard's switch is identical; shard 0's is read).
  StaleMemo* CoordinatorMemo(const ShardedSnapshot& snap) const {
    return snap.shards[0]->engine.sample_cache_enabled() ? &stale_memo_
                                                          : nullptr;
  }

  std::vector<std::unique_ptr<SharedEngine>> shards_;

  /// Serializes statements (writes + DDL). Recursive so WithStatementLock
  /// callers can invoke statement methods while holding it.
  std::recursive_mutex stmt_mu_;
  /// Guards head_ loads/stores.
  mutable std::mutex head_mu_;
  ShardedSnapshotPtr head_;

  /// Memoized cross-shard table merges, validated by part identity.
  struct GatherEntry {
    std::vector<std::shared_ptr<const Table>> parts;
    std::shared_ptr<const Table> merged;
  };
  mutable std::mutex gather_mu_;
  mutable std::map<std::string, GatherEntry> gather_cache_;
  mutable std::atomic<uint64_t> gathers_built_{0};

  /// Median / min / max q(S) over gathered views, validated by the merged
  /// table's identity (GatherTable installs a new object whenever a shard
  /// part changes).
  mutable StaleMemo stale_memo_;

  /// Logical serving counters for partitioned-class views (one event per
  /// coordinator fan-out; see CoordinatorCacheStats).
  mutable std::mutex fanout_stats_mu_;
  mutable std::map<std::string, ViewCacheStats> fanout_stats_;

  /// Coordinator maintenance-scheduler state (mirrors SharedEngine's).
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  std::thread maint_thread_;
  bool maint_stop_ = false;
  std::atomic<uint64_t> maint_ticks_{0};
  std::atomic<uint64_t> maint_warms_{0};
  std::atomic<uint64_t> maint_refreshes_{0};
};

}  // namespace svc

#endif  // SVC_CORE_SHARDED_ENGINE_H_
