#include "core/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/flat_map.h"
#include "common/thread_pool.h"
#include "core/estimator_merge.h"
#include "core/stale_memo.h"
#include "relational/algebra.h"
#include "relational/value.h"
#include "sample/pushdown.h"
#include "view/view.h"

namespace svc {

namespace {

/// Number of scan nodes per base relation in `plan`. Placement needs the
/// count (not just the set): a relation is partitionable only when *every*
/// one of its scans received the pushed-down sampling filter.
void CountScans(const PlanNode& plan, std::map<std::string, int>* counts) {
  if (plan.kind() == PlanKind::kScan) {
    ++(*counts)[plan.table_name()];
    return;
  }
  for (const auto& child : plan.children()) CountScans(*child, counts);
}

}  // namespace

ShardedEngine::ShardedEngine(Database db, int num_shards) {
  const int n = num_shards < 1 ? 1 : num_shards;
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<SharedEngine>(Database(db)));
  }
  auto meta = std::make_shared<ShardMeta>();
  for (const std::string& name : db.TableNames()) {
    meta->routing[name] = ShardRouting{};
  }
  auto head = std::make_shared<ShardedSnapshot>();
  head->meta = std::move(meta);
  head->shards.reserve(shards_.size());
  for (auto& shard : shards_) head->shards.push_back(shard->Snapshot());
  head_ = std::move(head);
}

ShardedEngine::~ShardedEngine() { StopMaintenance(); }

ShardedSnapshotPtr ShardedEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

void ShardedEngine::PublishLocked(std::shared_ptr<const ShardMeta> meta,
                                  uint64_t delta_mutations) {
  auto next = std::make_shared<ShardedSnapshot>();
  next->meta = std::move(meta);
  next->shards.reserve(shards_.size());
  for (auto& shard : shards_) next->shards.push_back(shard->Snapshot());
  std::lock_guard<std::mutex> lock(head_mu_);
  next->version = head_->version + 1;
  next->delta_version = head_->delta_version + delta_mutations;
  head_ = std::move(next);
}

size_t ShardedEngine::OwnerShard(const std::string& key_bytes) const {
  return static_cast<size_t>(KeyHash(key_bytes) % shards_.size());
}

Status ShardedEngine::CreateTable(const std::string& name, Table table) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  auto meta = std::make_shared<ShardMeta>(*Snapshot()->meta);
  for (auto& shard : shards_) {
    SVC_RETURN_IF_ERROR(shard->CreateTable(name, Table(table)));
  }
  meta->routing[name] = ShardRouting{};
  PublishLocked(std::move(meta));
  return Status::OK();
}

Result<ShardedEngine::ViewPlacement> ShardedEngine::DerivePlacement(
    const std::string& name, const PlanPtr& definition,
    const std::vector<std::string>& key, const ShardedSnapshot& snap) const {
  // Probe against a throwaway copy of shard 0's catalog: validates the
  // definition and yields the stored schema, sampling key, and augmented
  // plan. The probe's materialized contents (built on shard 0's partial
  // data) are discarded — only the plan analysis is kept.
  Database probe = snap.shards[0]->engine.db();
  SVC_ASSIGN_OR_RETURN(MaterializedView view,
                       MaterializedView::Create(name, definition, &probe, key));

  std::map<std::string, int> scan_counts;
  CountScans(*view.augmented_plan(), &scan_counts);

  // Run the Theorem-1 rewriter with a recording factory: wherever the
  // sampling key would land as a scan-level filter, record (relation,
  // resolved key columns) and leave the plan unchanged. The rewriter also
  // hands blocked (non-scan) stop sites to the factory — those are not
  // routing sites and are skipped; report.blocked counts them.
  std::map<std::string, std::vector<std::vector<size_t>>> sites;
  bool record_failed = false;
  FilterFactory factory =
      [&](PlanPtr child, const std::vector<std::string>& attrs) -> PlanPtr {
    if (child != nullptr && child->kind() == PlanKind::kScan) {
      Result<Schema> schema = ComputeSchema(*child, probe);
      if (!schema.ok()) {
        record_failed = true;
        return child;
      }
      Result<std::vector<size_t>> idx = schema->ResolveAll(attrs);
      if (!idx.ok()) {
        record_failed = true;
        return child;
      }
      sites[child->table_name()].push_back(std::move(idx).value());
    }
    return child;
  };
  PushdownReport report;
  Result<PlanPtr> pushed = PushDownFilter(*view.augmented_plan(),
                                          view.sampling_key(), factory, probe,
                                          &report);

  ViewPlacement placement;
  bool partitionable = pushed.ok() && !record_failed && report.blocked == 0;
  if (partitionable) {
    for (const auto& [rel, count] : scan_counts) {
      auto sit = sites.find(rel);
      if (sit == sites.end()) {
        // The key never reaches this relation (e.g. the unfiltered side
        // of a one-sided join push): every shard needs all of it.
        placement.need_replicated.insert(rel);
        continue;
      }
      const std::vector<std::vector<size_t>>& cols_list = sit->second;
      bool consistent = static_cast<int>(cols_list.size()) == count;
      for (size_t i = 1; consistent && i < cols_list.size(); ++i) {
        consistent = cols_list[i] == cols_list[0];
      }
      if (!consistent) {
        // Filtered and unfiltered scans of the same relation (or two
        // different key mappings): it cannot be both partitioned and
        // whole. The view falls back to replicated-class.
        partitionable = false;
        break;
      }
      placement.partition_by[rel] = cols_list[0];
    }
  }
  if (!partitionable || placement.partition_by.empty()) {
    placement = ViewPlacement{};
    for (const std::string& rel : view.base_relations()) {
      placement.need_replicated.insert(rel);
    }
    return placement;
  }
  placement.partitioned_class = true;
  return placement;
}

Status ShardedEngine::CreateView(const std::string& name, PlanPtr definition,
                                 std::vector<std::string> sampling_key) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  ShardedSnapshotPtr snap = Snapshot();
  SVC_ASSIGN_OR_RETURN(
      ViewPlacement placement,
      DerivePlacement(name, definition, sampling_key, *snap));

  const ShardMeta& cur = *snap->meta;
  auto meta = std::make_shared<ShardMeta>(cur);
  std::map<std::string, std::vector<size_t>> to_repartition;
  if (placement.partitioned_class) {
    for (const auto& [rel, cols] : placement.partition_by) {
      auto rit = cur.routing.find(rel);
      const bool already =
          rit != cur.routing.end() && rit->second.partitioned();
      if (already) {
        if (rit->second.columns != cols) {
          return Status::NotSupported(
              "view '" + name + "' would hash-partition relation '" + rel +
              "' by a different key than its current partitioning; create "
              "views sharing a relation with a compatible sampling key");
        }
        continue;
      }
      auto pit = cur.replicated_pins.find(rel);
      if (pit != cur.replicated_pins.end() && !pit->second.empty()) {
        return Status::NotSupported(
            "view '" + name + "' needs relation '" + rel +
            "' hash-partitioned, but view '" + *pit->second.begin() +
            "' requires it replicated on every shard");
      }
      to_repartition[rel] = cols;
    }
  }
  for (const std::string& rel : placement.need_replicated) {
    if (cur.IsPartitionedRelation(rel)) {
      return Status::NotSupported(
          "view '" + name + "' needs relation '" + rel +
          "' replicated on every shard, but it is hash-partitioned by an "
          "existing view's sampling key");
    }
    meta->replicated_pins[rel].insert(name);
  }
  for (const auto& [rel, cols] : to_repartition) {
    meta->routing[rel] = ShardRouting{cols};
  }
  meta->view_partitioned[name] = placement.partitioned_class;

  for (size_t s = 0; s < shards_.size(); ++s) {
    SVC_RETURN_IF_ERROR(shards_[s]->Commit([&](SvcEngine* e) -> Status {
      for (const auto& entry : to_repartition) {
        const std::string& rel = entry.first;
        const std::vector<size_t>& cols = entry.second;
        SVC_RETURN_IF_ERROR(
            e->RepartitionRelation(rel, [this, &cols, s](const Row& r) {
              return OwnerShard(EncodeRowKey(r, cols)) == s;
            }));
      }
      return e->CreateView(name, definition, sampling_key);
    }));
  }
  PublishLocked(std::move(meta));
  return Status::OK();
}

Status ShardedEngine::QueueRows(const std::string& relation,
                                std::vector<Row> rows, bool deletes) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  ShardedSnapshotPtr snap = Snapshot();
  const size_t n = shards_.size();
  const uint64_t logical_rows = rows.size();
  auto rit = snap->meta->routing.find(relation);
  const bool partitioned =
      rit != snap->meta->routing.end() && rit->second.partitioned();
  std::vector<std::vector<Row>> groups(n);
  if (partitioned) {
    for (Row& r : rows) {
      const size_t owner = OwnerShard(EncodeRowKey(r, rit->second.columns));
      groups[owner].push_back(std::move(r));
    }
  }
  for (size_t s = 0; s < n; ++s) {
    const std::vector<Row>& batch = partitioned ? groups[s] : rows;
    if (batch.empty()) continue;
    SVC_RETURN_IF_ERROR(shards_[s]->Commit([&](SvcEngine* e) -> Status {
      for (const Row& r : batch) {
        SVC_RETURN_IF_ERROR(deletes ? e->DeleteRecord(relation, r)
                                    : e->InsertRecord(relation, r));
      }
      return Status::OK();
    }));
  }
  PublishLocked(snap->meta, logical_rows);
  return Status::OK();
}

Status ShardedEngine::InsertRows(const std::string& relation,
                                 std::vector<Row> rows) {
  return QueueRows(relation, std::move(rows), /*deletes=*/false);
}

Status ShardedEngine::InsertRecord(const std::string& relation, Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return InsertRows(relation, std::move(rows));
}

Status ShardedEngine::DeleteRows(const std::string& relation,
                                 std::vector<Row> rows) {
  return QueueRows(relation, std::move(rows), /*deletes=*/true);
}

Status ShardedEngine::Refresh(size_t* committed_inserts,
                              size_t* committed_deletes) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  ShardedSnapshotPtr snap = Snapshot();
  size_t ins = 0;
  size_t del = 0;
  PendingCounts(*snap, &ins, &del);
  // Each shard maintains and commits independently, in parallel: a slow
  // shard never serializes behind the others, and readers keep the old
  // cut until every shard has landed.
  const size_t n = shards_.size();
  std::vector<Status> statuses(n);
  ParallelFor(static_cast<int>(n), n,
              [&](size_t s) { statuses[s] = shards_[s]->Refresh(); });
  for (const Status& st : statuses) SVC_RETURN_IF_ERROR(st);
  PublishLocked(snap->meta, /*delta_mutations=*/1);
  if (committed_inserts != nullptr) *committed_inserts = ins;
  if (committed_deletes != nullptr) *committed_deletes = del;
  return Status::OK();
}

void ShardedEngine::PendingCounts(const ShardedSnapshot& snap, size_t* inserts,
                                  size_t* deletes) const {
  *inserts = 0;
  *deletes = 0;
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    const DeltaSet& pending = snap.shards[s]->engine.pending();
    for (const std::string& rel : pending.TouchedRelations()) {
      // Replicated relations queue a copy of every delta on every shard;
      // count the logical rows once (shard 0's copy).
      if (!snap.meta->IsPartitionedRelation(rel) && s != 0) continue;
      *inserts += pending.InsertRows(rel);
      *deletes += pending.DeleteRows(rel);
    }
  }
}

size_t ShardedEngine::PendingRowsFor(const ShardedSnapshot& snap,
                                     const std::string& relation) const {
  if (snap.meta->IsPartitionedRelation(relation)) {
    size_t total = 0;
    for (const auto& shard : snap.shards) {
      const DeltaSet& p = shard->engine.pending();
      total += p.InsertRows(relation) + p.DeleteRows(relation);
    }
    return total;
  }
  const DeltaSet& p = snap.shards[0]->engine.pending();
  return p.InsertRows(relation) + p.DeleteRows(relation);
}

void ShardedEngine::set_sample_cache_enabled(bool enabled) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  for (auto& shard : shards_) {
    (void)shard->Commit([&](SvcEngine* e) -> Status {
      e->set_sample_cache_enabled(enabled);
      return Status::OK();
    });
  }
  PublishLocked(Snapshot()->meta);
}

Status ShardedEngine::WithStatementLock(const std::function<Status()>& fn) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  return fn();
}

Status ShardedEngine::SetMaintenancePolicy(const MaintenancePolicyConfig& cfg) {
  std::lock_guard<std::recursive_mutex> stmt(stmt_mu_);
  for (auto& shard : shards_) {
    SVC_RETURN_IF_ERROR(shard->SetMaintenancePolicy(cfg));
  }
  PublishLocked(Snapshot()->meta);
  return Status::OK();
}

void ShardedEngine::StartMaintenance() {
  std::lock_guard<std::mutex> lock(maint_mu_);
  if (maint_thread_.joinable()) return;  // already running
  maint_stop_ = false;
  maint_thread_ = std::thread([this] { MaintenanceLoop(); });
}

void ShardedEngine::StopMaintenance() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(maint_mu_);
    if (!maint_thread_.joinable()) return;
    maint_stop_ = true;
    t = std::move(maint_thread_);
  }
  maint_cv_.notify_all();
  t.join();
}

Result<bool> ShardedEngine::MaintenanceTick(uint64_t elapsed_ms) {
  ShardedSnapshotPtr snap = Snapshot();
  const MaintenancePolicyConfig cfg =
      snap->shards[0]->engine.maintenance_policy();
  if (cfg.mode == MaintenancePolicyConfig::Mode::kOff) return false;
  maint_ticks_.fetch_add(1, std::memory_order_relaxed);
  SVC_ASSIGN_OR_RETURN(std::vector<ViewMaintenanceScore> scores,
                       ScoreViews(*snap, cfg, elapsed_ms));
  uint64_t warms = 0;
  for (const ViewMaintenanceScore& s : scores) {
    if (s.action == MaintenanceAction::kWarm) ++warms;
  }
  if (warms > 0) maint_warms_.fetch_add(warms, std::memory_order_relaxed);
  if (!AnyRefresh(scores)) return false;
  SVC_RETURN_IF_ERROR(Refresh());
  maint_refreshes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardedEngine::MaintenanceLoop() {
  auto last_refresh = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(maint_mu_);
  while (!maint_stop_) {
    const MaintenancePolicyConfig cfg = maintenance_policy();
    const uint64_t wait_ms = cfg.tick_ms > 0 ? cfg.tick_ms : 50;
    maint_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                       [&] { return maint_stop_; });
    if (maint_stop_) break;
    lock.unlock();
    const auto now = std::chrono::steady_clock::now();
    const uint64_t elapsed_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                              last_refresh)
            .count());
    Result<bool> refreshed = MaintenanceTick(elapsed_ms);
    if (refreshed.ok() && refreshed.value()) last_refresh = now;
    lock.lock();
  }
}

MaintenanceStats ShardedEngine::maintenance_stats() const {
  MaintenanceStats s;
  s.ticks = maint_ticks_.load(std::memory_order_relaxed);
  s.warms = maint_warms_.load(std::memory_order_relaxed);
  s.refreshes = maint_refreshes_.load(std::memory_order_relaxed);
  return s;
}

Result<std::vector<ViewMaintenanceScore>> ShardedEngine::ScoreViews(
    const ShardedSnapshot& snap, const MaintenancePolicyConfig& cfg,
    uint64_t elapsed_ms) const {
  std::vector<ViewMaintenanceScore> out;
  for (const std::string& name : snap.shards[0]->engine.ViewNames()) {
    // Same per-view override fold as the unsharded ScoreViews — overrides
    // are part of the replicated policy, so scores stay shard-invariant.
    const MaintenancePolicyConfig eff = EffectiveFor(cfg, name);
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view,
                         snap.shards[0]->engine.GetView(name));
    uint64_t pending_rows = 0;
    for (const std::string& rel : view->base_relations()) {
      pending_rows += PendingRowsFor(snap, rel);
    }
    if (pending_rows == 0) {
      out.push_back(ScoreOneView(name, 0, 0, nullptr, eff, elapsed_ms));
      continue;
    }
    // The logical view's rows: its parts' rows when partitioned, else
    // shard 0's full copy. No rows are read.
    const size_t parts =
        snap.meta->IsPartitionedView(name) ? snap.shards.size() : 1;
    uint64_t view_rows = 0;
    for (size_t s = 0; s < parts; ++s) {
      SVC_ASSIGN_OR_RETURN(const Table* part,
                           snap.shards[s]->engine.db().GetTable(name));
      view_rows += part->NumRows();
    }
    // Coordinator-merged probe: same shape as the single-engine probe, and
    // bit-identical at any shard count, so the resulting scores (and
    // therefore the policy's refresh choices) are shard-count-invariant.
    SvcQueryOptions opts;
    opts.ratio = eff.ratio;
    opts.auto_mode = true;
    Result<SvcAnswer> probe = Query(snap, name, AggregateQuery::Count(), opts);
    const Estimate* est = probe.ok() ? &probe.value().estimate : nullptr;
    out.push_back(
        ScoreOneView(name, pending_rows, view_rows, est, eff, elapsed_ms));
  }
  return out;
}

Result<std::vector<SvcQueryPart>> ShardedEngine::FanOutQuery(
    const ShardedSnapshot& snap, const std::string& view,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const SvcQueryOptions& opts) const {
  const size_t n = snap.shards.size();
  std::vector<SvcQueryPart> parts(n);
  std::vector<Status> statuses(n);
  std::vector<CacheOutcome> outcomes(n, CacheOutcome::kFullClean);
  // A read leaves one hardware thread to the statements arriving meanwhile:
  // with every core cleaning, a write queued behind a query slows by half.
  const int threads = std::max(
      1, std::min(static_cast<int>(n), ResolveThreads(0) - 1));
  ParallelFor(threads, n, [&](size_t s) {
    statuses[s] = snap.shards[s]->engine.QueryPart(view, group_columns, q,
                                                   opts, &parts[s],
                                                   &outcomes[s]);
  });
  // Every shard cleaned: one logical serving event, as an unsharded
  // engine records it before its estimator runs.
  bool cleaned = true;
  for (const SvcQueryPart& p : parts) cleaned = cleaned && p.samples != nullptr;
  if (cleaned) RecordFanOutOutcome(view, outcomes);
  for (const Status& st : statuses) SVC_RETURN_IF_ERROR(st);
  return parts;
}

Result<SvcAnswer> ShardedEngine::Query(const ShardedSnapshot& snap,
                                       const std::string& view,
                                       const AggregateQuery& q,
                                       const SvcQueryOptions& opts) const {
  if (!snap.meta->IsPartitionedView(view)) {
    // Replicated-class (or unknown — shard 0 renders the standard error):
    // every shard holds the identical full view, so shard 0's answer is
    // the answer, bitwise, at any shard count.
    return snap.shards[0]->engine.Query(view, q, opts);
  }
  SVC_ASSIGN_OR_RETURN(std::vector<SvcQueryPart> parts,
                       FanOutQuery(snap, view, {}, q, opts));
  return FinishSvcQuery(parts, q, opts, [&]() -> Result<double> {
    SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> stale,
                         GatherTable(snap, view));
    return MemoExactAggregate(CoordinatorMemo(snap), view, stale, q);
  });
}

Result<SvcGroupedAnswer> ShardedEngine::QueryGrouped(
    const ShardedSnapshot& snap, const std::string& view,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const SvcQueryOptions& opts) const {
  if (!snap.meta->IsPartitionedView(view)) {
    return snap.shards[0]->engine.QueryGrouped(view, group_columns, q, opts);
  }
  SVC_ASSIGN_OR_RETURN(std::vector<SvcQueryPart> parts,
                       FanOutQuery(snap, view, group_columns, q, opts));
  return FinishSvcQueryGrouped(
      parts, group_columns, q, opts,
      [&]() -> Result<std::shared_ptr<const GroupedResult>> {
        SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> stale,
                             GatherTable(snap, view));
        return MemoExactAggregateGrouped(CoordinatorMemo(snap), view, stale,
                                         group_columns, q);
      });
}

Result<std::shared_ptr<const Table>> ShardedEngine::GatherTable(
    const ShardedSnapshot& snap, const std::string& name) const {
  std::shared_ptr<const Table> first =
      snap.shards[0]->engine.db().GetTableShared(name);
  if (first == nullptr) {
    return Status::UnknownRelation("no such table: " + name);
  }
  const bool merge = snap.meta->IsPartitionedRelation(name) ||
                     snap.meta->IsPartitionedView(name);
  if (!merge) return first;
  std::vector<std::shared_ptr<const Table>> parts;
  parts.reserve(snap.shards.size());
  parts.push_back(std::move(first));
  for (size_t s = 1; s < snap.shards.size(); ++s) {
    std::shared_ptr<const Table> part =
        snap.shards[s]->engine.db().GetTableShared(name);
    if (part == nullptr) {
      return Status::Internal("shard " + std::to_string(s) +
                              " is missing partitioned table " + name);
    }
    parts.push_back(std::move(part));
  }
  {
    std::lock_guard<std::mutex> lock(gather_mu_);
    auto it = gather_cache_.find(name);
    if (it != gather_cache_.end() && it->second.parts == parts) {
      return it->second.merged;
    }
  }
  SVC_ASSIGN_OR_RETURN(Table merged, MergeShardTables(parts));
  gathers_built_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Table> shared =
      std::make_shared<Table>(std::move(merged));
  std::lock_guard<std::mutex> lock(gather_mu_);
  gather_cache_[name] = GatherEntry{std::move(parts), shared};
  return shared;
}

Result<std::vector<Row>> ShardedEngine::FindRowsByKey(
    const ShardedSnapshot& snap, const std::string& relation,
    const std::vector<Row>& key_rows) const {
  // A partitioned relation's key may sit on any shard; a replicated
  // relation is whole on shard 0.
  const bool partitioned = snap.meta->IsPartitionedRelation(relation);
  std::vector<const Table*> parts(partitioned ? snap.shards.size() : 1);
  for (size_t s = 0; s < parts.size(); ++s) {
    SVC_ASSIGN_OR_RETURN(parts[s],
                         snap.shards[s]->engine.db().GetTable(relation));
  }
  return LookupRowsByKey(parts, key_rows, partitioned);
}

void ShardedEngine::RecordFanOutOutcome(
    const std::string& view, const std::vector<CacheOutcome>& outcomes) const {
  CacheOutcome logical = CacheOutcome::kHit;
  for (CacheOutcome o : outcomes) {
    if (o == CacheOutcome::kFullClean) {
      logical = CacheOutcome::kFullClean;
      break;
    }
    if (o == CacheOutcome::kAdvance) logical = CacheOutcome::kAdvance;
  }
  std::lock_guard<std::mutex> lock(fanout_stats_mu_);
  ViewCacheStats& s = fanout_stats_[view];
  switch (logical) {
    case CacheOutcome::kHit:
      ++s.hits;
      break;
    case CacheOutcome::kAdvance:
      ++s.misses;
      ++s.incremental_advances;
      break;
    case CacheOutcome::kFullClean:
      ++s.misses;
      ++s.full_cleans;
      break;
  }
}

std::map<std::string, ViewCacheStats> ShardedEngine::CoordinatorCacheStats(
    const ShardedSnapshot& snap) const {
  // Replicated-class views are served entirely by shard 0, so shard 0's
  // counters already are the logical numbers; partitioned-class views are
  // counted at the coordinator (one event per fan-out).
  std::map<std::string, ViewCacheStats> out =
      snap.shards[0]->engine.CacheStats();
  std::lock_guard<std::mutex> lock(fanout_stats_mu_);
  for (const auto& [view, stats] : fanout_stats_) out[view] = stats;
  return out;
}

Result<Database> ShardedEngine::GatherDatabase(
    const ShardedSnapshot& snap, const std::vector<std::string>& names) const {
  Database out;
  std::set<std::string> seen;
  for (const std::string& name : names) {
    if (!seen.insert(name).second) continue;
    SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                         GatherTable(snap, name));
    out.PutTableShared(name, std::move(t));
  }
  return out;
}

}  // namespace svc
