#include "sql/engine_handle.h"

#include "core/estimator_merge.h"

namespace svc {

void EngineCut::ReadShardedHead() {
  shard_cut_ = sharded_->Snapshot();
  engine_ = &shard_cut_->shards[0]->engine;
}

template <typename Fn>
Status EngineCut::ForEachPart(const std::string& name, Fn fn) const {
  if (sharded_ == nullptr) return fn(*engine_);
  const ShardMeta& meta = *shard_cut_->meta;
  const bool partitioned =
      meta.IsPartitionedRelation(name) || meta.IsPartitionedView(name);
  for (const SnapshotPtr& shard : shard_cut_->shards) {
    SVC_RETURN_IF_ERROR(fn(shard->engine));
    if (!partitioned) break;
  }
  return Status::OK();
}

Result<std::shared_ptr<const Table>> EngineCut::GetTable(
    const std::string& name) const {
  SVC_RETURN_IF_ERROR(engine_->db().GetTable(name).status());
  if (sharded_ != nullptr) return sharded_->GatherTable(*shard_cut_, name);
  return engine_->db().GetTableShared(name);
}

Result<size_t> EngineCut::NumRows(const std::string& name) const {
  size_t rows = 0;
  SVC_RETURN_IF_ERROR(ForEachPart(name, [&](const SvcEngine& e) -> Status {
    SVC_ASSIGN_OR_RETURN(const Table* t, e.db().GetTable(name));
    rows += t->NumRows();
    return Status::OK();
  }));
  return rows;
}

Result<std::vector<Row>> EngineCut::FindRowsByKey(
    const std::string& name, const std::vector<Row>& key_rows) const {
  if (sharded_ != nullptr) {
    return sharded_->FindRowsByKey(*shard_cut_, name, key_rows);
  }
  SVC_ASSIGN_OR_RETURN(const Table* table, engine_->db().GetTable(name));
  return LookupRowsByKey({table}, key_rows, /*merged=*/false);
}

Result<const Database*> EngineCut::SelectDatabase(Database* scratch) const {
  if (sharded_ == nullptr) return &engine_->db();
  std::vector<std::string> names;
  for (const auto& name : engine_->db().TableNames()) {
    if (name.rfind("__", 0) == 0) continue;  // internal delta tables
    names.push_back(name);
  }
  SVC_ASSIGN_OR_RETURN(*scratch, sharded_->GatherDatabase(*shard_cut_, names));
  return scratch;
}

Result<SvcAnswer> EngineCut::Query(const std::string& view,
                                   const AggregateQuery& q,
                                   const SvcQueryOptions& opts) const {
  if (sharded_ != nullptr) return sharded_->Query(*shard_cut_, view, q, opts);
  return engine_->Query(view, q, opts);
}

Result<SvcGroupedAnswer> EngineCut::QueryGrouped(
    const std::string& view, const std::vector<std::string>& group_columns,
    const AggregateQuery& q, const SvcQueryOptions& opts) const {
  if (sharded_ != nullptr) {
    return sharded_->QueryGrouped(*shard_cut_, view, group_columns, q, opts);
  }
  return engine_->QueryGrouped(view, group_columns, q, opts);
}

void EngineCut::ForEachPendingSet(
    const std::string& relation,
    const std::function<void(const DeltaSet&)>& fn) const {
  // A relation's delta queue is placed like its rows.
  (void)ForEachPart(relation, [&](const SvcEngine& e) {
    fn(e.pending());
    return Status::OK();
  });
}

size_t EngineCut::PendingRows(const std::string& relation) const {
  size_t rows = 0;
  ForEachPendingSet(relation, [&](const DeltaSet& pending) {
    rows += pending.InsertRows(relation) + pending.DeleteRows(relation);
  });
  return rows;
}

void EngineCut::PendingTotals(size_t* inserts, size_t* deletes) const {
  if (sharded_ != nullptr) {
    sharded_->PendingCounts(*shard_cut_, inserts, deletes);
  } else {
    *inserts = engine_->pending().TotalInserts();
    *deletes = engine_->pending().TotalDeletes();
  }
}

std::map<std::string, ViewCacheStats> EngineCut::CacheStats() const {
  if (sharded_ != nullptr) return sharded_->CoordinatorCacheStats(*shard_cut_);
  return engine_->CacheStats();
}

uint64_t EngineCut::delta_version() const {
  if (sharded_ != nullptr) return shard_cut_->delta_version;
  return engine_->pending().version();
}

Result<std::vector<ViewMaintenanceScore>> EngineCut::ScoreViews(
    const MaintenancePolicyConfig& cfg, uint64_t elapsed_ms) const {
  if (sharded_ != nullptr) {
    return sharded_->ScoreViews(*shard_cut_, cfg, elapsed_ms);
  }
  return svc::ScoreViews(*engine_, cfg, elapsed_ms);
}

Status EngineCut::Apply(DurableOp op) {
  if (wal_ != nullptr) SVC_RETURN_IF_ERROR(EncodeDurableOp(op, wal_));
  if (sharded_ != nullptr) {
    SVC_RETURN_IF_ERROR(ApplyDurableOp(std::move(op), sharded_));
    ReadShardedHead();  // the statement published a new cut
    return Status::OK();
  }
  // A fork is discarded wholesale on error, so ApplyDurableOp refreshes it
  // in place; the private engine has no fork under it and keeps
  // MaintainAll's transactional fork-and-swap.
  if (owned_ && op.kind == DurableOp::Kind::kRefresh) {
    return writable_->MaintainAll();
  }
  return ApplyDurableOp(std::move(op), writable_);
}

EngineCut EngineHandle::Read() const {
  EngineCut cut;
  if (sharded_ != nullptr) {
    cut.sharded_ = sharded_.get();
    cut.ReadShardedHead();
  } else if (shared_ != nullptr) {
    cut.snapshot_ = shared_->Snapshot();
    cut.engine_ = &cut.snapshot_->engine;
  } else {
    cut.engine_ = own_.get();
  }
  return cut;
}

Status EngineHandle::Write(const std::function<Status(EngineCut&)>& fn,
                           const DurableEngine::IdemMark& idem) {
  EngineCut cut;
  if (sharded_ != nullptr) {
    return sharded_->WithStatementLock([&] {
      cut.sharded_ = sharded_.get();
      cut.ReadShardedHead();
      return fn(cut);
    });
  }
  auto bind = [&](SvcEngine* e) {
    cut.engine_ = e;
    cut.writable_ = e;
  };
  if (durable_ != nullptr) {
    return durable_->CommitLogged(
        [&](SvcEngine* e, std::string* payload) {
          bind(e);
          cut.wal_ = payload;
          return fn(cut);
        },
        idem);
  }
  if (shared_ != nullptr) {
    return shared_->Commit([&](SvcEngine* e) {
      bind(e);
      return fn(cut);
    });
  }
  bind(own_.get());
  cut.owned_ = true;
  return fn(cut);
}

}  // namespace svc
