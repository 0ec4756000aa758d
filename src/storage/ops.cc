#include "storage/ops.h"

#include "core/sharded_engine.h"

namespace svc {

DurableOp DurableOp::CreateTableOp(std::string name, Table table) {
  DurableOp op;
  op.kind = Kind::kCreateTable;
  op.target = std::move(name);
  op.table = std::move(table);
  return op;
}

DurableOp DurableOp::CreateViewOp(std::string name, PlanPtr definition,
                                  std::vector<std::string> sampling_key) {
  DurableOp op;
  op.kind = Kind::kCreateView;
  op.target = std::move(name);
  op.view_def = std::move(definition);
  op.sampling_key = std::move(sampling_key);
  return op;
}

DurableOp DurableOp::InsertOp(std::string relation, std::vector<Row> rows) {
  DurableOp op;
  op.kind = Kind::kInsert;
  op.target = std::move(relation);
  op.rows = std::move(rows);
  return op;
}

DurableOp DurableOp::DeleteOp(std::string relation, std::vector<Row> rows) {
  DurableOp op;
  op.kind = Kind::kDelete;
  op.target = std::move(relation);
  op.rows = std::move(rows);
  return op;
}

DurableOp DurableOp::IngestOp(const DeltaSet& deltas) {
  DurableOp op;
  op.kind = Kind::kIngest;
  for (const std::string& rel : deltas.TouchedRelations()) {
    if (deltas.InsertRows(rel) > 0) {
      std::vector<Row> rows;
      rows.reserve(deltas.InsertRows(rel));
      deltas.ForEachInsert(rel, [&](const Row& r) { rows.push_back(r); });
      op.ingest_inserts.emplace_back(rel, std::move(rows));
    }
    if (deltas.DeleteRows(rel) > 0) {
      std::vector<Row> rows;
      rows.reserve(deltas.DeleteRows(rel));
      deltas.ForEachDelete(rel, [&](const Row& r) { rows.push_back(r); });
      op.ingest_deletes.emplace_back(rel, std::move(rows));
    }
  }
  return op;
}

DurableOp DurableOp::RefreshOp() {
  DurableOp op;
  op.kind = Kind::kRefresh;
  return op;
}

DurableOp DurableOp::SetPolicyOp(const MaintenancePolicyConfig& cfg) {
  DurableOp op;
  op.kind = Kind::kSetPolicy;
  op.policy = cfg;
  return op;
}

void EncodeMaintenancePolicy(const MaintenancePolicyConfig& cfg,
                             std::string* out) {
  PutU8(out, static_cast<uint8_t>(cfg.mode));
  PutF64(out, cfg.budget);
  PutU64(out, cfg.sla_ms);
  PutU64(out, cfg.tick_ms);
  PutF64(out, cfg.ratio);
  // Per-view overrides: a count, then (view, presence-bitmapped fields).
  // Always encoded — unlike the wire protocol, these bytes live inside
  // concatenated WAL records, so "trailing optional" would be ambiguous.
  PutU32(out, static_cast<uint32_t>(cfg.overrides.size()));
  for (const auto& [view, ov] : cfg.overrides) {
    PutStr(out, view);
    uint8_t bits = 0;
    if (ov.budget) bits |= 1;
    if (ov.sla_ms) bits |= 2;
    if (ov.ratio) bits |= 4;
    PutU8(out, bits);
    if (ov.budget) PutF64(out, *ov.budget);
    if (ov.sla_ms) PutU64(out, *ov.sla_ms);
    if (ov.ratio) PutF64(out, *ov.ratio);
  }
}

Result<MaintenancePolicyConfig> DecodeMaintenancePolicy(ByteReader* r) {
  MaintenancePolicyConfig cfg;
  SVC_ASSIGN_OR_RETURN(uint8_t mode, r->U8());
  if (mode > static_cast<uint8_t>(MaintenancePolicyConfig::Mode::kAuto)) {
    return Status::InvalidArgument("bad maintenance mode tag " +
                                   std::to_string(mode));
  }
  cfg.mode = static_cast<MaintenancePolicyConfig::Mode>(mode);
  SVC_ASSIGN_OR_RETURN(cfg.budget, r->F64());
  SVC_ASSIGN_OR_RETURN(cfg.sla_ms, r->U64());
  SVC_ASSIGN_OR_RETURN(cfg.tick_ms, r->U64());
  SVC_ASSIGN_OR_RETURN(cfg.ratio, r->F64());
  SVC_ASSIGN_OR_RETURN(uint32_t n_overrides, r->U32());
  for (uint32_t i = 0; i < n_overrides; ++i) {
    SVC_ASSIGN_OR_RETURN(std::string view, r->Str());
    SVC_ASSIGN_OR_RETURN(uint8_t bits, r->U8());
    if (bits & ~uint8_t{7}) {
      return Status::InvalidArgument("bad policy override bitmap " +
                                     std::to_string(bits));
    }
    ViewPolicyOverride ov;
    if (bits & 1) {
      SVC_ASSIGN_OR_RETURN(double v, r->F64());
      ov.budget = v;
    }
    if (bits & 2) {
      SVC_ASSIGN_OR_RETURN(uint64_t v, r->U64());
      ov.sla_ms = v;
    }
    if (bits & 4) {
      SVC_ASSIGN_OR_RETURN(double v, r->F64());
      ov.ratio = v;
    }
    cfg.overrides[std::move(view)] = ov;
  }
  return cfg;
}

namespace {

void EncodeRowBatch(const std::vector<Row>& rows, std::string* out) {
  PutU64(out, rows.size());
  for (const Row& r : rows) EncodeRow(r, out);
}

Result<std::vector<Row>> DecodeRowBatch(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  std::vector<Row> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SVC_ASSIGN_OR_RETURN(Row row, DecodeRow(r));
    rows.push_back(std::move(row));
  }
  return rows;
}

using RelBatches = std::vector<std::pair<std::string, std::vector<Row>>>;

void EncodeRelBatches(const RelBatches& batches, std::string* out) {
  PutU32(out, static_cast<uint32_t>(batches.size()));
  for (const auto& [rel, rows] : batches) {
    PutStr(out, rel);
    EncodeRowBatch(rows, out);
  }
}

Result<RelBatches> DecodeRelBatches(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  RelBatches batches;
  batches.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SVC_ASSIGN_OR_RETURN(std::string rel, r->Str());
    SVC_ASSIGN_OR_RETURN(std::vector<Row> rows, DecodeRowBatch(r));
    batches.emplace_back(std::move(rel), std::move(rows));
  }
  return batches;
}

}  // namespace

Status EncodeDurableOp(const DurableOp& op, std::string* out) {
  PutU8(out, static_cast<uint8_t>(op.kind));
  switch (op.kind) {
    case DurableOp::Kind::kCreateTable:
      PutStr(out, op.target);
      EncodeTable(op.table, out);
      return Status::OK();
    case DurableOp::Kind::kCreateView:
      PutStr(out, op.target);
      SVC_RETURN_IF_ERROR(EncodePlan(*op.view_def, out));
      PutU32(out, static_cast<uint32_t>(op.sampling_key.size()));
      for (const std::string& k : op.sampling_key) PutStr(out, k);
      return Status::OK();
    case DurableOp::Kind::kInsert:
    case DurableOp::Kind::kDelete:
      PutStr(out, op.target);
      EncodeRowBatch(op.rows, out);
      return Status::OK();
    case DurableOp::Kind::kIngest:
      EncodeRelBatches(op.ingest_inserts, out);
      EncodeRelBatches(op.ingest_deletes, out);
      return Status::OK();
    case DurableOp::Kind::kRefresh:
      return Status::OK();
    case DurableOp::Kind::kSetPolicy:
      EncodeMaintenancePolicy(op.policy, out);
      return Status::OK();
  }
  return Status::Internal("unhandled durable op kind");
}

Result<DurableOp> DecodeDurableOp(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  DurableOp op;
  switch (static_cast<DurableOp::Kind>(tag)) {
    case DurableOp::Kind::kCreateTable: {
      op.kind = DurableOp::Kind::kCreateTable;
      SVC_ASSIGN_OR_RETURN(op.target, r->Str());
      SVC_ASSIGN_OR_RETURN(op.table, DecodeTable(r));
      return op;
    }
    case DurableOp::Kind::kCreateView: {
      op.kind = DurableOp::Kind::kCreateView;
      SVC_ASSIGN_OR_RETURN(op.target, r->Str());
      SVC_ASSIGN_OR_RETURN(op.view_def, DecodePlan(r));
      SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      op.sampling_key.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        SVC_ASSIGN_OR_RETURN(std::string k, r->Str());
        op.sampling_key.push_back(std::move(k));
      }
      return op;
    }
    case DurableOp::Kind::kInsert:
    case DurableOp::Kind::kDelete: {
      op.kind = static_cast<DurableOp::Kind>(tag);
      SVC_ASSIGN_OR_RETURN(op.target, r->Str());
      SVC_ASSIGN_OR_RETURN(op.rows, DecodeRowBatch(r));
      return op;
    }
    case DurableOp::Kind::kIngest: {
      op.kind = DurableOp::Kind::kIngest;
      SVC_ASSIGN_OR_RETURN(op.ingest_inserts, DecodeRelBatches(r));
      SVC_ASSIGN_OR_RETURN(op.ingest_deletes, DecodeRelBatches(r));
      return op;
    }
    case DurableOp::Kind::kRefresh:
      op.kind = DurableOp::Kind::kRefresh;
      return op;
    case DurableOp::Kind::kSetPolicy: {
      op.kind = DurableOp::Kind::kSetPolicy;
      SVC_ASSIGN_OR_RETURN(op.policy, DecodeMaintenancePolicy(r));
      return op;
    }
  }
  return Status::InvalidArgument("bad durable op tag " + std::to_string(tag));
}

Status ApplyDurableOp(DurableOp op, SvcEngine* engine) {
  switch (op.kind) {
    case DurableOp::Kind::kCreateTable:
      return engine->db()->CreateTable(op.target, std::move(op.table));
    case DurableOp::Kind::kCreateView:
      return engine->CreateView(op.target, std::move(op.view_def),
                                std::move(op.sampling_key));
    case DurableOp::Kind::kInsert:
      for (Row& row : op.rows) {
        SVC_RETURN_IF_ERROR(engine->InsertRecord(op.target, std::move(row)));
      }
      return Status::OK();
    case DurableOp::Kind::kDelete:
      for (Row& row : op.rows) {
        SVC_RETURN_IF_ERROR(engine->DeleteRecord(op.target, std::move(row)));
      }
      return Status::OK();
    case DurableOp::Kind::kIngest: {
      DeltaSet batch;
      for (auto& [rel, rows] : op.ingest_inserts) {
        for (Row& row : rows) {
          SVC_RETURN_IF_ERROR(
              batch.AddInsert(*engine->db(), rel, std::move(row)));
        }
      }
      for (auto& [rel, rows] : op.ingest_deletes) {
        for (Row& row : rows) {
          SVC_RETURN_IF_ERROR(
              batch.AddDelete(*engine->db(), rel, std::move(row)));
        }
      }
      return engine->IngestDeltas(std::move(batch));
    }
    case DurableOp::Kind::kRefresh:
      // Matches SharedEngine::Refresh: the caller's fork (or the recovery
      // engine, discarded wholesale on error) provides the transactional
      // discard, so the in-place body avoids a second engine copy.
      return engine->MaintainAllInPlace();
    case DurableOp::Kind::kSetPolicy:
      engine->set_maintenance_policy(op.policy);
      return Status::OK();
  }
  return Status::Internal("unhandled durable op kind");
}

Status ApplyDurableOp(DurableOp op, ShardedEngine* engine) {
  switch (op.kind) {
    case DurableOp::Kind::kCreateTable:
      return engine->CreateTable(op.target, std::move(op.table));
    case DurableOp::Kind::kCreateView:
      return engine->CreateView(op.target, std::move(op.view_def),
                                std::move(op.sampling_key));
    case DurableOp::Kind::kInsert:
      return engine->InsertRows(op.target, std::move(op.rows));
    case DurableOp::Kind::kDelete:
      return engine->DeleteRows(op.target, std::move(op.rows));
    case DurableOp::Kind::kIngest:
      return Status::NotSupported(
          "a sharded engine queues one relation per statement; it has no "
          "multi-relation delta batch");
    case DurableOp::Kind::kRefresh:
      return engine->Refresh();
    case DurableOp::Kind::kSetPolicy:
      return engine->SetMaintenancePolicy(op.policy);
  }
  return Status::Internal("unhandled durable op kind");
}

}  // namespace svc
