#ifndef SVC_STORAGE_OPS_H_
#define SVC_STORAGE_OPS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/svc.h"
#include "storage/serde.h"

namespace svc {

class ShardedEngine;

/// One logical engine mutation, as logged to the WAL and replayed at
/// recovery. Each successful SharedEngine commit maps to exactly one op;
/// replaying ops 1..E against an empty engine (or a checkpoint) lands on
/// the identical epoch-E state — ApplyDurableOp routes every kind through
/// the same SvcEngine entry points the live path used, so recovered
/// answers are bit-identical to a never-crashed replica (asserted by the
/// kill-and-recover harness).
struct DurableOp {
  enum class Kind : uint8_t {
    kCreateTable = 1,  ///< CREATE TABLE (schema + pk, usually zero rows)
    kCreateView = 2,   ///< CREATE MATERIALIZED VIEW (definition plan)
    kInsert = 3,       ///< queue insert deltas for one relation
    kDelete = 4,       ///< queue delete deltas for one relation
    kIngest = 5,       ///< queue a multi-relation delta batch
    kRefresh = 6,      ///< REFRESH: maintenance commit marker
    kSetPolicy = 7,    ///< SET MAINTENANCE POLICY (engine-state config)
  };

  Kind kind = Kind::kRefresh;
  std::string target;  ///< relation / view name (kCreateTable..kDelete)
  Table table;         ///< kCreateTable: schema + pk (+ preloaded rows)
  PlanPtr view_def;    ///< kCreateView
  std::vector<std::string> sampling_key;  ///< kCreateView
  std::vector<Row> rows;                  ///< kInsert / kDelete
  /// kIngest: per-relation row batches in queue order.
  std::vector<std::pair<std::string, std::vector<Row>>> ingest_inserts;
  std::vector<std::pair<std::string, std::vector<Row>>> ingest_deletes;
  MaintenancePolicyConfig policy;  ///< kSetPolicy

  static DurableOp CreateTableOp(std::string name, Table table);
  static DurableOp CreateViewOp(std::string name, PlanPtr definition,
                                std::vector<std::string> sampling_key);
  static DurableOp InsertOp(std::string relation, std::vector<Row> rows);
  static DurableOp DeleteOp(std::string relation, std::vector<Row> rows);
  /// Captures `deltas`'s logical row sequence (rows copied).
  static DurableOp IngestOp(const DeltaSet& deltas);
  static DurableOp RefreshOp();
  static DurableOp SetPolicyOp(const MaintenancePolicyConfig& cfg);
};

/// Fixed 5-field policy codec shared by the kSetPolicy op and the
/// checkpoint's policy section (storage/checkpoint.cc).
void EncodeMaintenancePolicy(const MaintenancePolicyConfig& cfg,
                             std::string* out);
Result<MaintenancePolicyConfig> DecodeMaintenancePolicy(ByteReader* r);

/// Fails only for a kCreateView definition that cannot be serialized (see
/// EncodePlan).
Status EncodeDurableOp(const DurableOp& op, std::string* out);
Result<DurableOp> DecodeDurableOp(ByteReader* r);

/// Applies `op` to `engine`: the one function both the live write path
/// (SqlSession, through EngineCut::Apply) and WAL replay run, so a
/// recovered engine went through exactly the entry points the live commit
/// did. Takes `op` by value and moves its rows into the delta queue.
/// REFRESH maps to MaintainAllInPlace — callers run it on a disposable fork
/// or a recovery engine that is rebuilt from scratch on error.
Status ApplyDurableOp(DurableOp op, SvcEngine* engine);

/// Routes `op` to the sharded engine's statement methods (CreateTable,
/// CreateView, InsertRows, DeleteRows, Refresh, SetMaintenancePolicy), each
/// of which publishes one new cut. kIngest has no sharded counterpart and
/// fails with NotSupported.
Status ApplyDurableOp(DurableOp op, ShardedEngine* engine);

}  // namespace svc

#endif  // SVC_STORAGE_OPS_H_
