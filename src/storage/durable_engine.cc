#include "storage/durable_engine.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "storage/fault.h"
#include "storage/serde.h"

namespace svc {

namespace {

/// Decodes and applies one WAL record (u64 epoch + DurableOp [+ idem
/// mark]) to the recovery engine, checking the epoch chain stays dense.
/// A trailing (token, seq) idempotency mark — appended by marked commits —
/// is collected into `idem_marks` rather than applied.
Status ReplayRecord(std::string_view payload, uint64_t* epoch,
                    SvcEngine* engine, const std::string& path,
                    uint64_t record_index,
                    std::map<std::string, uint64_t>* idem_marks) {
  ByteReader r(payload);
  SVC_ASSIGN_OR_RETURN(uint64_t record_epoch, r.U64());
  if (record_epoch != *epoch + 1) {
    return Status::InvalidArgument(
        "WAL " + path + " record " + std::to_string(record_index) +
        " is for epoch " + std::to_string(record_epoch) + ", expected " +
        std::to_string(*epoch + 1) + " (log does not match its checkpoint)");
  }
  SVC_ASSIGN_OR_RETURN(DurableOp op, DecodeDurableOp(&r));
  if (!r.AtEnd()) {
    SVC_ASSIGN_OR_RETURN(std::string token, r.Str());
    SVC_ASSIGN_OR_RETURN(uint64_t seq, r.U64());
    if (!r.AtEnd()) {
      return Status::InvalidArgument("WAL " + path + " record " +
                                     std::to_string(record_index) + " has " +
                                     std::to_string(r.remaining()) +
                                     " trailing byte(s)");
    }
    uint64_t& have = (*idem_marks)[std::move(token)];
    have = std::max(have, seq);
  }
  SVC_RETURN_IF_ERROR(ApplyDurableOp(std::move(op), engine));
  *epoch = record_epoch;
  return Status::OK();
}

}  // namespace

DurableEngine::DurableEngine(DurableOptions opts,
                             std::shared_ptr<SharedEngine> shared,
                             WalWriter wal)
    : opts_(std::move(opts)),
      shared_(std::move(shared)),
      wal_(std::move(wal)) {}

DurableEngine::~DurableEngine() {
  // The scheduler's refresh callback captures `this`; SharedEngine's own
  // destructor would join too late (after our members are gone).
  shared_->StopMaintenance();
}

Result<std::shared_ptr<DurableEngine>> DurableEngine::Open(
    const DurableOptions& opts, RecoveryReport* report) {
  if (opts.data_dir.empty()) {
    return Status::InvalidArgument("DurableOptions.data_dir is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir " + opts.data_dir + ": " +
                            ec.message());
  }

  RecoveryReport local;
  RecoveryReport* rep = report != nullptr ? report : &local;
  *rep = RecoveryReport{};

  // Newest valid checkpoint wins. An unreadable one (disk corruption) is
  // skipped with a note — an older checkpoint plus nothing is still a
  // consistent, if older, state; failing hard would brick the directory.
  std::optional<EngineState> state;
  for (uint64_t epoch : ListCheckpointEpochs(opts.data_dir)) {
    Result<std::string> bytes = ReadCheckpointFile(opts.data_dir, epoch);
    Result<EngineState> decoded =
        bytes.ok() ? DecodeEngineState(*bytes)
                   : Result<EngineState>(bytes.status());
    if (decoded.ok()) {
      state.emplace(std::move(decoded).value());
      rep->checkpoint_epoch = epoch;
      break;
    }
    if (!rep->warning.empty()) rep->warning += "; ";
    rep->warning += "skipping unreadable checkpoint " + std::to_string(epoch) +
                    ": " + decoded.status().ToString();
  }
  if (!state.has_value()) state.emplace(SvcEngine(Database()));

  // Idempotency marks: the sidecar persisted by the last checkpoint, then
  // the WAL's per-record marks overlaid on top.
  Result<std::map<std::string, uint64_t>> idem_read =
      ReadIdemFile(opts.data_dir);
  SVC_RETURN_IF_ERROR(idem_read.status());
  std::map<std::string, uint64_t> idem_marks = std::move(idem_read).value();

  // Replay the WAL paired with the chosen checkpoint (epochs E+1, E+2, ...
  // in order). A torn final record truncates; a mid-log CRC error aborts.
  uint64_t head_epoch = state->epoch;
  const std::string wal_path =
      opts.data_dir + "/" + WalFileName(state->epoch);
  WalReplayInfo replay;
  SVC_RETURN_IF_ERROR(ReplayWal(
      wal_path,
      [&](std::string_view payload) {
        return ReplayRecord(payload, &head_epoch, &state->engine, wal_path,
                            replay.records, &idem_marks);
      },
      &replay));
  rep->wal_records_replayed = replay.records;
  rep->torn_tail = replay.torn_tail;
  if (replay.torn_tail) {
    if (!rep->warning.empty()) rep->warning += "; ";
    rep->warning += replay.warning;
    // Drop the torn bytes for good so the next append starts on a frame
    // boundary.
    SVC_RETURN_IF_ERROR(TruncateFile(wal_path, replay.valid_bytes));
  }
  rep->recovered_epoch = head_epoch;

  // Earlier checkpoint/WAL pairs (and a stale temp file) are fully
  // superseded by what we just recovered from.
  RemoveStaleDurableFiles(opts.data_dir, rep->checkpoint_epoch);

  SVC_ASSIGN_OR_RETURN(WalWriter wal, WalWriter::Open(wal_path, opts.wal));
  auto shared =
      std::make_shared<SharedEngine>(std::move(state->engine), head_epoch);
  auto engine = std::shared_ptr<DurableEngine>(
      new DurableEngine(opts, std::move(shared), std::move(wal)));
  engine->stats_.recovered_epoch = head_epoch;
  engine->stats_.last_checkpoint_epoch = rep->checkpoint_epoch;
  engine->idem_marks_ = std::move(idem_marks);
  return engine;
}

Status DurableEngine::CommitLogged(
    const std::function<Status(SvcEngine*, std::string* payload)>& fn,
    const IdemMark& idem) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string payload;
  SVC_RETURN_IF_ERROR(shared_->Commit(
      [&](SvcEngine* e) { return fn(e, &payload); },
      [&](uint64_t next_epoch) {
        std::string record;
        record.reserve(8 + payload.size());
        PutU64(&record, next_epoch);
        record += payload;
        if (!idem.empty()) {
          // Trailing mark: ReplayRecord collects it on recovery, so the
          // dedup journal survives the same crashes the data does.
          PutStr(&record, idem.token);
          PutU64(&record, idem.seq);
        }
        return wal_.Append(record);
      }));
  if (!idem.empty()) {
    uint64_t& have = idem_marks_[idem.token];
    have = std::max(have, idem.seq);
  }
  stats_.wal_records = wal_.records();
  stats_.wal_bytes = wal_.bytes();
  ++commits_since_checkpoint_;
  if (opts_.checkpoint_every > 0 &&
      commits_since_checkpoint_ >= opts_.checkpoint_every) {
    SVC_RETURN_IF_ERROR(CheckpointLocked());
  }
  return Status::OK();
}

Status DurableEngine::Apply(DurableOp op) {
  return CommitLogged([&](SvcEngine* e, std::string* payload) {
    SVC_RETURN_IF_ERROR(EncodeDurableOp(op, payload));
    return ApplyDurableOp(std::move(op), e);
  });
}

Status DurableEngine::CreateTable(const std::string& name, Table table) {
  return Apply(DurableOp::CreateTableOp(name, std::move(table)));
}

Status DurableEngine::CreateView(const std::string& name, PlanPtr definition,
                                 std::vector<std::string> sampling_key) {
  return Apply(DurableOp::CreateViewOp(name, std::move(definition),
                                       std::move(sampling_key)));
}

Status DurableEngine::InsertRecord(const std::string& relation, Row row) {
  return Apply(DurableOp::InsertOp(relation, {std::move(row)}));
}

Status DurableEngine::DeleteRecord(const std::string& relation, Row row) {
  return Apply(DurableOp::DeleteOp(relation, {std::move(row)}));
}

Status DurableEngine::IngestDeltas(DeltaSet&& deltas) {
  DurableOp op = DurableOp::IngestOp(deltas);
  return CommitLogged([&](SvcEngine* e, std::string* payload) {
    SVC_RETURN_IF_ERROR(EncodeDurableOp(op, payload));
    return e->IngestDeltas(std::move(deltas));
  });
}

Status DurableEngine::Refresh() {
  return Apply(DurableOp::RefreshOp());
}

Status DurableEngine::SetMaintenancePolicy(const MaintenancePolicyConfig& cfg) {
  return Apply(DurableOp::SetPolicyOp(cfg));
}

void DurableEngine::StartMaintenance() {
  shared_->StartMaintenance([this] {
    // Fault-injector crash site: dies before the refresh's WAL record is
    // appended, so recovery lands on the pre-refresh state — the
    // kill-and-recover harness drives this to prove a policy refresh is
    // never half-durable.
    FaultInjector::Global().MaybeCrash("maint.refresh");
    return Refresh();
  });
}

Result<uint64_t> DurableEngine::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  SVC_RETURN_IF_ERROR(CheckpointLocked());
  return stats_.last_checkpoint_epoch;
}

Status DurableEngine::CheckpointLocked() {
  // Persist the idempotency marks *first*: rotation is about to discard
  // the WAL records carrying them, and a crash between the sidecar write
  // and the checkpoint rename only leaves a superset of marks (harmless —
  // dedup is conservative).
  if (!idem_marks_.empty()) {
    SVC_RETURN_IF_ERROR(WriteIdemFile(opts_.data_dir, idem_marks_));
  }
  // The snapshot is immutable and shared copy-on-write — serializing it is
  // a traversal of the live structure, not a stop-the-world copy, and
  // concurrent readers are completely unaffected.
  SnapshotPtr snap = shared_->Snapshot();
  std::string state;
  SVC_RETURN_IF_ERROR(
      EncodeEngineState(snap->engine, snap->epoch, &state, &ckpt_cache_));
  SVC_RETURN_IF_ERROR(WriteCheckpointFile(opts_.data_dir, snap->epoch, state));
  stats_.checkpoint_tables_encoded = ckpt_cache_.tables_encoded;
  stats_.checkpoint_tables_reused = ckpt_cache_.tables_reused;

  // Rotate: start a fresh (empty) WAL named for the new base epoch, then
  // drop everything the checkpoint supersedes. mu_ is held, so no logged
  // commit can slip a record into the old log during the swap.
  const std::string new_wal = opts_.data_dir + "/" + WalFileName(snap->epoch);
  // Truncate an existing file of that name (possible when re-checkpointing
  // at an unchanged epoch: its records are all <= the checkpoint).
  std::error_code ec;
  std::filesystem::remove(new_wal, ec);
  SVC_ASSIGN_OR_RETURN(WalWriter wal, WalWriter::Open(new_wal, opts_.wal));
  wal_ = std::move(wal);
  RemoveStaleDurableFiles(opts_.data_dir, snap->epoch);

  stats_.last_checkpoint_epoch = snap->epoch;
  stats_.wal_records = 0;
  stats_.wal_bytes = 0;
  commits_since_checkpoint_ = 0;
  return Status::OK();
}

DurabilityStats DurableEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<std::string, uint64_t> DurableEngine::IdemMarks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idem_marks_;
}

}  // namespace svc
