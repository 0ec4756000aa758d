#ifndef SVC_STORAGE_DURABLE_ENGINE_H_
#define SVC_STORAGE_DURABLE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/shared_engine.h"
#include "storage/checkpoint.h"
#include "storage/ops.h"
#include "storage/wal.h"

namespace svc {

struct DurableOptions {
  /// Directory holding checkpoint-<E>.ckpt / wal-<E>.log (created if
  /// absent).
  std::string data_dir;
  /// Fsync policy for WAL appends.
  WalOptions wal;
  /// Auto-checkpoint after this many logged commits (0 = only explicit
  /// Checkpoint() calls).
  uint64_t checkpoint_every = 0;
};

/// What recovery found at Open.
struct RecoveryReport {
  uint64_t recovered_epoch = 0;    ///< head epoch after replay
  uint64_t checkpoint_epoch = 0;   ///< base checkpoint used (0 = none)
  uint64_t wal_records_replayed = 0;
  bool torn_tail = false;          ///< a torn final record was truncated
  std::string warning;             ///< tear note ("" if clean)
};

/// Durability counters surfaced by SHOW STATS. The WAL counters cover the
/// *current* log segment (appends since Open or the last checkpoint —
/// rotation starts an empty log).
struct DurabilityStats {
  uint64_t wal_records = 0;  ///< records in the current WAL segment
  uint64_t wal_bytes = 0;    ///< file bytes in the current WAL segment
  uint64_t last_checkpoint_epoch = 0;
  uint64_t recovered_epoch = 0;  ///< head epoch recovered at Open
  /// Incremental-checkpoint counters for the *last* checkpoint written:
  /// tables serialized from scratch vs appended verbatim from the encode
  /// cache (unchanged shared_ptr identity). Test/observability only — not
  /// SHOW STATS columns.
  uint64_t checkpoint_tables_encoded = 0;
  uint64_t checkpoint_tables_reused = 0;
};

/// A SharedEngine with a write-ahead log and checkpoints underneath
/// (docs/ARCHITECTURE.md "Durability & recovery").
///
///   * Every logged commit appends one epoch-keyed, CRC-framed WAL record
///     *before* the commit publishes (SharedEngine's pre-publish hook), so
///     a crash can lose at most the unpublished tail — never an epoch a
///     reader could have observed under fsync=always.
///   * Checkpoint() serializes the current immutable snapshot (a CoW
///     traversal — concurrent readers keep their snapshots), writes it
///     atomically (temp + rename + dir fsync), rotates to a fresh WAL and
///     deletes the files it supersedes.
///   * Open() recovers: newest valid checkpoint, then the paired WAL's
///     records in epoch order; a torn final record is truncated with a
///     warning (graceful degradation), a mid-log CRC mismatch is an error.
///
/// Reads are plain SharedEngine reads (shared()->Snapshot()); they never
/// touch this object's mutex or the log.
class DurableEngine {
 public:
  /// Recovers (or initializes) `opts.data_dir` and opens the WAL for
  /// appending. `report`, when non-null, receives what recovery found.
  static Result<std::shared_ptr<DurableEngine>> Open(
      const DurableOptions& opts, RecoveryReport* report = nullptr);

  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  /// Quiesces the maintenance thread: its refresh callback captures
  /// `this`, so it must be joined before any member dies.
  ~DurableEngine();

  /// The underlying shared engine (snapshot reads, epoch).
  const std::shared_ptr<SharedEngine>& shared() const { return shared_; }
  uint64_t epoch() const { return shared_->epoch(); }

  /// A client idempotency mark riding one logged commit: (token, seq)
  /// names one logical client request (server/server.cc assigns them from
  /// the wire's v2 request meta). Non-empty marks are appended to the
  /// commit's WAL record and survive checkpoints via the idem sidecar
  /// file, so a server recovering a data_dir still recognizes a write a
  /// client retried across the crash — it commits exactly once.
  struct IdemMark {
    std::string token;
    uint64_t seq;
    // Explicit constructors (not default member initializers): the mark is
    // a default argument of CommitLogged below, and a defaulted member
    // initializer may not be used before the enclosing class is complete.
    IdemMark() : seq(0) {}
    IdemMark(std::string t, uint64_t s) : token(std::move(t)), seq(s) {}
    bool empty() const { return token.empty(); }
  };

  /// Runs one logged commit: `fn` mutates the fork and, on success, fills
  /// `*payload` with the encoded DurableOp describing the mutation. The
  /// record (epoch + payload [+ idem mark]) is appended to the WAL before
  /// the fork publishes. Serialized against other logged commits and
  /// checkpoints.
  Status CommitLogged(
      const std::function<Status(SvcEngine*, std::string* payload)>& fn,
      const IdemMark& idem = IdemMark());

  /// The latest idempotency mark per token: what recovery found (idem
  /// sidecar + WAL records) plus every mark logged since. The serving
  /// layer seeds its dedup journal from this at startup.
  std::map<std::string, uint64_t> IdemMarks() const;

  /// Logs and applies `op` as one commit (the non-SQL write path).
  Status Apply(DurableOp op);

  // ---- Convenience writers mirroring SharedEngine's -----------------------
  Status CreateTable(const std::string& name, Table table);
  Status CreateView(const std::string& name, PlanPtr definition,
                    std::vector<std::string> sampling_key = {});
  Status InsertRecord(const std::string& relation, Row row);
  Status DeleteRecord(const std::string& relation, Row row);
  Status IngestDeltas(DeltaSet&& deltas);
  Status Refresh();

  /// Checkpoints the current head snapshot and truncates the log behind
  /// it. Returns the checkpointed epoch.
  Result<uint64_t> Checkpoint();

  /// SET MAINTENANCE POLICY as a logged commit (kSetPolicy): the policy is
  /// engine state, so it replays from the WAL and persists in checkpoints.
  Status SetMaintenancePolicy(const MaintenancePolicyConfig& cfg);

  /// Starts the shared engine's scheduler with a WAL-logged refresh (plus
  /// the "maint.refresh" fault site), so every policy-triggered
  /// maintenance commit is recoverable like an explicit REFRESH.
  void StartMaintenance();
  /// Joins the scheduler thread; call before the clean-exit checkpoint.
  void StopMaintenance() { shared_->StopMaintenance(); }

  DurabilityStats stats() const;

 private:
  DurableEngine(DurableOptions opts, std::shared_ptr<SharedEngine> shared,
                WalWriter wal);

  Status CheckpointLocked();

  DurableOptions opts_;
  std::shared_ptr<SharedEngine> shared_;

  /// Serializes logged commits and checkpoints (so a checkpoint's snapshot
  /// + WAL rotation is atomic w.r.t. concurrent logged commits), and
  /// guards wal_/stats_.
  mutable std::mutex mu_;
  WalWriter wal_;
  DurabilityStats stats_;
  uint64_t commits_since_checkpoint_ = 0;
  /// Latest idempotency mark per token (under mu_): recovered at Open,
  /// extended by marked commits, persisted to the idem sidecar *before*
  /// each checkpoint rotates the WAL the marks were logged in.
  std::map<std::string, uint64_t> idem_marks_;
  /// Per-table encode memo reused across checkpoints (under mu_): a table
  /// whose shared_ptr identity is unchanged since the last checkpoint is
  /// appended verbatim instead of re-serialized.
  TableEncodeCache ckpt_cache_;
};

}  // namespace svc

#endif  // SVC_STORAGE_DURABLE_ENGINE_H_
