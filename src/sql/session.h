#ifndef SVC_SQL_SESSION_H_
#define SVC_SQL_SESSION_H_

#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/svc.h"
#include "sql/engine_handle.h"
#include "sql/parser.h"

namespace svc {

/// What a statement produced.
enum class SqlResultKind {
  kOk,        ///< DDL / DML: no rows, `message` summarizes the effect
  kRows,      ///< plain SELECT: `rows` holds the result relation
  kEstimate,  ///< SELECT ... WITH SVC: `rows` holds estimate ± CI columns
};

/// The result of executing one SQL statement.
struct SqlResult {
  SqlResultKind kind = SqlResultKind::kOk;
  Table rows;           ///< kRows / kEstimate
  std::string message;  ///< one-line human-readable summary (always set)
  /// For kEstimate: which estimator answered (matters with mode=auto).
  EstimatorMode mode_used = EstimatorMode::kCorr;
  /// For kEstimate: the answer was produced under degraded admission (a
  /// reduced sampling ratio — same estimator mode, wider CI). Set by the
  /// server's --degrade path and carried over the wire (protocol v2), so
  /// clients can tell a shed-load answer from a normal one.
  bool degraded = false;
};

/// Anything that can execute SQL text and return a SqlResult: an in-process
/// SqlSession, or a SvcClient talking to a remote svc_served. Results cross
/// this interface as data (rows + a one-line summary); all rendering
/// (TablePrinter) happens in the shell/client layer, so a server never pays
/// for string formatting.
class SqlExecutor {
 public:
  virtual ~SqlExecutor() = default;
  /// Parses and executes one statement.
  virtual Result<SqlResult> Execute(const std::string& sql) = 0;
};

/// A SQL-driven session over one engine: the full SVC lifecycle —
/// define base relations, materialize views, ingest deltas, answer
/// bounded-error aggregate queries on stale views, commit maintenance —
/// scripted as SQL text (§3.2 of the paper):
///
///   CREATE TABLE Log (sessionId INT, videoId INT,
///                     PRIMARY KEY (sessionId));
///   INSERT INTO Log VALUES (0, 1), (1, 3);      -- queued as deltas
///   REFRESH ALL;                                -- commit into base tables
///   CREATE MATERIALIZED VIEW visitView AS
///     SELECT videoId, COUNT(1) AS visitCount FROM Log GROUP BY videoId;
///   INSERT INTO Log VALUES (2, 3);              -- the view is now stale
///   SELECT COUNT(1) FROM visitView WHERE visitCount > 1
///     WITH SVC(ratio=0.5, mode=corr);           -- estimate ± CI
///   REFRESH VIEW visitView;                     -- maintenance commit
///
/// A session runs on whichever engine its EngineHandle names — private,
/// shared, durable or sharded (see EngineHandle). Each read statement runs
/// against one consistent cut (EngineHandle::Read: readers never block on
/// other sessions' writes or on REFRESH); each write statement validates
/// against a cut of the head and applies exactly one DurableOp inside the
/// mode's atomic commit (EngineHandle::Write), so cross-session races (e.g.
/// two sessions inserting the same primary key) are serialized and a
/// failed statement on a shared or durable engine publishes nothing.
///
/// Every statement has one handler, written against the cut, so results
/// for the same logical state are identical in every mode, values bit for
/// bit (asserted by tests/test_differential.cc). The one allowance: a plain
/// SELECT's row order, since a sharded engine gathers relations in
/// canonical key order.
///
/// Statement routing:
///   * `SELECT ... WITH SVC(...)` must aggregate over a single materialized
///     view; it lowers to an AggregateQuery and runs through the cut's
///     Query (or QueryGrouped under GROUP BY), so session
///     answers are bit-identical to direct engine calls with the same
///     options.
///   * Every other SELECT parses and plans through sql/planner and runs on
///     the plain executor against the current committed state (stale view
///     tables included).
///   * INSERT / DELETE queue deltas through the engine; base tables change
///     only at REFRESH (the paper's maintenance model). A DELETE's WHERE
///     selects the *committed* rows to queue for deletion; one whose every
///     OR-branch pins the whole primary key to literals looks the keys up
///     instead of scanning, with the same result.
///   * REFRESH VIEW <v> validates that <v> exists, then runs MaintainAll —
///     pending deltas are engine-global, so maintenance is a single commit
///     point that freshens every view.
class SqlSession : public SqlExecutor {
 public:
  /// A session over whichever engine the handle names. On a durable
  /// engine every write statement is one logged commit, CHECKPOINT is live,
  /// and SHOW STATS reports the durability counters.
  explicit SqlSession(EngineHandle engine) : handle_(std::move(engine)) {}

  /// The owned engine. REQUIRES: a private-engine session.
  SvcEngine& engine() {
    assert(handle_.private_engine() != nullptr &&
           "engine() requires a private-engine session");
    return *handle_.private_engine();
  }
  const SvcEngine& engine() const {
    assert(handle_.private_engine() != nullptr &&
           "engine() requires a private-engine session");
    return *handle_.private_engine();
  }

  /// Session-wide SVC defaults; `WITH SVC(...)` keys override per query.
  SvcQueryOptions& default_svc_options() { return svc_defaults_; }
  const SvcQueryOptions& default_svc_options() const { return svc_defaults_; }

  // ---- Per-request controls (set by the serving layer around Execute) ----

  /// Cooperative cancellation for the next Execute calls. Borrowed: `cancel`
  /// must outlive every Execute issued while set; null disables. Reads poll
  /// it per executor chunk; writes check it only *before* mutating, so a
  /// deadline never tears a commit — an admitted write either runs to
  /// completion or never starts.
  void set_cancel_token(const CancelToken* cancel) { cancel_ = cancel; }

  /// Degraded-admission mode: scales the sampling ratio of WITH SVC
  /// queries by `scale` in (0, 1] and flags their results `degraded`.
  /// 1.0 (the default) means normal admission — no scaling, no flag.
  void set_degrade_ratio_scale(double scale) { degrade_scale_ = scale; }

  /// Idempotency mark for the next write statement: durable sessions append
  /// (token, seq) to the statement's WAL record, so recovery can rebuild
  /// the server's dedup journal and a retried-then-crashed write still
  /// commits exactly once. Cleared with token = "".
  void set_idempotency(std::string token, uint64_t seq) {
    idem_ = DurableEngine::IdemMark{std::move(token), seq};
  }

  /// Parses and executes one statement.
  Result<SqlResult> Execute(const std::string& sql) override;

  /// Executes an already-parsed statement. Statements with unbound `?`
  /// placeholders are rejected (bind them first: sql/params.h).
  Result<SqlResult> Execute(const Statement& stmt);

 private:
  // One handler per statement kind. Reads take a cut from EngineHandle::Read;
  // writes validate against the cut ExecWrite hands them and end in exactly
  // one EngineCut::Apply.
  using WriteHandler = Result<SqlResult> (SqlSession::*)(const Statement&,
                                                         EngineCut&);
  Result<SqlResult> ExecSelect(const Statement& stmt, const EngineCut& cut);
  Result<SqlResult> ExecSvcSelect(const Statement& stmt, const EngineCut& cut);
  Result<SqlResult> ExecCreateTable(const Statement& stmt, EngineCut& cut);
  Result<SqlResult> ExecCreateView(const Statement& stmt, EngineCut& cut);
  Result<SqlResult> ExecInsert(const Statement& stmt, EngineCut& cut);
  Result<SqlResult> ExecDelete(const Statement& stmt, EngineCut& cut);
  Result<SqlResult> ExecRefresh(const Statement& stmt, EngineCut& cut);
  Result<SqlResult> ExecSetPolicy(const Statement& stmt, EngineCut& cut);
  Result<SqlResult> ExecCheckpoint();
  Result<SqlResult> ExecShowTables(const EngineCut& cut);
  Result<SqlResult> ExecShowViews(const EngineCut& cut);
  Result<SqlResult> ExecShowStats(const EngineCut& cut);
  /// SHOW MAINTENANCE: the policy line plus a deterministic per-view score
  /// table (scored at elapsed_ms=0, so no wall-clock leaks into output).
  Result<SqlResult> ExecShowMaintenance(const EngineCut& cut);

  /// Runs a write handler inside one EngineHandle::Write, carrying the
  /// request's idempotency mark.
  Result<SqlResult> ExecWrite(const Statement& stmt, WriteHandler handler);

  /// Rejects targets that are views or internal delta tables; returns the
  /// catalog's table for its schema and primary key. Its rows are not the
  /// logical rows (on a sharded cut they are shard 0's part): read those
  /// through the cut, and not after the statement's Apply.
  Result<const Table*> ResolveBaseTable(const EngineCut& cut,
                                        const std::string& name,
                                        const char* verb) const;

  /// Cached encoded-primary-key sets of one relation's pending deltas, so
  /// ExecInsert's conflict checks stay O(batch) per statement instead of
  /// re-encoding the whole pending queue (O(pending)) every INSERT. The
  /// row counts validate the cache: REFRESH empties the queue and any
  /// direct engine mutation between statements changes the counts, both
  /// of which trigger a rebuild. Only trustworthy on a private engine — on
  /// any other, other sessions mutate the queue between statements, so
  /// each write statement rebuilds from the cut it runs on (see
  /// PendingKeysFor).
  struct PendingKeys {
    size_t insert_rows = 0;
    size_t delete_rows = 0;
    std::set<std::string> inserts;
    std::set<std::string> deletes;
  };

  /// The cache to use for a write statement on `relation`: the session's
  /// persistent cache on a private engine, else `scratch` (rebuilt from
  /// the write cut).
  PendingKeys* PendingKeysFor(const std::string& relation,
                              PendingKeys* scratch);

  /// Rebuilds `cache` from the cut's logical pending rows when the row
  /// counts drifted.
  static void SyncPendingKeys(const EngineCut& cut, const std::string& relation,
                              const std::vector<size_t>& pk_indices,
                              PendingKeys* cache);

  /// ExecInsert's primary-key screening against `table`'s schema and key:
  /// rejects NULL key columns, duplicates within the statement, keys
  /// already queued for insertion, and keys of `committed` (the committed
  /// rows sharing a key with `rows`) not queued for deletion. Appends each
  /// row's encoded key to `batch_keys`.
  static Status CheckInsertKeys(const Statement& stmt, const Table& table,
                                const std::vector<Row>& rows,
                                const std::vector<Row>& committed,
                                const PendingKeys& pending,
                                std::vector<std::string>* batch_keys);

  EngineHandle handle_;
  SvcQueryOptions svc_defaults_;
  std::map<std::string, PendingKeys> pending_keys_;
  const CancelToken* cancel_ = nullptr;
  double degrade_scale_ = 1.0;
  DurableEngine::IdemMark idem_;
};

}  // namespace svc

#endif  // SVC_SQL_SESSION_H_
