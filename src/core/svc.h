#ifndef SVC_CORE_SVC_H_
#define SVC_CORE_SVC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/estimator.h"
#include "core/maintenance_policy.h"
#include "core/policy.h"
#include "core/sample_cache.h"
#include "core/stale_memo.h"
#include "relational/database.h"
#include "sample/cleaner.h"
#include "view/delta.h"
#include "view/maintenance.h"
#include "view/view.h"

namespace svc {

/// Options for SvcEngine::Query.
struct SvcQueryOptions {
  /// Sampling ratio m for the cleaned sample.
  double ratio = 0.1;
  /// Hash family for η.
  HashFamily family = HashFamily::kFnv1a;
  /// Estimator choice; when `auto_mode` is set the §5.2.2 break-even rule
  /// picks between AQP and CORR per query.
  EstimatorMode mode = EstimatorMode::kCorr;
  bool auto_mode = false;
  EstimatorOptions estimator;
  /// Executor parallelism for the cleaning plans. The estimator's
  /// bootstrap has its own independent knob (`estimator.num_threads`) so
  /// an explicit sequential bootstrap is never silently overridden.
  /// Answers are bit-identical at any thread count of either.
  ExecOptions exec;
};

/// The answer to an SVC query: the estimate plus which estimator produced
/// it (useful when auto_mode is on).
struct SvcAnswer {
  Estimate estimate;
  EstimatorMode mode_used = EstimatorMode::kCorr;
};

/// The grouped analog of SvcAnswer: one estimate per observed group.
struct SvcGroupedAnswer {
  GroupedResult result;
  EstimatorMode mode_used = EstimatorMode::kCorr;
};

/// One part's share of an SVC query: an engine's, or one shard's of a
/// ShardedEngine. The part cleans its sample and runs the one-pass moment
/// kernels (core/estimator.h) over its own rows, so a query that finishes
/// from moments needs no rows at the coordinator.
struct SvcQueryPart {
  std::shared_ptr<const CorrespondingSamples> samples;
  /// q(S) moments over the part's stored view, memoized per table version;
  /// set when the answer may be SVC+CORR and HasStaleMoments(q.func).
  std::shared_ptr<const PartialMoments> stale;
  /// SVC+CORR or SVC+AQP moments over `samples`; set when the mode is fixed
  /// (not auto) and IsTotalAggregate(q.func).
  std::shared_ptr<const PartialMoments> sample;
};

/// q(S) of an aggregate without moments (median, min, max), computed by
/// the caller over the whole stale view.
using StaleExactFn = std::function<Result<double>()>;
using StaleExactGroupedFn =
    std::function<Result<std::shared_ptr<const GroupedResult>>()>;

/// The coordinator half of an SVC query over its parts (one per shard; one
/// for an unsharded engine). Moments only add. The rows are needed only by
/// auto mode's §5.2.2 choice and the bootstrap and extremum estimators;
/// for those, several parts' samples merge in canonical order
/// (core/estimator_merge.h).
Result<SvcAnswer> FinishSvcQuery(const std::vector<SvcQueryPart>& parts,
                                 const AggregateQuery& q,
                                 const SvcQueryOptions& opts,
                                 const StaleExactFn& stale_exact);
Result<SvcGroupedAnswer> FinishSvcQueryGrouped(
    const std::vector<SvcQueryPart>& parts,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const SvcQueryOptions& opts, const StaleExactGroupedFn& stale_exact);

/// How CleanSampleCached satisfied one request. ShardedEngine's fan-out
/// collapses its shards' outcomes into one logical serving event per query
/// (any full clean dominates, else any advance, else a pure hit), so SHOW
/// STATS counters stay shard-count-invariant.
enum class CacheOutcome : uint8_t { kHit, kAdvance, kFullClean };

/// The top-level facade implementing the paper's workflow (§3.2):
///
///   1. create materialized views over base relations,
///   2. ingest deltas (the views become stale; base tables stay at the
///      old state until maintenance commits),
///   3. between maintenance periods, answer aggregate queries with bounded
///      approximations by cleaning a sample of the stale view,
///   4. periodically run full incremental maintenance and commit.
///
/// Thin orchestration over the library modules; benchmarks that need
/// fine-grained timing call the module APIs directly.
class SvcEngine {
 public:
  /// Takes ownership of the database holding the base relations.
  explicit SvcEngine(Database db) : db_(std::move(db)) {}

  /// Copying forks the engine state: the database copy shares table
  /// storage copy-on-write (see Database), views share their immutable
  /// plan trees, and the pending delta queue shares its sealed chunks
  /// (only rows queued since the previous fork are copied, O(new rows) —
  /// see DeltaSet). SharedEngine uses this to publish immutable snapshots;
  /// MaintainAll uses it to commit atomically.
  SvcEngine(const SvcEngine& other);
  SvcEngine& operator=(const SvcEngine& other);
  SvcEngine(SvcEngine&&) = default;
  SvcEngine& operator=(SvcEngine&&) = default;

  Database* db() { return &db_; }
  const Database& db() const { return db_; }

  /// Default executor parallelism for engine-driven plan executions
  /// (maintenance, fresh-view computation). Query-time parallelism comes
  /// from SvcQueryOptions::exec.
  void set_exec_options(ExecOptions exec) { exec_options_ = exec; }
  const ExecOptions& exec_options() const { return exec_options_; }

  /// Creates and materializes a view. See MaterializedView::Create.
  Status CreateView(const std::string& name, PlanPtr definition,
                    std::vector<std::string> sampling_key = {});

  /// Looks up view metadata (errors list the known views).
  Result<const MaterializedView*> GetView(const std::string& name) const;

  /// Cheap existence probe (no error-message construction).
  bool HasView(const std::string& name) const {
    return views_.count(name) > 0;
  }

  /// Names of all registered views.
  std::vector<std::string> ViewNames() const;

  // ---- Delta ingestion -----------------------------------------------------
  Status InsertRecord(const std::string& relation, Row row);
  Status DeleteRecord(const std::string& relation, Row row);
  Status UpdateRecord(const std::string& relation, Row old_row, Row new_row);
  /// Merges a whole batch of deltas.
  Status IngestDeltas(DeltaSet&& deltas);

  /// Deltas accumulated since the last MaintainAll.
  const DeltaSet& pending() const { return pending_; }
  bool IsStale() const { return !pending_.empty(); }

  /// Overwrites the pending queue's mutation counter. Only for checkpoint
  /// restore (storage/serde re-pairs the decoded queue with its persisted
  /// counter); never call this on a live engine.
  void RestorePendingVersion(uint64_t v) { pending_.RestoreVersion(v); }

  /// Rebuilds base relation `relation` — and its pending delta queues —
  /// keeping only rows for which `keep` returns true, preserving row
  /// order. Used by ShardedEngine when a relation becomes hash-partitioned:
  /// each shard drops the rows it does not own. Must run before any view
  /// reads the relation (existing view contents are not rewritten).
  Status RepartitionRelation(const std::string& relation,
                             const std::function<bool(const Row&)>& keep);

  // ---- Maintenance ---------------------------------------------------------
  /// Full (incremental where possible) maintenance of every view, then
  /// commits the pending deltas into the base relations. The commit is
  /// transactional: on any error the engine (views, base tables, and the
  /// pending delta queue) is left exactly as it was — queued deltas are
  /// never dropped by a failed maintenance run.
  Status MaintainAll();

  /// The non-transactional body of MaintainAll: on error the engine may be
  /// left with half-applied maintenance. Only for callers that already run
  /// on a disposable fork which is discarded on error (SharedEngine::Commit
  /// publishes nothing when this fails), where MaintainAll's protective
  /// fork-and-swap would just fork the engine a second time.
  Status MaintainAllInPlace();

  /// Computes the up-to-date contents of one view without applying
  /// anything (oracle for accuracy evaluation).
  Result<Table> ComputeFreshView(const std::string& name) const;

  // ---- Sampling & estimation -----------------------------------------------
  /// Cleans a sample of the named stale view (Problem 1).
  Result<CorrespondingSamples> CleanSample(
      const std::string& name, const CleanOptions& opts,
      PushdownReport* report = nullptr) const;

  /// The cleaned-sample cache (§3.2's "clean once, query many" serving
  /// discipline): Query/QueryGrouped memoize the corresponding samples per
  /// (view, ratio, family) and revalidate against the engine version, so
  /// repeated queries between mutations pay only the estimator, and the
  /// first query after an ingest advances the cached sample incrementally
  /// when AdvanceCleanedSamples' gates allow. The switch also covers the
  /// stale-side memo (StaleMemoStats). Answers are bit-identical with the
  /// cache on or off (enforced by tests/test_differential.cc).
  void set_sample_cache_enabled(bool enabled) {
    sample_cache_enabled_ = enabled;
  }
  bool sample_cache_enabled() const { return sample_cache_enabled_; }

  /// Per-view serving counters (hits/misses/cleans). Counters accumulate
  /// across forks — a SharedEngine's published snapshots carry them
  /// forward — and reset only with a fresh engine.
  std::map<std::string, ViewCacheStats> CacheStats() const {
    return sample_cache_->StatsSnapshot();
  }

  /// Lookup counters of this lineage's stale-side memo (q(S) and η over
  /// committed tables; core/stale_memo.h), shared by every fork. Only
  /// consulted while the sample cache is enabled; in-process only.
  StaleMemo::Stats StaleMemoStats() const { return stale_memo_->stats(); }

  /// The memoized corresponding samples for a query against `name`,
  /// populated (or advanced, or revalidated) through the cache. This is
  /// the serving hot path behind Query/QueryGrouped; it is safe to call
  /// from any number of threads on a const engine (snapshot readers).
  /// `outcome`, when non-null, reports how the request was satisfied (a
  /// cache-disabled engine always reports kFullClean).
  Result<std::shared_ptr<const CorrespondingSamples>> CleanSampleCached(
      const std::string& name, const CleanOptions& opts,
      CacheOutcome* outcome = nullptr) const;

  /// The engine's maintenance policy (SET MAINTENANCE POLICY). Engine
  /// state: forks copy it and checkpoints persist it. The engine itself
  /// never acts on it — SharedEngine/ShardedEngine own the scheduler
  /// thread that reads it (core/maintenance_policy.h).
  void set_maintenance_policy(const MaintenancePolicyConfig& cfg) {
    maintenance_policy_ = cfg;
  }
  const MaintenancePolicyConfig& maintenance_policy() const {
    return maintenance_policy_;
  }

  /// This engine's part of a query on view `name` (group_columns empty
  /// for a scalar query): the cleaned sample, and the moments
  /// SvcQueryPart documents. `outcome` reports the cleaning's cache
  /// outcome, and `part->samples` is set, even when a moment pass fails
  /// (a cancelled one, say).
  Status QueryPart(const std::string& name,
                   const std::vector<std::string>& group_columns,
                   const AggregateQuery& q, const SvcQueryOptions& opts,
                   SvcQueryPart* part, CacheOutcome* outcome = nullptr) const;

  /// Answers an aggregate query on the named view with a bounded
  /// approximation reflecting the pending deltas (Problem 2).
  Result<SvcAnswer> Query(const std::string& name, const AggregateQuery& q,
                          const SvcQueryOptions& opts = {}) const;

  /// Per-group variant of Query: evaluates the same aggregate once per
  /// `group_columns` value (footnote 1 of §5.1 models GROUP BY as one query
  /// per group). Draws the corresponding samples once and shares them
  /// across every group's estimate.
  Result<SvcGroupedAnswer> QueryGrouped(
      const std::string& name, const std::vector<std::string>& group_columns,
      const AggregateQuery& q, const SvcQueryOptions& opts = {}) const;

  /// The (stale) exact answer, for comparison.
  Result<double> QueryStale(const std::string& name,
                            const AggregateQuery& q) const;

 private:
  /// The stale-side memo when the sample cache is on, else null (the
  /// cache-off engine computes q(S) and η itself).
  StaleMemo* memo() const {
    return sample_cache_enabled_ ? stale_memo_.get() : nullptr;
  }

  Database db_;
  std::map<std::string, MaterializedView> views_;
  DeltaSet pending_;
  ExecOptions exec_options_;
  MaintenancePolicyConfig maintenance_policy_;
  /// Behind shared_ptr so the engine stays movable (the cache holds
  /// mutexes); forks never share the pointee — the fork constructor makes
  /// a fresh cache and copies the entries (see SampleCache::CopyFrom).
  std::shared_ptr<SampleCache> sample_cache_ =
      std::make_shared<SampleCache>();
  /// Shared with every fork: a table's identity fixes its contents, so a
  /// result computed on any fork is valid on every fork that still holds
  /// the same table object (see StaleMemo).
  std::shared_ptr<StaleMemo> stale_memo_ = std::make_shared<StaleMemo>();
  bool sample_cache_enabled_ = true;
};

}  // namespace svc

#endif  // SVC_CORE_SVC_H_
