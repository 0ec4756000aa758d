#ifndef SVC_SAMPLE_CLEANER_H_
#define SVC_SAMPLE_CLEANER_H_

#include <memory>
#include <string>

#include "common/hash.h"
#include "common/status.h"
#include "relational/database.h"
#include "relational/executor.h"
#include "sample/pushdown.h"
#include "view/delta.h"
#include "view/maintenance.h"
#include "view/view.h"

namespace svc {

/// Options controlling sample materialization and cleaning.
struct CleanOptions {
  CleanOptions() = default;
  CleanOptions(double ratio_in, HashFamily family_in, ExecOptions exec_in = {})
      : ratio(ratio_in), family(family_in), exec(exec_in) {}

  /// Sampling ratio m ∈ (0, 1].
  double ratio = 0.1;
  /// Hash family used by η.
  HashFamily family = HashFamily::kFnv1a;
  /// Executor options (thread count) for running the cleaning plans. The
  /// samples drawn are identical at any thread count.
  ExecOptions exec;
};

/// A pair of corresponding samples (Property 1): Ŝ is a uniform sample of
/// the stale view, Ŝ' of the up-to-date view, drawn with the same
/// deterministic hash so their primary keys correspond: superfluous keys
/// leave, missing keys enter at rate m, and surviving keys are preserved.
/// Both tables carry the view's stored schema and primary key.
struct CorrespondingSamples {
  Table stale;   ///< Ŝ — sample of the stale view
  Table fresh;   ///< Ŝ' — sample of the up-to-date view
  double ratio = 0.1;
  HashFamily family = HashFamily::kFnv1a;
  /// The sampling-key column names (stored-schema references) the hash was
  /// applied to; consumers such as the outlier merge re-derive key
  /// membership from these.
  std::vector<std::string> key_columns;
};

/// Materializes the dirty sample Ŝ = η_{sampling_key, m}(S) from the stored
/// view table.
Result<Table> MaterializeStaleSample(const MaterializedView& view,
                                     const Database& db,
                                     const CleanOptions& opts);

/// Solves Problem 1 (Stale Sample View Cleaning): derives the cleaning
/// expression C from the maintenance strategy M by splicing η onto the
/// merge join (Figure 3) and pushing it down the change-table branch, then
/// executes C to produce the clean sample Ŝ'. The deltas must already be
/// registered in `db`.
///
/// Returns both corresponding samples. `report` (optional) records how far
/// η pushed — views whose definitions block the push-down (the paper's V21
/// and V22) clean more slowly but still correctly.
Result<CorrespondingSamples> CleanViewSample(const MaterializedView& view,
                                             const DeltaSet& deltas,
                                             const Database& db,
                                             const CleanOptions& opts,
                                             PushdownReport* report = nullptr);

/// Builds (but does not execute) the cleaning expression C for inspection
/// and benchmarking. kNoOp maintenance yields the trivial η(Scan(view)).
Result<PlanPtr> BuildCleaningPlan(const MaterializedView& view,
                                  const DeltaSet& deltas, const Database& db,
                                  const CleanOptions& opts,
                                  PushdownReport* report = nullptr);

/// The two plans one CleanViewSample run executes.
struct CleaningPlans {
  PlanPtr stale;  ///< η over the stored view, producing Ŝ
  PlanPtr fresh;  ///< the cleaning expression C, producing Ŝ'
};

/// CleanViewSample split in two, so a caller can rewrite the plans' leaves
/// between building and running them (core/stale_memo.h serves η over
/// committed tables from a memo). Building then executing against the
/// same `db` is exactly CleanViewSample.
Result<CleaningPlans> BuildCleaningPlans(const MaterializedView& view,
                                         const DeltaSet& deltas,
                                         const Database& db,
                                         const CleanOptions& opts,
                                         PushdownReport* report = nullptr);
Result<CorrespondingSamples> ExecuteCleaningPlans(const MaterializedView& view,
                                                  const CleaningPlans& plans,
                                                  const Database& db,
                                                  const CleanOptions& opts);

/// Key-set variant of cleaning, used by the outlier-index push-up
/// (Definition 5): instead of a hash sample, materializes exactly the
/// up-to-date view rows whose sampling-key value is in `keys` (encoded with
/// EncodeRowKey over the sampling-key columns). The same push-down
/// machinery applies, so only the affected keys' rows are computed.
Result<Table> CleanViewByKeys(const MaterializedView& view,
                              const DeltaSet& deltas, const Database& db,
                              std::shared_ptr<const KeySet> keys,
                              PushdownReport* report = nullptr,
                              ExecOptions exec = {});

/// The stale view rows whose sampling-key value is in `keys`.
Result<Table> StaleViewRowsByKeys(const MaterializedView& view,
                                  const Database& db,
                                  std::shared_ptr<const KeySet> keys,
                                  ExecOptions exec = {});

/// Incremental sample maintenance: advances `base` — corresponding samples
/// cleaned when the pending queue stood at `mark` — to the full current
/// `deltas` by cleaning only the rows that arrived after `mark`, instead of
/// re-running the whole cleaning pipeline.
///
/// The advanced samples are **bit-identical** (row values and row order) to
/// what CleanViewSample would produce cold, which the serving cache depends
/// on: estimates drawn from an advanced sample match the cold path to the
/// last bit. That guarantee is only provable for a restricted shape, so the
/// advance is gated and returns null (OK status) whenever any of these
/// fails — the caller must then fall back to a full re-clean:
///
///   * `opts` matches the ratio/family `base` was drawn with,
///   * the view is an aggregate view whose pre-aggregation subtree is
///     σ/Π/inner-⋈ over single scans (no self-joins of the hot relation),
///   * the pending queue is insert-only for the view's base relations, and
///     exactly one of them gained rows since `mark`,
///   * `mark` still describes a prefix of the queue (it predates no
///     maintenance commit).
///
/// Under those conditions new groups enter the change table strictly after
/// all previously queued groups and no group ever leaves, so splicing the
/// recomputed rows of the affected sampled keys (via the key-set cleaning
/// plan over the full queue) into `base` reproduces the cold output
/// exactly. When no newly arrived row lands in the sample, `base` itself is
/// returned unchanged.
Result<std::shared_ptr<const CorrespondingSamples>> AdvanceCleanedSamples(
    const MaterializedView& view,
    std::shared_ptr<const CorrespondingSamples> base,
    const DeltaWatermark& mark, const DeltaSet& deltas, const Database& db,
    const CleanOptions& opts);

}  // namespace svc

#endif  // SVC_SAMPLE_CLEANER_H_
