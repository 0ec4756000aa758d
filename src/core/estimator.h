#ifndef SVC_CORE_ESTIMATOR_H_
#define SVC_CORE_ESTIMATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/exact_sum.h"
#include "common/flat_map.h"
#include "common/status.h"
#include "relational/algebra.h"
#include "relational/table.h"
#include "sample/cleaner.h"

namespace svc {

/// An aggregate query per §5.1 of the paper:
///
///     SELECT f(attr) FROM View WHERE cond(*)
///
/// Group-by is modeled as part of the condition (footnote 1); the grouped
/// helpers below evaluate one such query per group in a single pass.
struct AggregateQuery {
  AggFunc func = AggFunc::kCountStar;  ///< sum/count(*)/count/avg/median/...
  ExprPtr attr;        ///< aggregation attribute expression; null for count(*)
  ExprPtr predicate;   ///< cond(*); null keeps every row

  static AggregateQuery Count(ExprPtr predicate = nullptr) {
    return {AggFunc::kCountStar, nullptr, std::move(predicate)};
  }
  static AggregateQuery Sum(ExprPtr attr, ExprPtr predicate = nullptr) {
    return {AggFunc::kSum, std::move(attr), std::move(predicate)};
  }
  static AggregateQuery Avg(ExprPtr attr, ExprPtr predicate = nullptr) {
    return {AggFunc::kAvg, std::move(attr), std::move(predicate)};
  }
  static AggregateQuery Median(ExprPtr attr, ExprPtr predicate = nullptr) {
    return {AggFunc::kMedian, std::move(attr), std::move(predicate)};
  }

  /// Renders the query for error messages and logs, e.g.
  /// "sum(duration) WHERE videoId = 3" or "count(*)".
  std::string ToString() const;
};

/// A point estimate with a confidence interval. For estimators without an
/// analytic CI (median) the interval comes from the statistical bootstrap;
/// `has_ci` is false when no interval is available at all.
struct Estimate {
  double value = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
  double confidence = 0.95;
  bool has_ci = false;
  /// Rows of the (clean) sample the estimate consumed.
  size_t sample_rows = 0;

  /// Half-width of the confidence interval.
  double HalfWidth() const { return (ci_high - ci_low) / 2.0; }
  /// True iff `truth` lies inside the interval.
  bool Covers(double truth) const {
    return has_ci && truth >= ci_low && truth <= ci_high;
  }
};

/// Estimation knobs shared by the scalar and grouped entry points.
struct EstimatorOptions {
  double confidence = 0.95;        ///< CI level (1.96 at 95%, 2.576 at 99%)
  int bootstrap_iterations = 200;    ///< resamples for bootstrap CIs
  uint64_t bootstrap_seed = 0xb00ce; ///< deterministic bootstrap
  /// Threads for the bootstrap's independent replicates (1 = sequential,
  /// 0 = all hardware threads). Intervals are bit-identical at any setting
  /// — each replicate has its own seed-derived RNG stream.
  int num_threads = 1;
};

/// Evaluates `q` exactly over a full table (used for the stale baseline,
/// oracle answers, and the full-view term of SVC+CORR).
Result<double> ExactAggregate(const Table& view, const AggregateQuery& q);

/// SVC+AQP (§5.1): the direct estimate s·q(Ŝ') from the clean sample, with
/// a CLT confidence interval for sum/count/avg (§5.2.1; Horvitz–Thompson
/// variance under the Bernoulli hash-sampling design) and a bootstrap
/// interval for median.
Result<Estimate> SvcAqpEstimate(const CorrespondingSamples& samples,
                                const AggregateQuery& q,
                                const EstimatorOptions& opts = {});

/// SVC+CORR (§5.1): estimates the staleness correction c from the
/// corresponding samples via the correspondence-subtract operator −̇
/// (Definition 4) and applies it to the exact stale answer:
/// q(S') ≈ q(S) + ĉ. `stale_view` is the full stale view.
Result<Estimate> SvcCorrEstimate(const Table& stale_view,
                                 const CorrespondingSamples& samples,
                                 const AggregateQuery& q,
                                 const EstimatorOptions& opts = {});

/// The correction half of SVC+CORR: q(S) + ĉ with the exact stale answer
/// `exact_stale` = ExactAggregate(S, q) supplied by the caller, so a q(S)
/// computed once per stale view version serves every query against it
/// (core/stale_memo.h). Bit-identical to the overload above.
Result<Estimate> SvcCorrEstimate(double exact_stale,
                                 const CorrespondingSamples& samples,
                                 const AggregateQuery& q,
                                 const EstimatorOptions& opts = {});

// ---- Grouped variants ------------------------------------------------------

/// Results of evaluating the same aggregate once per group. Every
/// GroupedResult the functions below return lists its groups in group-key
/// order: Value order column by column (a NaN after every other number),
/// with distinct encodings that compare equal ordered by their bytes.
struct GroupedResult {
  std::vector<std::string> group_columns;
  std::vector<Row> group_keys;        ///< one entry per group, in key order
  std::vector<Estimate> estimates;    ///< parallel to group_keys
  FlatKeyMap<size_t> index;           ///< encoded key -> slot

  /// Finds the estimate for an encoded group key; nullptr if the group was
  /// not observed.
  const Estimate* Find(std::string_view encoded_key) const {
    const size_t* slot = index.Find(encoded_key);
    return slot == nullptr ? nullptr : &estimates[*slot];
  }
};

/// Exact per-group evaluation over a full table: each group's value is
/// ExactAggregate over that group's rows (bit for bit), `sample_rows` its
/// row count, and no estimate carries a CI.
Result<GroupedResult> ExactAggregateGrouped(
    const Table& view, const std::vector<std::string>& group_columns,
    const AggregateQuery& q);

/// Per-group SVC+AQP. Groups absent from the clean sample are absent from
/// the result (their estimate is zero rows of evidence).
Result<GroupedResult> SvcAqpEstimateGrouped(
    const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts = {});

/// Per-group SVC+CORR: the exact stale per-group answers corrected by
/// per-group sampled corrections. Groups seen in neither the stale view
/// nor the samples are absent.
Result<GroupedResult> SvcCorrEstimateGrouped(
    const Table& stale_view, const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts = {});

/// Per-group SVC+CORR over a precomputed `stale_exact` =
/// ExactAggregateGrouped(S, group_columns, q); the group columns are read
/// from it. Bit-identical to the overload above.
Result<GroupedResult> SvcCorrEstimateGrouped(
    const GroupedResult& stale_exact, const CorrespondingSamples& samples,
    const AggregateQuery& q, const EstimatorOptions& opts = {});

// ---- Exact partial moments --------------------------------------------------
//
// The sum, count and avg estimators are sums (§5.2): q(S), the correction
// ĉ = Σ(t′ᵢ − tᵢ)/m and its variance, and the direct estimate Σt′/m. With
// exact sums (common/exact_sum.h) they split into one pass per part of the
// rows, which yields exact partial moments per group, and a finish step
// that adds the parts' moments and applies the formulas to the rounded
// sums. Any split of the rows into parts — storage order, shards — gives
// the same bits, because a pair of corresponding rows never straddles two
// parts (a sampling key's rows live on one shard). The public estimators
// above run the same code as the one-part case.

/// One group's exact moments over one part.
struct GroupMoments {
  ExactSum::Partial sum;  ///< Σ of the terms
  ExactSum::Partial ssq;  ///< Σ of the squared terms (sample passes only)
  uint64_t terms = 0;     ///< terms in `sum`
  uint64_t rows = 0;      ///< rows (or pairs) of the part in the group
};

/// One pass's moments over one part, per group, in group-key order. An
/// ungrouped pass has at most one group, with an empty key.
struct PartialMoments {
  std::vector<Row> group_keys;
  std::vector<GroupMoments> groups;  ///< parallel to group_keys
};

/// True for the aggregates whose estimators finish from moments alone:
/// sum, count and count(*).
bool IsTotalAggregate(AggFunc f);
/// True for the aggregates whose q(S) finishes from moments: the totals and
/// avg.
bool HasStaleMoments(AggFunc f);

/// q(S) moments over one part of the stored view: per group, the terms are
/// the rows' sum terms (x·cond, cond, or cond·[x not null]) and `terms`
/// counts the rows; for avg they are the x of the rows satisfying the
/// predicate with a non-null x. `rows` counts every row of the group.
/// Requires HasStaleMoments(q.func). `cancel` (may be null) is polled.
Result<PartialMoments> StaleMoments(const Table& view,
                                    const std::vector<std::string>& group_columns,
                                    const AggregateQuery& q,
                                    const CancelToken* cancel = nullptr);

/// SVC+CORR moments over one part's corresponding samples: per pair of
/// corresponding rows, d = t′ − t (a missing side counts zero), grouped by
/// the fresh row's group when it exists, else the stale row's. Requires
/// IsTotalAggregate(q.func).
Result<PartialMoments> CorrMoments(const CorrespondingSamples& samples,
                                   const std::vector<std::string>& group_columns,
                                   const AggregateQuery& q,
                                   const CancelToken* cancel = nullptr);

/// SVC+AQP moments over one part's clean sample: the fresh rows' sum terms
/// t′. Requires IsTotalAggregate(q.func).
Result<PartialMoments> AqpMoments(const CorrespondingSamples& samples,
                                  const std::vector<std::string>& group_columns,
                                  const AggregateQuery& q,
                                  const CancelToken* cancel = nullptr);

/// q(S) from the parts' StaleMoments: ExactAggregate over the union of the
/// parts' rows, bit for bit.
double FinishStale(const std::vector<const PartialMoments*>& parts,
                   const AggregateQuery& q);
/// Grouped: ExactAggregateGrouped over the union of the parts' rows.
GroupedResult FinishStaleGrouped(const std::vector<const PartialMoments*>& parts,
                                 const std::vector<std::string>& group_columns,
                                 const AggregateQuery& q);

/// SVC+CORR from q(S) and the parts' CorrMoments, sampled at `ratio`:
/// SvcCorrEstimate over the union of the parts' samples.
Estimate FinishCorr(double exact_stale,
                    const std::vector<const PartialMoments*>& parts,
                    double ratio, const EstimatorOptions& opts);
/// Grouped SVC+CORR with q(S) given as the parts' StaleMoments.
GroupedResult FinishCorrGrouped(
    const std::vector<const PartialMoments*>& stale_parts,
    const std::vector<const PartialMoments*>& parts,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    double ratio, const EstimatorOptions& opts);

/// SVC+AQP from the parts' AqpMoments: SvcAqpEstimate over the union.
Estimate FinishAqp(const std::vector<const PartialMoments*>& parts,
                   double ratio, const EstimatorOptions& opts);
GroupedResult FinishAqpGrouped(const std::vector<const PartialMoments*>& parts,
                               const std::vector<std::string>& group_columns,
                               double ratio, const EstimatorOptions& opts);

/// z-value for a two-sided normal interval at `confidence` (e.g. 0.95 ->
/// 1.96). Supports the 0.8–0.999 range via a rational approximation.
double NormalQuantile(double confidence);

}  // namespace svc

#endif  // SVC_CORE_ESTIMATOR_H_
