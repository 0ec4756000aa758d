#ifndef SVC_CORE_ESTIMATOR_MERGE_H_
#define SVC_CORE_ESTIMATOR_MERGE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "relational/table.h"
#include "sample/cleaner.h"

namespace svc {

/// Merges per-shard corresponding samples into one sample in a canonical,
/// shard-count-invariant order, for the estimators that need the rows
/// themselves at the coordinator.
///
/// Sum, count and avg do not come here. Their answers are exact sums
/// (common/exact_sum.h), which do not depend on the order or the split of
/// the rows, so each shard returns exact partial moments and the
/// coordinator only adds them (core/estimator.h, SvcEngine::QueryPart).
/// Three consumers still need merged rows:
///   * auto mode's §5.2.2 choice (ChooseEstimator), which pairs the rows;
///   * the bootstrap intervals of median and of avg under SVC+CORR, which
///     resample pairs in merged order, so their bounds depend on it;
///   * the extremum corrections of min and max.
///
/// The order: concatenate the per-shard rows and stable-sort them by
/// sampling-key *values* (Value's total order). A sampling key's rows all
/// live on exactly one shard (the partitioning rule), so within a key the
/// rows keep that shard's local order — the global ingestion order filtered
/// to the key — and across keys the value order decides. The result is the
/// same logical sample at N = 1, 2, 4, ... shards. An unsharded engine
/// resamples its own storage order, so bootstrap bounds match it only when
/// that order rises with the key; every other answer matches bit for bit
/// whatever the order.
///
/// All parts must agree on ratio, family, and key columns (they come from
/// one fan-out). Empty parts are fine; at least one part is required.
/// Output tables carry the parts' schema and primary key (rows are
/// PK-disjoint across shards by construction).
Result<CorrespondingSamples> MergeCorrespondingSamples(
    const std::vector<std::shared_ptr<const CorrespondingSamples>>& parts);

/// Merges per-shard partitions of one table into a single table in
/// canonical order: rows sorted by primary-key values (all columns for
/// keyless tables, where equal rows are interchangeable). Used to
/// reassemble partitioned relations and views for plain SELECTs, and a
/// view's stale contents for the q(S) of median, min and max — the merged
/// table is identical at every shard count.
Result<Table> MergeShardTables(
    const std::vector<std::shared_ptr<const Table>>& parts);

/// The rows whose primary keys equal those of `key_rows` (full-width rows;
/// only the key columns are read), each once, found by probing every part's
/// key index: O(keys x parts), whatever the table's size. With `merged`,
/// `parts` are the per-shard partitions of one table and the rows come in
/// MergeShardTables' order; without, `parts` holds one table and the rows
/// come in its storage order. The parts must share a primary key.
Result<std::vector<Row>> LookupRowsByKey(const std::vector<const Table*>& parts,
                                         const std::vector<Row>& key_rows,
                                         bool merged);

}  // namespace svc

#endif  // SVC_CORE_ESTIMATOR_MERGE_H_
