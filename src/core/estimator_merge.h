#ifndef SVC_CORE_ESTIMATOR_MERGE_H_
#define SVC_CORE_ESTIMATOR_MERGE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "relational/table.h"
#include "sample/cleaner.h"

namespace svc {

/// Merges per-shard corresponding samples into one sample in a canonical,
/// shard-count-invariant order, so the stock estimators (core/estimator.h)
/// run once at the coordinator and produce bit-identical answers at every
/// shard count.
///
/// Why merge samples instead of per-shard estimates: floating-point
/// addition is not associative, so summing N per-shard partial sums would
/// make the answer depend on N. Concatenating the per-shard rows and
/// stable-sorting them by sampling-key *values* (Value's total order)
/// yields an order that depends only on the data: a sampling key's rows
/// all live on exactly one shard (that is the partitioning rule), so
/// within a key the rows keep that shard's local order — which is the
/// global ingestion order filtered to the key — and across keys the value
/// order decides. The result is the same logical sample at N = 1, 2, 4,
/// ..., and the estimator's deterministic chunking (DeterministicChunks
/// depends only on row count) does the rest. Value order is also why
/// answers match the *unsharded* engine bit-for-bit whenever the view's
/// natural row order is increasing in the key (the common case: views
/// materialize in base-scan order and deltas append with fresh keys).
///
/// All parts must agree on ratio, family, and key columns (they come from
/// one fan-out). Empty parts are fine; at least one part is required.
/// Output tables carry the parts' schema and primary key (rows are
/// PK-disjoint across shards by construction).
Result<CorrespondingSamples> MergeCorrespondingSamples(
    const std::vector<std::shared_ptr<const CorrespondingSamples>>& parts);

/// Merges per-shard partitions of one table into a single table in
/// canonical order: rows sorted by primary-key values (all columns for
/// keyless tables, where equal rows are interchangeable). Used
/// to gather a partitioned view's full stale contents for SVC+CORR and to
/// reassemble partitioned base relations for plain SELECTs — the merged
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
