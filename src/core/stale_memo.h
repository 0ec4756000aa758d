#ifndef SVC_CORE_STALE_MEMO_H_
#define SVC_CORE_STALE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "core/estimator.h"
#include "relational/database.h"
#include "relational/table.h"
#include "sample/cleaner.h"
#include "view/delta.h"
#include "view/view.h"

namespace svc {

/// The stale side of SVC, computed once per table version: results that
/// depend only on committed tables — the stored view S and the base
/// relations, which only a maintenance commit replaces — memoized across
/// every query of a maintenance period. Two kinds of work go through it:
///
///   * q(S), the exact stale term of the SVC+CORR estimate q(S) + ĉ (§5.2),
///     scalar or grouped, kept as exact moments for sum, count and avg;
///   * η over committed-table scans in a cleaning run: the stale sample Ŝ,
///     the stale-view branch of the Figure 3 merge join, and the pushed-
///     down base-relation leaves. Delta chunks and key-set filters are
///     never memoized.
///
/// Validity is table identity. Commits are copy-on-write, so a table
/// object's identity fixes its contents, and an entry serves a request only
/// while the catalog still holds the very `shared_ptr<const Table>` the
/// entry was computed from. Rules:
///
///   * Each entry holds a strong reference to its table. A weak one would
///     let Database::GetMutableTable, finding itself the sole owner,
///     mutate a memoized table in place under an unchanged identity.
///   * Entries are filed under the table's catalog name, never its address,
///     and each name holds one table generation: a result for a different
///     table object under that name replaces every entry of the old one,
///     releasing it. A cleaning run also drops the generations of the
///     view's tables that the catalog no longer holds (DropOtherGeneration),
///     so after a REFRESH one query per shape releases the old tables even
///     where the new plans no longer read them.
///   * At most kMaxSlots results; the least recently used goes first.
///   * Only successful computations are stored; a cancelled or failed one
///     leaves the memo as it was.
///
/// Keys are exact: type-tagged, with bit-exact doubles and length-prefixed
/// strings (relational/encode.h). q(S) keys cover the function, attribute,
/// predicate and group columns; η keys the hash-column positions, ratio
/// and hash family.
///
/// Scope: one memo per engine lineage. Every fork of an SvcEngine shares
/// its memo by pointer — unlike SampleCache, which is copied into each fork
/// and versioned by the pending queue — because a result stored by a reader
/// of one snapshot must serve the next head, which a writer forks every few
/// milliseconds under ingest. Each shard of a ShardedEngine memoizes the
/// q(S) moments of its own partition; the coordinator owns one more for the
/// q(S) of median, min and max over gathered views. Memo use follows the sample-cache switch: a
/// cache-off engine computes everything itself, so it stays a true
/// reference for the memo too. Thread-safe.
class StaleMemo {
 public:
  /// Result bound (like SampleCache::kMaxSlots): query parameters are
  /// user-controlled, and a prepared shape cycling through many values
  /// would otherwise grow the memo without limit.
  static constexpr size_t kMaxSlots = 64;

  /// Lookup counters, readable in-process only (SHOW STATS never shows
  /// them, so transcripts do not depend on the memo).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  StaleMemo() = default;
  StaleMemo(const StaleMemo&) = delete;
  StaleMemo& operator=(const StaleMemo&) = delete;

  /// A memoized result: q(S) scalar, q(S) grouped, q(S) moments, or η
  /// rows.
  using Value = std::variant<double, std::shared_ptr<const GroupedResult>,
                             std::shared_ptr<const PartialMoments>,
                             std::shared_ptr<const Table>>;

  /// The result stored under `key` for table `name` if it was computed
  /// from `table` (a hit); false otherwise (a miss). The Memo* functions
  /// below build the keys.
  bool Find(const std::string& name, const std::shared_ptr<const Table>& table,
            const std::string& key, Value* out);
  /// Stores `value`, computed from `table`, under (`name`, `key`). A
  /// different table under `name` is an older or newer generation: all of
  /// its results are dropped first.
  void Store(const std::string& name, std::shared_ptr<const Table> table,
             std::string key, Value value);
  /// Drops the results for `name` unless they were computed from `table`.
  void DropOtherGeneration(const std::string& name,
                           const std::shared_ptr<const Table>& table);

  Stats stats() const;

 private:
  struct Slot {
    Value value;
    uint64_t last_used = 0;
  };
  /// The results computed from one table object.
  struct Generation {
    std::shared_ptr<const Table> table;  ///< strong: pins the object
    std::map<std::string, Slot> slots;
  };

  /// Erases the generation at `it`. Caller holds mu_.
  void EraseLocked(std::map<std::string, Generation>::iterator it);

  mutable std::mutex mu_;
  std::map<std::string, Generation> tables_;  // by catalog name
  size_t size_ = 0;     // results across every generation
  uint64_t clock_ = 0;  // LRU stamps
  Stats stats_;
};

/// ExactAggregate(*table, q) for the table registered as `name`, served
/// from `memo` when it is non-null (null is the cache-off reference path).
Result<double> MemoExactAggregate(StaleMemo* memo, const std::string& name,
                                  const std::shared_ptr<const Table>& table,
                                  const AggregateQuery& q);

/// The grouped analog: ExactAggregateGrouped(*table, group_columns, q).
Result<std::shared_ptr<const GroupedResult>> MemoExactAggregateGrouped(
    StaleMemo* memo, const std::string& name,
    const std::shared_ptr<const Table>& table,
    const std::vector<std::string>& group_columns, const AggregateQuery& q);

/// StaleMoments(*table, group_columns, q) for the table registered as
/// `name`: the exact q(S) moments of one part (a shard's partition of a
/// view, or a whole view), served from `memo` when it is non-null.
Result<std::shared_ptr<const PartialMoments>> MemoStaleMoments(
    StaleMemo* memo, const std::string& name,
    const std::shared_ptr<const Table>& table,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const CancelToken* cancel = nullptr);

/// CleanViewSample with η over committed tables served from `memo`: every
/// η(Scan(T)) leaf of the cleaning plans with T the stored view or one of
/// its base relations becomes a zero-copy scan of the memoized rows,
/// registered in a scratch copy-on-write catalog. Bit-identical to
/// CleanViewSample. `memo` must be non-null.
Result<CorrespondingSamples> MemoCleanViewSample(StaleMemo* memo,
                                                 const MaterializedView& view,
                                                 const DeltaSet& deltas,
                                                 const Database& db,
                                                 const CleanOptions& opts);

}  // namespace svc

#endif  // SVC_CORE_STALE_MEMO_H_
