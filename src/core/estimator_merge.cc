#include "core/estimator_merge.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <tuple>
#include <utility>

#include "relational/value.h"

namespace svc {

namespace {

/// A reference to one row of one part.
struct RowRef {
  size_t part = 0;
  size_t row = 0;

  bool operator<(const RowRef& o) const {
    return std::tie(part, row) < std::tie(o.part, o.row);
  }
  bool operator==(const RowRef& o) const {
    return part == o.part && row == o.row;
  }
};

/// Stable-sorts `refs` (rows of `tables`) by the *values* at `key_indices`
/// (Value's total order); over refs listed part by part this is the
/// canonical merge order. Value order — not encoded-key bytes — is the
/// canonical order because it coincides with the natural row order of an
/// unsharded view whose rows were produced in increasing key order, so
/// merged answers stay bit-identical to the unsharded engine's (byte order
/// of the little-endian int encoding diverges from numeric order at 256).
/// Rows with equal keys keep their per-part order (each sampling key is
/// owned by exactly one shard, so this preserves within-key locality).
void StableSortByKey(const std::vector<const Table*>& tables,
                     const std::vector<size_t>& key_indices,
                     std::vector<RowRef>* refs) {
  auto key_less = [&](const RowRef& a, const RowRef& b) {
    const Row& ra = tables[a.part]->row(a.row);
    const Row& rb = tables[b.part]->row(b.row);
    for (size_t i : key_indices) {
      if (ra[i] < rb[i]) return true;
      if (rb[i] < ra[i]) return false;
    }
    return false;
  };
  std::stable_sort(refs->begin(), refs->end(), key_less);
}

/// Rebuilds every row of `tables`, in canonical merge order
/// (StableSortByKey), into one table carrying `pk` (empty pk = keyless
/// append).
Result<Table> SortedUnion(const std::vector<const Table*>& tables,
                          const std::vector<size_t>& key_indices,
                          const std::vector<std::string>& pk) {
  std::vector<RowRef> refs;
  size_t total = 0;
  for (const Table* t : tables) total += t->NumRows();
  refs.reserve(total);
  for (size_t p = 0; p < tables.size(); ++p) {
    const Table* t = tables[p];
    for (size_t i = 0; i < t->NumRows(); ++i) {
      refs.push_back({p, i});
    }
  }
  StableSortByKey(tables, key_indices, &refs);
  Table out(tables[0]->schema());
  if (!pk.empty()) SVC_RETURN_IF_ERROR(out.SetPrimaryKey(pk));
  for (const RowRef& r : refs) {
    if (pk.empty()) {
      out.AppendUnchecked(tables[r.part]->row(r.row));
    } else {
      SVC_RETURN_IF_ERROR(out.Insert(tables[r.part]->row(r.row)));
    }
  }
  return out;
}

}  // namespace

Result<CorrespondingSamples> MergeCorrespondingSamples(
    const std::vector<std::shared_ptr<const CorrespondingSamples>>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("no shard samples to merge");
  }
  const CorrespondingSamples& first = *parts[0];
  for (const auto& p : parts) {
    if (p == nullptr) {
      return Status::InvalidArgument("null shard sample in merge");
    }
    if (p->ratio != first.ratio || p->family != first.family ||
        p->key_columns != first.key_columns) {
      return Status::InvalidArgument(
          "shard samples disagree on sampling parameters; they must come "
          "from one fan-out");
    }
  }
  CorrespondingSamples merged;
  merged.ratio = first.ratio;
  merged.family = first.family;
  merged.key_columns = first.key_columns;
  auto merge_side = [&](auto side_of) -> Result<Table> {
    std::vector<const Table*> tables;
    tables.reserve(parts.size());
    for (const auto& p : parts) tables.push_back(side_of(*p));
    SVC_ASSIGN_OR_RETURN(std::vector<size_t> key_indices,
                         tables[0]->schema().ResolveAll(first.key_columns));
    return SortedUnion(tables, key_indices, tables[0]->PrimaryKeyNames());
  };
  SVC_ASSIGN_OR_RETURN(
      merged.stale,
      merge_side([](const CorrespondingSamples& s) { return &s.stale; }));
  SVC_ASSIGN_OR_RETURN(
      merged.fresh,
      merge_side([](const CorrespondingSamples& s) { return &s.fresh; }));
  return merged;
}

Result<Table> MergeShardTables(
    const std::vector<std::shared_ptr<const Table>>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("no shard tables to merge");
  }
  std::vector<const Table*> tables;
  tables.reserve(parts.size());
  for (const auto& p : parts) {
    if (p == nullptr) return Status::InvalidArgument("null shard table");
    tables.push_back(p.get());
  }
  std::vector<size_t> key_indices = tables[0]->pk_indices();
  if (key_indices.empty()) {
    key_indices.resize(tables[0]->schema().NumColumns());
    for (size_t i = 0; i < key_indices.size(); ++i) key_indices[i] = i;
  }
  return SortedUnion(tables, key_indices, tables[0]->PrimaryKeyNames());
}

Result<std::vector<Row>> LookupRowsByKey(const std::vector<const Table*>& parts,
                                         const std::vector<Row>& key_rows,
                                         bool merged) {
  const std::vector<size_t>& pk = parts[0]->pk_indices();
  if (pk.empty()) {
    return Status::InvalidArgument(
        "key lookup on a table without a primary key");
  }
  // Each hit once, listed part by part in ascending row position.
  std::vector<RowRef> hits;
  for (const Row& key : key_rows) {
    for (size_t p = 0; p < parts.size(); ++p) {
      Result<size_t> pos = parts[p]->FindByKeyOf(key);
      if (pos.ok()) hits.push_back({p, *pos});
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  if (merged) StableSortByKey(parts, pk, &hits);
  std::vector<Row> rows;
  rows.reserve(hits.size());
  for (const RowRef& h : hits) rows.push_back(parts[h.part]->row(h.row));
  return rows;
}

}  // namespace svc
