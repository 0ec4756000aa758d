#include "core/stale_memo.h"

#include <set>
#include <utility>

#include "relational/encode.h"
#include "relational/executor.h"

namespace svc {

bool StaleMemo::Find(const std::string& name,
                     const std::shared_ptr<const Table>& table,
                     const std::string& key, Value* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto gen = tables_.find(name);
  if (gen != tables_.end() && gen->second.table == table) {
    auto slot = gen->second.slots.find(key);
    if (slot != gen->second.slots.end()) {
      ++stats_.hits;
      slot->second.last_used = ++clock_;
      *out = slot->second.value;
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

void StaleMemo::Store(const std::string& name,
                      std::shared_ptr<const Table> table, std::string key,
                      Value value) {
  std::lock_guard<std::mutex> lock(mu_);
  Generation& gen = tables_[name];
  if (gen.table != table) {
    size_ -= gen.slots.size();
    gen.slots.clear();
    gen.table = std::move(table);
  }
  Slot& slot = gen.slots[std::move(key)];
  if (slot.last_used == 0) ++size_;
  slot.value = std::move(value);
  slot.last_used = ++clock_;
  if (size_ <= kMaxSlots) return;
  // Past the bound: evict the least recently used result anywhere.
  auto lru_gen = tables_.end();
  std::map<std::string, Slot>::iterator lru;
  for (auto g = tables_.begin(); g != tables_.end(); ++g) {
    for (auto it = g->second.slots.begin(); it != g->second.slots.end();
         ++it) {
      if (lru_gen == tables_.end() ||
          it->second.last_used < lru->second.last_used) {
        lru_gen = g;
        lru = it;
      }
    }
  }
  lru_gen->second.slots.erase(lru);
  --size_;
  if (lru_gen->second.slots.empty()) EraseLocked(lru_gen);
}

void StaleMemo::DropOtherGeneration(const std::string& name,
                                    const std::shared_ptr<const Table>& table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto gen = tables_.find(name);
  if (gen != tables_.end() && gen->second.table != table) EraseLocked(gen);
}

void StaleMemo::EraseLocked(std::map<std::string, Generation>::iterator it) {
  size_ -= it->second.slots.size();
  tables_.erase(it);
}

StaleMemo::Stats StaleMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

/// Key tags, one per kind of result, so no two kinds share a key.
enum KeyTag : uint8_t {
  kExactTag = 1,
  kGroupedTag = 2,
  kEtaTag = 3,
  kMomentsTag = 4
};

/// q(S) key: everything ExactAggregate[Grouped] reads of the query.
std::string ExactKey(KeyTag tag, const std::vector<std::string>& group_columns,
                     const AggregateQuery& q) {
  std::string key;
  PutU8(&key, tag);
  PutU8(&key, static_cast<uint8_t>(q.func));
  for (const ExprPtr* e : {&q.attr, &q.predicate}) {
    PutU8(&key, *e != nullptr ? 1 : 0);
    if (*e != nullptr) EncodeExpr(**e, &key);
  }
  PutU32(&key, static_cast<uint32_t>(group_columns.size()));
  for (const std::string& c : group_columns) PutStr(&key, c);
  return key;
}

Status NoSuchTable(const std::string& name) {
  return Status::UnknownRelation("no such table: " + name);
}

/// Rewrites the η(Scan(T)) leaves of cleaning plans, T committed, into
/// scans of memoized rows registered in `scratch`.
struct EtaLeafRewriter {
  StaleMemo* memo;
  const Database& db;
  ExecOptions exec;
  std::set<std::string> committed;  ///< the view and its base relations
  Database scratch;                 ///< db plus the memoized rows
  size_t next_name = 0;

  /// The rewritten plan (`root` itself is never modified: cleaning plans
  /// may share subtrees with the view's cached plans).
  Result<PlanPtr> Rewrite(const PlanPtr& root) {
    SVC_ASSIGN_OR_RETURN(PlanPtr leaf, Substitute(*root));
    if (leaf != nullptr) return leaf;
    PlanPtr copy = root->Clone();
    SVC_RETURN_IF_ERROR(RewriteChildren(copy.get()));
    return copy;
  }

  /// In place, over a private clone.
  Status RewriteChildren(PlanNode* node) {
    for (size_t i = 0; i < node->children().size(); ++i) {
      SVC_ASSIGN_OR_RETURN(PlanPtr leaf, Substitute(*node->child(i)));
      if (leaf != nullptr) {
        node->set_child(i, std::move(leaf));
      } else {
        SVC_RETURN_IF_ERROR(RewriteChildren(node->child(i).get()));
      }
    }
    return Status::OK();
  }

  /// A scan of the memoized η rows when `node` is η over a committed
  /// table; null when it is anything else (delta chunks, key-set filters,
  /// m = 1 pass-throughs, and unresolvable columns, which are left for the
  /// executor to report).
  Result<PlanPtr> Substitute(const PlanNode& node) {
    if (node.kind() != PlanKind::kHashFilter || node.key_set() != nullptr ||
        node.hash_ratio() >= 1.0) {
      return PlanPtr();
    }
    const PlanNode& scan = *node.child(0);
    if (scan.kind() != PlanKind::kScan ||
        committed.count(scan.table_name()) == 0) {
      return PlanPtr();
    }
    std::shared_ptr<const Table> table = db.GetTableShared(scan.table_name());
    if (table == nullptr) return PlanPtr();
    Result<std::vector<size_t>> positions =
        table->schema().WithQualifier(scan.alias()).ResolveAll(
            node.hash_columns());
    if (!positions.ok()) return PlanPtr();

    std::string key;
    PutU8(&key, kEtaTag);
    PutU32(&key, static_cast<uint32_t>(positions->size()));
    for (size_t p : *positions) PutU64(&key, p);
    PutF64(&key, node.hash_ratio());
    PutU8(&key, static_cast<uint8_t>(node.hash_family()));

    StaleMemo::Value hit;
    std::shared_ptr<const Table> rows;
    if (memo->Find(scan.table_name(), table, key, &hit)) {
      rows = std::get<std::shared_ptr<const Table>>(hit);
    } else {
      SVC_ASSIGN_OR_RETURN(Table sample, ExecutePlan(node, db, exec));
      rows = std::make_shared<Table>(std::move(sample));
      memo->Store(scan.table_name(), table, std::move(key), rows);
    }
    // '@' cannot appear in a SQL identifier, so the name never collides
    // with a user table ("__" keeps it out of error listings).
    std::string name = "__eta@" + std::to_string(next_name++);
    scratch.PutTableShared(name, std::move(rows));
    return PlanNode::Scan(std::move(name), scan.alias());
  }
};

}  // namespace

Result<double> MemoExactAggregate(StaleMemo* memo, const std::string& name,
                                  const std::shared_ptr<const Table>& table,
                                  const AggregateQuery& q) {
  if (table == nullptr) return NoSuchTable(name);
  if (memo == nullptr) return ExactAggregate(*table, q);
  std::string key = ExactKey(kExactTag, {}, q);
  StaleMemo::Value hit;
  if (memo->Find(name, table, key, &hit)) return std::get<double>(hit);
  SVC_ASSIGN_OR_RETURN(double exact, ExactAggregate(*table, q));
  memo->Store(name, table, std::move(key), exact);
  return exact;
}

Result<std::shared_ptr<const GroupedResult>> MemoExactAggregateGrouped(
    StaleMemo* memo, const std::string& name,
    const std::shared_ptr<const Table>& table,
    const std::vector<std::string>& group_columns, const AggregateQuery& q) {
  if (table == nullptr) return NoSuchTable(name);
  std::string key;
  if (memo != nullptr) {
    key = ExactKey(kGroupedTag, group_columns, q);
    StaleMemo::Value hit;
    if (memo->Find(name, table, key, &hit)) {
      return std::get<std::shared_ptr<const GroupedResult>>(hit);
    }
  }
  SVC_ASSIGN_OR_RETURN(GroupedResult exact,
                       ExactAggregateGrouped(*table, group_columns, q));
  auto shared = std::make_shared<const GroupedResult>(std::move(exact));
  if (memo != nullptr) memo->Store(name, table, std::move(key), shared);
  return std::shared_ptr<const GroupedResult>(std::move(shared));
}

Result<std::shared_ptr<const PartialMoments>> MemoStaleMoments(
    StaleMemo* memo, const std::string& name,
    const std::shared_ptr<const Table>& table,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const CancelToken* cancel) {
  if (table == nullptr) return NoSuchTable(name);
  std::string key;
  if (memo != nullptr) {
    key = ExactKey(kMomentsTag, group_columns, q);
    StaleMemo::Value hit;
    if (memo->Find(name, table, key, &hit)) {
      return std::get<std::shared_ptr<const PartialMoments>>(hit);
    }
  }
  SVC_ASSIGN_OR_RETURN(PartialMoments moments,
                       StaleMoments(*table, group_columns, q, cancel));
  auto shared = std::make_shared<const PartialMoments>(std::move(moments));
  if (memo != nullptr) memo->Store(name, table, std::move(key), shared);
  return std::shared_ptr<const PartialMoments>(std::move(shared));
}

Result<CorrespondingSamples> MemoCleanViewSample(StaleMemo* memo,
                                                 const MaterializedView& view,
                                                 const DeltaSet& deltas,
                                                 const Database& db,
                                                 const CleanOptions& opts) {
  SVC_ASSIGN_OR_RETURN(CleaningPlans plans,
                       BuildCleaningPlans(view, deltas, db, opts));
  EtaLeafRewriter rw{memo, db, opts.exec, {}, db, 0};
  rw.committed.insert(view.base_relations().begin(),
                      view.base_relations().end());
  rw.committed.insert(view.name());
  for (const std::string& name : rw.committed) {
    memo->DropOtherGeneration(name, db.GetTableShared(name));
  }
  SVC_ASSIGN_OR_RETURN(plans.stale, rw.Rewrite(plans.stale));
  SVC_ASSIGN_OR_RETURN(plans.fresh, rw.Rewrite(plans.fresh));
  return ExecuteCleaningPlans(view, plans, rw.scratch, opts);
}

}  // namespace svc
