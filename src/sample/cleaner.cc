#include "sample/cleaner.h"

#include "common/flat_map.h"
#include "relational/executor.h"
#include "relational/keys.h"
#include "relational/row_key.h"

namespace svc {

namespace {

/// Maps the view's sampling key into the change-table output space
/// ("__ct.g<j>" references). For aggregate views stored group column i maps
/// to g<i>; for SPJ views stored pk position p maps to the j-th group
/// column of the per-key change table.
Result<std::vector<std::string>> SamplingKeyInChangeTable(
    const MaterializedView& view, const Database& db) {
  std::vector<std::string> out;
  if (view.view_class() == ViewClass::kAggregate) {
    for (const auto& k : view.sampling_key()) {
      size_t pos = 0;
      while (view.stored_cols()[pos].name != k) ++pos;
      out.push_back("__ct.g" + std::to_string(pos));
    }
    return out;
  }
  // SPJ: the change table groups by the derived pk in def_pk() order.
  SVC_ASSIGN_OR_RETURN(Schema def_schema,
                       ComputeSchema(*view.definition(), db));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> pk_pos,
                       def_schema.ResolveAll(view.def_pk()));
  for (const auto& k : view.sampling_key()) {
    size_t stored_pos = 0;
    while (view.stored_cols()[stored_pos].name != k) ++stored_pos;
    bool found = false;
    for (size_t j = 0; j < pk_pos.size(); ++j) {
      if (pk_pos[j] == stored_pos) {
        out.push_back("__ct.g" + std::to_string(j));
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "sampling key column '" + k +
          "' of an SPJ view must be part of the view's primary key");
    }
  }
  return out;
}

/// Ŝ's plan: η over the stored view.
PlanPtr StaleSamplePlan(const MaterializedView& view,
                        const CleanOptions& opts) {
  return PlanNode::HashFilter(PlanNode::Scan(view.name()),
                              view.sampling_key(), opts.ratio, opts.family);
}

/// Runs `plan` and keys the result on the view's stored primary key.
Result<Table> ExecuteKeyed(const PlanNode& plan, const MaterializedView& view,
                           const Database& db, ExecOptions exec) {
  SVC_ASSIGN_OR_RETURN(Table out, ExecutePlan(plan, db, exec));
  SVC_RETURN_IF_ERROR(out.SetPrimaryKey(view.stored_pk()));
  return out;
}

}  // namespace

Result<Table> MaterializeStaleSample(const MaterializedView& view,
                                     const Database& db,
                                     const CleanOptions& opts) {
  return ExecuteKeyed(*StaleSamplePlan(view, opts), view, db, opts.exec);
}

namespace {

/// Shared skeleton for η and key-set cleaning plans: splices the filter
/// onto both branches of the merge join (Figure 3) or pushes it into the
/// recompute expression.
Result<PlanPtr> BuildFilteredCleaningPlan(const MaterializedView& view,
                                          const DeltaSet& deltas,
                                          const Database& db,
                                          const FilterFactory& factory,
                                          PushdownReport* report) {
  SVC_ASSIGN_OR_RETURN(MaintenancePlan m,
                       BuildMaintenancePlan(view, deltas, db));
  switch (m.kind) {
    case MaintenanceKind::kNoOp:
      // Nothing stale: C degenerates to the filter over the view itself.
      return factory(PlanNode::Scan(view.name()), view.sampling_key());
    case MaintenanceKind::kRecompute: {
      // C = pushdown(η(recompute)). The recompute plan's output schema is
      // the stored schema, so the stored sampling key applies directly.
      return PushDownFilter(*m.plan, view.sampling_key(), factory, db,
                            report);
    }
    case MaintenanceKind::kChangeTable: {
      // Figure 3: the filter lands above the stale-view scan on the left
      // branch of the merge join and pushes down the change-table branch.
      PlanPtr view_branch =
          factory(m.merge_join->child(0), view.sampling_key());
      SVC_ASSIGN_OR_RETURN(std::vector<std::string> ct_attrs,
                           SamplingKeyInChangeTable(view, db));
      SVC_ASSIGN_OR_RETURN(
          PlanPtr ct_branch,
          PushDownFilter(*m.merge_join->child(1), ct_attrs, factory, db,
                         report));
      m.merge_join->set_child(0, std::move(view_branch));
      m.merge_join->set_child(1, std::move(ct_branch));
      return m.plan;
    }
  }
  return Status::Internal("unreachable maintenance kind");
}

}  // namespace

Result<PlanPtr> BuildCleaningPlan(const MaterializedView& view,
                                  const DeltaSet& deltas, const Database& db,
                                  const CleanOptions& opts,
                                  PushdownReport* report) {
  FilterFactory factory = [&opts](PlanPtr child,
                                  const std::vector<std::string>& attrs) {
    return PlanNode::HashFilter(std::move(child), attrs, opts.ratio,
                                opts.family);
  };
  return BuildFilteredCleaningPlan(view, deltas, db, factory, report);
}

Result<Table> CleanViewByKeys(const MaterializedView& view,
                              const DeltaSet& deltas, const Database& db,
                              std::shared_ptr<const KeySet> keys,
                              PushdownReport* report, ExecOptions exec) {
  FilterFactory factory = [&keys](PlanPtr child,
                                  const std::vector<std::string>& attrs) {
    return PlanNode::KeySetFilter(std::move(child), attrs, keys);
  };
  SVC_ASSIGN_OR_RETURN(
      PlanPtr c, BuildFilteredCleaningPlan(view, deltas, db, factory, report));
  return ExecuteKeyed(*c, view, db, exec);
}

Result<Table> StaleViewRowsByKeys(const MaterializedView& view,
                                  const Database& db,
                                  std::shared_ptr<const KeySet> keys,
                                  ExecOptions exec) {
  PlanPtr plan = PlanNode::KeySetFilter(PlanNode::Scan(view.name()),
                                        view.sampling_key(), std::move(keys));
  return ExecuteKeyed(*plan, view, db, exec);
}

Result<CleaningPlans> BuildCleaningPlans(const MaterializedView& view,
                                         const DeltaSet& deltas,
                                         const Database& db,
                                         const CleanOptions& opts,
                                         PushdownReport* report) {
  CleaningPlans plans;
  plans.stale = StaleSamplePlan(view, opts);
  SVC_ASSIGN_OR_RETURN(plans.fresh,
                       BuildCleaningPlan(view, deltas, db, opts, report));
  return plans;
}

Result<CorrespondingSamples> ExecuteCleaningPlans(const MaterializedView& view,
                                                  const CleaningPlans& plans,
                                                  const Database& db,
                                                  const CleanOptions& opts) {
  CorrespondingSamples out;
  out.ratio = opts.ratio;
  out.family = opts.family;
  out.key_columns = view.sampling_key();
  SVC_ASSIGN_OR_RETURN(out.stale,
                       ExecuteKeyed(*plans.stale, view, db, opts.exec));
  SVC_ASSIGN_OR_RETURN(out.fresh,
                       ExecuteKeyed(*plans.fresh, view, db, opts.exec));
  return out;
}

Result<CorrespondingSamples> CleanViewSample(const MaterializedView& view,
                                             const DeltaSet& deltas,
                                             const Database& db,
                                             const CleanOptions& opts,
                                             PushdownReport* report) {
  SVC_ASSIGN_OR_RETURN(CleaningPlans plans,
                       BuildCleaningPlans(view, deltas, db, opts, report));
  return ExecuteCleaningPlans(view, plans, db, opts);
}

namespace {

/// True iff `node` admits the order-preserving advance: only σ/Π/inner-⋈
/// over scans, with `rel` scanned at most `*budget` times (decremented per
/// scan; a self-join of the hot relation would fan its delta rows into
/// multiple join terms whose interleaving the stitch cannot reproduce).
bool AdvanceableSubtree(const PlanNode& node, const std::string& rel,
                        int* budget) {
  switch (node.kind()) {
    case PlanKind::kScan:
      if (node.table_name() == rel && --*budget < 0) return false;
      return true;
    case PlanKind::kSelect:
    case PlanKind::kProject:
      return AdvanceableSubtree(*node.child(0), rel, budget);
    case PlanKind::kJoin:
      return node.join_type() == JoinType::kInner &&
             AdvanceableSubtree(*node.child(0), rel, budget) &&
             AdvanceableSubtree(*node.child(1), rel, budget);
    default:
      // Aggregates, set operations, and filters below the top aggregate
      // take the generic-diff path whose change-table order the stitch
      // cannot mirror.
      return false;
  }
}

}  // namespace

Result<std::shared_ptr<const CorrespondingSamples>> AdvanceCleanedSamples(
    const MaterializedView& view,
    std::shared_ptr<const CorrespondingSamples> base,
    const DeltaWatermark& mark, const DeltaSet& deltas, const Database& db,
    const CleanOptions& opts) {
  const std::shared_ptr<const CorrespondingSamples> reject;  // fall back
  if (base == nullptr || opts.ratio != base->ratio ||
      opts.family != base->family) {
    return reject;
  }

  // Per-relation delta movement since the sample was cleaned. Deletes are
  // out of scope entirely: they can evict groups (reopening slots in the
  // change-table order) and interleave insert/delete scan sites.
  const auto marked = [](const std::map<std::string, size_t>& m,
                         const std::string& rel) {
    auto it = m.find(rel);
    return it == m.end() ? size_t{0} : it->second;
  };
  std::string grew;  // the one relation with new rows
  for (const std::string& rel : view.base_relations()) {
    if (deltas.DeleteRows(rel) > 0) return reject;
    const size_t now = deltas.InsertRows(rel);
    const size_t then = marked(mark.insert_rows, rel);
    if (now < then || marked(mark.delete_rows, rel) > 0) {
      return reject;  // stale watermark (a maintenance commit intervened)
    }
    if (now == then) continue;
    if (!grew.empty()) return reject;  // more than one relation grew
    grew = rel;
  }
  if (grew.empty()) {
    // Version moved but none of this view's relations did (deltas for
    // other views' relations): the samples are exact as-is.
    return base;
  }

  if (view.view_class() != ViewClass::kAggregate) return reject;
  // augmented = Project(rename, Aggregate(child, ...)); the advance
  // reasons about the aggregate's input subtree.
  const PlanNode& agg = *view.augmented_plan()->child(0);
  int budget = 1;
  if (!AdvanceableSubtree(*agg.child(0), grew, &budget)) return reject;

  // The rows that arrived after the mark, registered over a scratch
  // snapshot of the catalog so the delta-scoped probe scans only them.
  auto slice = deltas.SliceSince(mark);
  if (!slice.ok()) return reject;  // watermark raced a commit: fall back
  Database scratch = db;
  SVC_RETURN_IF_ERROR(slice.value().Register(&scratch));
  int site_counter = 0;
  SVC_ASSIGN_OR_RETURN(
      PlanPtr probe,
      DeriveDeltaStream(*agg.child(0), slice.value(), scratch,
                        &site_counter));
  if (probe == nullptr) return base;  // nothing under this view moved
  SVC_ASSIGN_OR_RETURN(Table moved, ExecutePlan(*probe, scratch, opts.exec));

  // Affected sampling keys that land in the sample. The probe's output is
  // the aggregate child's space, where sampling_key_def() resolves; the
  // key bytes equal the stored-space encoding η hashes (group values pass
  // through the aggregate unchanged).
  SVC_ASSIGN_OR_RETURN(
      std::vector<size_t> key_idx,
      moved.schema().ResolveAll(view.sampling_key_def()));
  auto affected = std::make_shared<KeySet>();
  {
    KeyBuffer kb;
    for (const Row& r : moved.rows()) {
      const RowKeyRef key = kb.Encode(r, key_idx);
      if (!HashInSample(key.bytes, opts.ratio, opts.family)) continue;
      affected->Insert(key.bytes, key.hash);
    }
  }
  if (affected->empty()) return base;  // no new row is visible to η

  // Recompute exactly the affected keys' up-to-date rows over the *full*
  // queue — per affected group this aggregates the same delta rows in the
  // same order as the cold cleaning plan, so the values are bit-identical.
  SVC_ASSIGN_OR_RETURN(
      Table repaired,
      CleanViewByKeys(view, deltas, db, affected, nullptr, opts.exec));

  // Stitch: replace affected rows in place, then append the rows of groups
  // the new deltas created. Cold-path order is reproduced because, with an
  // insert-only queue, existing groups keep their first-contribution slot
  // and new groups enter strictly after every previously queued group.
  SVC_ASSIGN_OR_RETURN(
      std::vector<size_t> stored_key_idx,
      base->fresh.schema().ResolveAll(view.sampling_key()));
  Table fresh(base->fresh.schema());
  std::vector<bool> used(repaired.NumRows(), false);
  KeyBuffer kb;
  for (size_t i = 0; i < base->fresh.NumRows(); ++i) {
    const Row& r = base->fresh.row(i);
    const RowKeyRef key = kb.Encode(r, stored_key_idx);
    if (!affected->Contains(key.bytes, key.hash)) {
      fresh.AppendUnchecked(r);
      continue;
    }
    auto at = repaired.FindByKeyOf(r);
    if (!at.ok()) return reject;  // group vanished: not insert-only after all
    used[*at] = true;
    fresh.AppendUnchecked(repaired.row(*at));
  }
  for (size_t i = 0; i < repaired.NumRows(); ++i) {
    if (!used[i]) fresh.AppendUnchecked(repaired.row(i));
  }
  SVC_RETURN_IF_ERROR(fresh.SetPrimaryKey(view.stored_pk()));

  auto out = std::make_shared<CorrespondingSamples>();
  out->stale = base->stale;
  out->fresh = std::move(fresh);
  out->ratio = base->ratio;
  out->family = base->family;
  out->key_columns = base->key_columns;
  return std::shared_ptr<const CorrespondingSamples>(std::move(out));
}

}  // namespace svc
