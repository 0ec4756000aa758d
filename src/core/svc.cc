#include "core/svc.h"

#include "core/estimator_merge.h"
#include "relational/executor.h"

namespace svc {

SvcEngine::SvcEngine(const SvcEngine& other)
    : db_(other.db_),
      views_(other.views_),
      pending_(other.pending_),
      exec_options_(other.exec_options_),
      maintenance_policy_(other.maintenance_policy_),
      stale_memo_(other.stale_memo_),
      sample_cache_enabled_(other.sample_cache_enabled_) {
  // The pending-queue copy sealed other's tails into fresh chunks; sync the
  // forked catalog so maintenance/cleaning plans built on this engine can
  // scan them (the sealed-chunk registrations share storage — no copies).
  (void)pending_.Register(&db_);
  // Carry the cached samples and counters into the fork behind a *new*
  // cache object: two forks may later reach equal delta versions with
  // different queued rows, so they must never validate against each
  // other's entries. The carried entries seed the fork's incremental
  // advance (the first query after an ingest commit cleans only the new
  // rows).
  sample_cache_->CopyFrom(*other.sample_cache_);
}

SvcEngine& SvcEngine::operator=(const SvcEngine& other) {
  if (this != &other) *this = SvcEngine(other);
  return *this;
}

Status SvcEngine::CreateView(const std::string& name, PlanPtr definition,
                             std::vector<std::string> sampling_key) {
  SVC_ASSIGN_OR_RETURN(
      MaterializedView view,
      MaterializedView::Create(name, std::move(definition), &db_,
                               std::move(sampling_key), exec_options_));
  views_.emplace(name, std::move(view));
  return Status::OK();
}

Result<const MaterializedView*> SvcEngine::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    std::string msg = "no such view: " + name;
    if (views_.empty()) {
      msg += " (no views have been created)";
    } else {
      msg += " (known views:";
      for (const auto& [k, v] : views_) msg += " " + k;
      msg += ")";
    }
    return Status::UnknownRelation(std::move(msg));
  }
  return &it->second;
}

std::vector<std::string> SvcEngine::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [k, v] : views_) names.push_back(k);
  return names;
}

Status SvcEngine::InsertRecord(const std::string& relation, Row row) {
  SVC_RETURN_IF_ERROR(pending_.AddInsert(db_, relation, std::move(row)));
  return pending_.Register(&db_);
}

Status SvcEngine::DeleteRecord(const std::string& relation, Row row) {
  SVC_RETURN_IF_ERROR(pending_.AddDelete(db_, relation, std::move(row)));
  return pending_.Register(&db_);
}

Status SvcEngine::UpdateRecord(const std::string& relation, Row old_row,
                               Row new_row) {
  SVC_RETURN_IF_ERROR(pending_.AddUpdate(db_, relation, std::move(old_row),
                                         std::move(new_row)));
  return pending_.Register(&db_);
}

Status SvcEngine::IngestDeltas(DeltaSet&& deltas) {
  SVC_RETURN_IF_ERROR(pending_.Merge(std::move(deltas)));
  return pending_.Register(&db_);
}

Status SvcEngine::RepartitionRelation(
    const std::string& relation, const std::function<bool(const Row&)>& keep) {
  SVC_ASSIGN_OR_RETURN(const Table* base, db_.GetTable(relation));
  Table owned(base->schema());
  SVC_RETURN_IF_ERROR(owned.SetPrimaryKey(base->PrimaryKeyNames()));
  for (const Row& r : base->rows()) {
    if (keep(r)) SVC_RETURN_IF_ERROR(owned.Insert(r));
  }
  db_.PutTable(relation, std::move(owned));
  pending_.RetainRows(relation, keep);
  return pending_.Register(&db_);
}

Status SvcEngine::MaintainAll() {
  // Maintain a forked copy and swap it in only on success: a failure
  // anywhere (a maintenance plan, its execution, or the base-table commit)
  // leaves this engine — including the pending delta queue — untouched.
  // The fork is cheap: the database copy shares table storage copy-on-write
  // and only the tables maintenance touches are actually cloned.
  SvcEngine next(*this);
  SVC_RETURN_IF_ERROR(next.MaintainAllInPlace());
  *this = std::move(next);
  return Status::OK();
}

Status SvcEngine::MaintainAllInPlace() {
  for (auto& [name, view] : views_) {
    SVC_ASSIGN_OR_RETURN(MaintenancePlan plan,
                         BuildMaintenancePlan(view, pending_, db_));
    SVC_RETURN_IF_ERROR(ApplyMaintenance(view, plan, &db_, exec_options_));
  }
  return pending_.ApplyToBase(&db_);
}

Result<Table> SvcEngine::ComputeFreshView(const std::string& name) const {
  SVC_ASSIGN_OR_RETURN(const MaterializedView* view, GetView(name));
  SVC_ASSIGN_OR_RETURN(MaintenancePlan plan,
                       BuildMaintenancePlan(*view, pending_, db_));
  if (plan.kind == MaintenanceKind::kNoOp) {
    SVC_ASSIGN_OR_RETURN(const Table* t, db_.GetTable(name));
    return *t;
  }
  SVC_ASSIGN_OR_RETURN(Table fresh,
                       ExecutePlan(*plan.plan, db_, exec_options_));
  SVC_RETURN_IF_ERROR(fresh.SetPrimaryKey(view->stored_pk()));
  return fresh;
}

Result<CorrespondingSamples> SvcEngine::CleanSample(
    const std::string& name, const CleanOptions& opts,
    PushdownReport* report) const {
  SVC_ASSIGN_OR_RETURN(const MaterializedView* view, GetView(name));
  return CleanViewSample(*view, pending_, db_, opts, report);
}

Result<std::shared_ptr<const CorrespondingSamples>>
SvcEngine::CleanSampleCached(const std::string& name, const CleanOptions& opts,
                             CacheOutcome* outcome) const {
  SVC_ASSIGN_OR_RETURN(const MaterializedView* view, GetView(name));
  if (outcome != nullptr) *outcome = CacheOutcome::kFullClean;
  if (!sample_cache_enabled_) {
    SVC_ASSIGN_OR_RETURN(CorrespondingSamples cold,
                         CleanViewSample(*view, pending_, db_, opts));
    return std::make_shared<const CorrespondingSamples>(std::move(cold));
  }
  auto slot = sample_cache_->SlotFor({name, opts.ratio, opts.family});
  // Serialize population per key: concurrent snapshot readers racing on
  // the same key run exactly one cleaning pass; the rest hit the entry it
  // installed.
  std::lock_guard<std::mutex> lock(slot->mu);
  SampleCache::Entry& entry = slot->entry;
  const std::shared_ptr<const Table> current = db_.GetTableShared(name);
  const bool same_view =
      entry.samples != nullptr && entry.view_table == current;
  if (same_view && entry.delta_version == pending_.version()) {
    sample_cache_->RecordHit(name);
    if (outcome != nullptr) *outcome = CacheOutcome::kHit;
    return entry.samples;
  }
  std::shared_ptr<const CorrespondingSamples> samples;
  if (same_view) {
    // The view table is untouched but the queue moved: advance the cached
    // sample by cleaning only the newly arrived rows, when provable.
    SVC_ASSIGN_OR_RETURN(
        samples, AdvanceCleanedSamples(*view, entry.samples, entry.watermark,
                                       pending_, db_, opts));
  }
  if (samples != nullptr) {
    sample_cache_->RecordAdvance(name);
    if (outcome != nullptr) *outcome = CacheOutcome::kAdvance;
  } else {
    SVC_ASSIGN_OR_RETURN(
        CorrespondingSamples cold,
        MemoCleanViewSample(stale_memo_.get(), *view, pending_, db_, opts));
    samples = std::make_shared<const CorrespondingSamples>(std::move(cold));
    sample_cache_->RecordFullClean(name);
  }
  entry.samples = samples;
  entry.view_table = current;
  entry.delta_version = pending_.version();
  entry.watermark = pending_.Watermark();
  return samples;
}

Status SvcEngine::QueryPart(const std::string& name,
                            const std::vector<std::string>& group_columns,
                            const AggregateQuery& q,
                            const SvcQueryOptions& opts, SvcQueryPart* part,
                            CacheOutcome* outcome) const {
  const CleanOptions clean{opts.ratio, opts.family, opts.exec};
  SVC_ASSIGN_OR_RETURN(part->samples, CleanSampleCached(name, clean, outcome));
  const CancelToken* cancel = opts.exec.cancel;
  if ((opts.auto_mode || opts.mode == EstimatorMode::kCorr) &&
      HasStaleMoments(q.func)) {
    SVC_ASSIGN_OR_RETURN(part->stale,
                         MemoStaleMoments(memo(), name, db_.GetTableShared(name),
                                          group_columns, q, cancel));
  }
  if (!opts.auto_mode && IsTotalAggregate(q.func)) {
    Result<PartialMoments> m =
        opts.mode == EstimatorMode::kCorr
            ? CorrMoments(*part->samples, group_columns, q, cancel)
            : AqpMoments(*part->samples, group_columns, q, cancel);
    if (!m.ok()) return m.status();
    part->sample = std::make_shared<const PartialMoments>(std::move(m).value());
  }
  return Status::OK();
}

namespace {

std::vector<const PartialMoments*> Moments(
    const std::vector<SvcQueryPart>& parts,
    std::shared_ptr<const PartialMoments> SvcQueryPart::*member) {
  std::vector<const PartialMoments*> out;
  out.reserve(parts.size());
  for (const SvcQueryPart& p : parts) out.push_back((p.*member).get());
  return out;
}

/// The parts' samples as one: the only part's, or their canonical merge.
/// Runs the §5.2.2 choice on them in auto mode.
Result<std::shared_ptr<const CorrespondingSamples>> MergedSamples(
    const std::vector<SvcQueryPart>& parts, const AggregateQuery& q,
    const SvcQueryOptions& opts, EstimatorMode* mode_used) {
  std::shared_ptr<const CorrespondingSamples> samples = parts[0].samples;
  if (parts.size() > 1) {
    std::vector<std::shared_ptr<const CorrespondingSamples>> all;
    all.reserve(parts.size());
    for (const SvcQueryPart& p : parts) all.push_back(p.samples);
    SVC_ASSIGN_OR_RETURN(CorrespondingSamples merged,
                         MergeCorrespondingSamples(all));
    samples = std::make_shared<const CorrespondingSamples>(std::move(merged));
  }
  *mode_used = opts.mode;
  if (opts.auto_mode) {
    SVC_ASSIGN_OR_RETURN(PolicyDecision d, ChooseEstimator(*samples, q));
    *mode_used = d.mode;
  }
  return samples;
}

}  // namespace

Result<SvcAnswer> FinishSvcQuery(const std::vector<SvcQueryPart>& parts,
                                 const AggregateQuery& q,
                                 const SvcQueryOptions& opts,
                                 const StaleExactFn& stale_exact) {
  SvcAnswer answer;
  const double ratio = parts[0].samples->ratio;
  const EstimatorOptions& est = opts.estimator;
  if (parts[0].sample != nullptr) {
    answer.mode_used = opts.mode;
    const std::vector<const PartialMoments*> m =
        Moments(parts, &SvcQueryPart::sample);
    answer.estimate =
        opts.mode == EstimatorMode::kAqp
            ? FinishAqp(m, ratio, est)
            : FinishCorr(FinishStale(Moments(parts, &SvcQueryPart::stale), q),
                         m, ratio, est);
    return answer;
  }
  SVC_ASSIGN_OR_RETURN(std::shared_ptr<const CorrespondingSamples> samples,
                       MergedSamples(parts, q, opts, &answer.mode_used));
  if (answer.mode_used == EstimatorMode::kAqp) {
    SVC_ASSIGN_OR_RETURN(answer.estimate, SvcAqpEstimate(*samples, q, est));
    return answer;
  }
  double exact = 0.0;
  if (parts[0].stale != nullptr) {
    exact = FinishStale(Moments(parts, &SvcQueryPart::stale), q);
  } else {
    SVC_ASSIGN_OR_RETURN(exact, stale_exact());
  }
  SVC_ASSIGN_OR_RETURN(answer.estimate,
                       SvcCorrEstimate(exact, *samples, q, est));
  return answer;
}

Result<SvcGroupedAnswer> FinishSvcQueryGrouped(
    const std::vector<SvcQueryPart>& parts,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const SvcQueryOptions& opts, const StaleExactGroupedFn& stale_exact) {
  SvcGroupedAnswer answer;
  const double ratio = parts[0].samples->ratio;
  const EstimatorOptions& est = opts.estimator;
  if (parts[0].sample != nullptr) {
    answer.mode_used = opts.mode;
    const std::vector<const PartialMoments*> m =
        Moments(parts, &SvcQueryPart::sample);
    answer.result =
        opts.mode == EstimatorMode::kAqp
            ? FinishAqpGrouped(m, group_columns, ratio, est)
            : FinishCorrGrouped(Moments(parts, &SvcQueryPart::stale), m,
                                group_columns, q, ratio, est);
    return answer;
  }
  SVC_ASSIGN_OR_RETURN(std::shared_ptr<const CorrespondingSamples> samples,
                       MergedSamples(parts, q, opts, &answer.mode_used));
  if (answer.mode_used == EstimatorMode::kAqp) {
    SVC_ASSIGN_OR_RETURN(answer.result, SvcAqpEstimateGrouped(
                                            *samples, group_columns, q, est));
    return answer;
  }
  std::shared_ptr<const GroupedResult> exact;
  if (parts[0].stale != nullptr) {
    exact = std::make_shared<const GroupedResult>(FinishStaleGrouped(
        Moments(parts, &SvcQueryPart::stale), group_columns, q));
  } else {
    SVC_ASSIGN_OR_RETURN(exact, stale_exact());
  }
  SVC_ASSIGN_OR_RETURN(answer.result,
                       SvcCorrEstimateGrouped(*exact, *samples, q, est));
  return answer;
}

Result<SvcAnswer> SvcEngine::Query(const std::string& name,
                                   const AggregateQuery& q,
                                   const SvcQueryOptions& opts) const {
  std::vector<SvcQueryPart> part(1);
  SVC_RETURN_IF_ERROR(QueryPart(name, {}, q, opts, &part[0]));
  return FinishSvcQuery(part, q, opts, [&] {
    return MemoExactAggregate(memo(), name, db_.GetTableShared(name), q);
  });
}

Result<SvcGroupedAnswer> SvcEngine::QueryGrouped(
    const std::string& name, const std::vector<std::string>& group_columns,
    const AggregateQuery& q, const SvcQueryOptions& opts) const {
  std::vector<SvcQueryPart> part(1);
  SVC_RETURN_IF_ERROR(QueryPart(name, group_columns, q, opts, &part[0]));
  return FinishSvcQueryGrouped(part, group_columns, q, opts, [&] {
    return MemoExactAggregateGrouped(memo(), name, db_.GetTableShared(name),
                                     group_columns, q);
  });
}

Result<double> SvcEngine::QueryStale(const std::string& name,
                                     const AggregateQuery& q) const {
  SVC_ASSIGN_OR_RETURN(const Table* stale, db_.GetTable(name));
  return ExactAggregate(*stale, q);
}

}  // namespace svc
