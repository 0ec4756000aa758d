#include "core/policy.h"

#include "common/exact_sum.h"
#include "common/flat_map.h"
#include "relational/row_key.h"

namespace svc {

namespace {

/// Per-row query term: attr·cond for sum, cond for counts, attr (when the
/// predicate holds) for avg/median.
Result<std::vector<double>> Terms(const Table& t, const AggregateQuery& q) {
  ExprPtr pred, attr;
  if (q.predicate) {
    pred = q.predicate->Clone();
    SVC_RETURN_IF_ERROR(pred->Bind(t.schema()));
  }
  if (q.attr) {
    attr = q.attr->Clone();
    SVC_RETURN_IF_ERROR(attr->Bind(t.schema()));
  }
  std::vector<double> out;
  out.reserve(t.NumRows());
  for (const auto& r : t.rows()) {
    const bool p = !pred || pred->Eval(r).IsTrue();
    double x = 1.0;
    if (attr) {
      const Value v = attr->Eval(r);
      x = (v.is_null() || !v.IsNumeric()) ? 0.0 : v.ToDouble();
    }
    out.push_back(p ? x : 0.0);
  }
  return out;
}

}  // namespace

Result<PolicyDecision> ChooseEstimator(const CorrespondingSamples& samples,
                                       const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(std::vector<double> fresh_terms,
                       Terms(samples.fresh, q));
  SVC_ASSIGN_OR_RETURN(std::vector<double> stale_terms,
                       Terms(samples.stale, q));

  // Pair by key; a key missing on one side contributes zero there.
  FlatKeyMap<std::pair<double, double>> paired;
  paired.Reserve(samples.fresh.NumRows());
  KeyBuffer kb;
  for (size_t i = 0; i < samples.fresh.NumRows(); ++i) {
    const RowKeyRef key =
        kb.Encode(samples.fresh.row(i), samples.fresh.pk_indices());
    paired.Emplace(key.bytes, key.hash, {}).first->first = fresh_terms[i];
  }
  for (size_t i = 0; i < samples.stale.NumRows(); ++i) {
    const RowKeyRef key =
        kb.Encode(samples.stale.row(i), samples.stale.pk_indices());
    paired.Emplace(key.bytes, key.hash, {}).first->second = stale_terms[i];
  }
  const double n = static_cast<double>(paired.size());
  PolicyDecision d;
  if (n < 2) {
    d.mode = EstimatorMode::kCorr;
    return d;
  }
  // Exact sums: the moments, and so the choice, ignore the pairs' order.
  ExactSum sum_f, sum_s;
  paired.ForEach([&](std::string_view, const std::pair<double, double>& fs) {
    sum_f.Add(fs.first);
    sum_s.Add(fs.second);
  });
  const double mean_f = sum_f.Round() / n;
  const double mean_s = sum_s.Round() / n;
  ExactSum ss, sc;
  paired.ForEach([&](std::string_view, const std::pair<double, double>& fs) {
    ss.AddSquare(fs.second - mean_s);
    sc.AddProduct(fs.second - mean_s, fs.first - mean_f);
  });
  const double var_s = ss.Round() / (n - 1);
  const double cov = sc.Round() / (n - 1);
  d.var_stale = var_s;
  d.cov = cov;
  d.mode = var_s <= 2 * cov ? EstimatorMode::kCorr : EstimatorMode::kAqp;
  return d;
}

}  // namespace svc
