#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "core/bootstrap.h"

namespace svc {

std::string AggregateQuery::ToString() const {
  std::string out = AggFuncName(func);
  if (func != AggFunc::kCountStar) {
    out += "(" + (attr ? attr->ToString() : std::string("<no attribute>")) +
           ")";
  }
  if (predicate) out += " WHERE " + predicate->ToString();
  return out;
}

namespace {

/// Per-row evaluation of an aggregate query: did the row satisfy the
/// predicate, and what is its aggregation value.
struct EvalRow {
  bool pred = false;
  bool x_null = false;
  double x = 0.0;
};

Result<std::vector<EvalRow>> EvalRows(const Table& t,
                                      const AggregateQuery& q) {
  ExprPtr pred, attr;
  if (q.predicate) {
    pred = q.predicate->Clone();
    SVC_RETURN_IF_ERROR(pred->Bind(t.schema()));
  }
  if (q.attr) {
    attr = q.attr->Clone();
    SVC_RETURN_IF_ERROR(attr->Bind(t.schema()));
  } else if (q.func != AggFunc::kCountStar) {
    return Status::InvalidArgument(
        std::string(AggFuncName(q.func)) +
        " requires an aggregation attribute (only count(*) takes none); "
        "query: " +
        q.ToString());
  }
  std::vector<EvalRow> out;
  out.reserve(t.NumRows());
  for (const auto& r : t.rows()) {
    EvalRow er;
    er.pred = !pred || pred->Eval(r).IsTrue();
    if (attr) {
      const Value v = attr->Eval(r);
      if (v.is_null() || !v.IsNumeric()) {
        er.x_null = true;
      } else {
        er.x = v.ToDouble();
      }
    } else {
      er.x = 1.0;  // count(*)
    }
    out.push_back(er);
  }
  return out;
}

/// The per-row "trans" term of §5.2.1 (unscaled): the row's contribution
/// to the query total. sum -> x·cond, count(*) -> cond, count(a) ->
/// cond·[a not null].
double SumTerm(const AggregateQuery& q, const EvalRow& er) {
  if (!er.pred) return 0.0;
  switch (q.func) {
    case AggFunc::kSum:
      return er.x_null ? 0.0 : er.x;
    case AggFunc::kCountStar:
      return 1.0;
    case AggFunc::kCount:
      return er.x_null ? 0.0 : 1.0;
    default:
      return 0.0;
  }
}

bool IsTotalQuery(AggFunc f) {
  return f == AggFunc::kSum || f == AggFunc::kCount ||
         f == AggFunc::kCountStar;
}

/// Values satisfying the predicate (for avg / median / min / max).
std::vector<double> PredValues(const std::vector<EvalRow>& rows) {
  std::vector<double> out;
  for (const auto& er : rows) {
    if (er.pred && !er.x_null) out.push_back(er.x);
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double SampleVariance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

/// Horvitz–Thompson total estimate and CI under Bernoulli(m) sampling:
/// T̂ = Σ t_i/m, V̂(T̂) = (1−m)/m² · Σ t_i².
Estimate HtTotal(const std::vector<double>& terms, double m, double z,
                 double confidence) {
  double total = 0, ssq = 0;
  for (double t : terms) {
    total += t;
    ssq += t * t;
  }
  Estimate e;
  e.value = total / m;
  const double var = (1.0 - m) / (m * m) * ssq;
  const double hw = z * std::sqrt(std::max(0.0, var));
  e.ci_low = e.value - hw;
  e.ci_high = e.value + hw;
  e.confidence = confidence;
  e.has_ci = true;
  e.sample_rows = terms.size();
  return e;
}

/// Conditional-mean estimate and CI (avg queries).
Estimate MeanEstimate(const std::vector<double>& values, double m, double z,
                      double confidence) {
  Estimate e;
  e.value = Mean(values);
  e.sample_rows = values.size();
  if (values.size() >= 2) {
    const double var =
        SampleVariance(values) * (1.0 - m) / static_cast<double>(values.size());
    const double hw = z * std::sqrt(std::max(0.0, var));
    e.ci_low = e.value - hw;
    e.ci_high = e.value + hw;
    e.confidence = confidence;
    e.has_ci = true;
  }
  return e;
}

/// AQP estimate on one set of evaluated sample rows.
Estimate AqpFromRows(const std::vector<EvalRow>& rows,
                     const AggregateQuery& q, double m,
                     const EstimatorOptions& opts) {
  const double z = NormalQuantile(opts.confidence);
  if (IsTotalQuery(q.func)) {
    std::vector<double> terms;
    terms.reserve(rows.size());
    for (const auto& er : rows) terms.push_back(SumTerm(q, er));
    return HtTotal(terms, m, z, opts.confidence);
  }
  std::vector<double> values = PredValues(rows);
  switch (q.func) {
    case AggFunc::kAvg:
      return MeanEstimate(values, m, z, opts.confidence);
    case AggFunc::kMedian: {
      Estimate e;
      std::vector<double> copy = values;
      e.value = MedianInPlace(&copy);
      e.sample_rows = values.size();
      if (values.size() >= 4) {
        auto [lo, hi] = BootstrapPercentileInterval(
            [&values](Rng* rng) {
              std::vector<double> res;
              res.reserve(values.size());
              for (size_t i : ResampleIndices(values.size(), rng)) {
                res.push_back(values[i]);
              }
              return MedianInPlace(&res);
            },
            opts.bootstrap_iterations, opts.bootstrap_seed, opts.confidence,
            opts.num_threads);
        e.ci_low = lo;
        e.ci_high = hi;
        e.confidence = opts.confidence;
        e.has_ci = true;
      }
      return e;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      // Sample extrema are biased; the corrected estimator with a Cantelli
      // tail bound lives in core/minmax.h.
      Estimate e;
      e.sample_rows = values.size();
      if (!values.empty()) {
        e.value = q.func == AggFunc::kMin
                      ? *std::min_element(values.begin(), values.end())
                      : *std::max_element(values.begin(), values.end());
      }
      return e;
    }
    default:
      return Estimate{};
  }
}

/// A pair of corresponding rows (one per key in either sample).
struct PairRow {
  bool has_fresh = false;
  bool has_stale = false;
  EvalRow fresh;
  EvalRow stale;
};

Result<std::vector<PairRow>> PairRows(const CorrespondingSamples& samples,
                                      const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> fresh,
                       EvalRows(samples.fresh, q));
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> stale,
                       EvalRows(samples.stale, q));
  std::vector<PairRow> pairs;
  pairs.reserve(fresh.size() + stale.size());
  FlatKeyMap<size_t> by_key;
  by_key.Reserve(samples.fresh.NumRows());
  KeyBuffer kb;
  for (size_t i = 0; i < samples.fresh.NumRows(); ++i) {
    const RowKeyRef key =
        kb.Encode(samples.fresh.row(i), samples.fresh.pk_indices());
    by_key.Emplace(key.bytes, key.hash, pairs.size());
    PairRow p;
    p.has_fresh = true;
    p.fresh = fresh[i];
    pairs.push_back(p);
  }
  for (size_t i = 0; i < samples.stale.NumRows(); ++i) {
    const RowKeyRef key =
        kb.Encode(samples.stale.row(i), samples.stale.pk_indices());
    const size_t* slot = by_key.Find(key.bytes, key.hash);
    if (slot == nullptr) {
      PairRow p;
      p.has_stale = true;
      p.stale = stale[i];
      pairs.push_back(p);
    } else {
      pairs[*slot].has_stale = true;
      pairs[*slot].stale = stale[i];
    }
  }
  return pairs;
}

/// Correction estimate (and CI) for one set of pairs.
Estimate CorrFromPairs(const std::vector<PairRow>& pairs,
                       const AggregateQuery& q, double exact_stale, double m,
                       bool stale_group_exists, const EstimatorOptions& opts) {
  const double z = NormalQuantile(opts.confidence);
  if (IsTotalQuery(q.func)) {
    // ĉ = Σ (t'_i − t_i)/m over corresponding keys (−̇, nulls as zero);
    // HT variance as in the AQP case but on the differences.
    double total = 0, ssq = 0;
    for (const auto& p : pairs) {
      const double d = (p.has_fresh ? SumTerm(q, p.fresh) : 0.0) -
                       (p.has_stale ? SumTerm(q, p.stale) : 0.0);
      total += d;
      ssq += d * d;
    }
    Estimate e;
    const double c = total / m;
    e.value = exact_stale + c;
    const double var = (1.0 - m) / (m * m) * ssq;
    const double hw = z * std::sqrt(std::max(0.0, var));
    e.ci_low = e.value - hw;
    e.ci_high = e.value + hw;
    e.confidence = opts.confidence;
    e.has_ci = true;
    e.sample_rows = pairs.size();
    return e;
  }

  // avg / median: correction on the statistic itself, bootstrap-bounded
  // (§5.2.5's SVC+CORR bootstrap: resample pairs, re-estimate c).
  auto stat_of = [&q](const std::vector<PairRow>& ps,
                      const std::vector<size_t>* idx) {
    std::vector<double> f, s;
    auto visit = [&](const PairRow& p) {
      if (p.has_fresh && p.fresh.pred && !p.fresh.x_null) {
        f.push_back(p.fresh.x);
      }
      if (p.has_stale && p.stale.pred && !p.stale.x_null) {
        s.push_back(p.stale.x);
      }
    };
    if (idx) {
      for (size_t i : *idx) visit(ps[i]);
    } else {
      for (const auto& p : ps) visit(p);
    }
    double fs, ss;
    if (q.func == AggFunc::kMedian) {
      fs = MedianInPlace(&f);
      ss = MedianInPlace(&s);
    } else {
      fs = Mean(f);
      ss = Mean(s);
    }
    return fs - ss;
  };

  Estimate e;
  const double c = stat_of(pairs, nullptr);
  e.value = stale_group_exists ? exact_stale + c : c;
  e.sample_rows = pairs.size();
  if (pairs.size() >= 4) {
    auto [lo, hi] = BootstrapPercentileInterval(
        [&](Rng* rng) {
          const std::vector<size_t> idx = ResampleIndices(pairs.size(), rng);
          return stat_of(pairs, &idx);
        },
        opts.bootstrap_iterations, opts.bootstrap_seed, opts.confidence,
        opts.num_threads);
    e.ci_low = (stale_group_exists ? exact_stale : 0.0) + lo;
    e.ci_high = (stale_group_exists ? exact_stale : 0.0) + hi;
    e.confidence = opts.confidence;
    e.has_ci = true;
  }
  return e;
}

/// Exact evaluation of `q` over already-evaluated rows: the one code path
/// behind ExactAggregate and each group of ExactAggregateGrouped.
Result<double> ExactFromRows(const std::vector<EvalRow>& rows,
                             const AggregateQuery& q) {
  if (IsTotalQuery(q.func)) {
    double total = 0;
    for (const auto& er : rows) total += SumTerm(q, er);
    return total;
  }
  std::vector<double> values = PredValues(rows);
  switch (q.func) {
    case AggFunc::kAvg:
      return Mean(values);
    case AggFunc::kMedian:
      return MedianInPlace(&values);
    case AggFunc::kMin:
      return values.empty() ? 0.0
                            : *std::min_element(values.begin(), values.end());
    case AggFunc::kMax:
      return values.empty() ? 0.0
                            : *std::max_element(values.begin(), values.end());
    default:
      return Status::NotSupported(
          std::string(AggFuncName(q.func)) +
          " has no exact single-pass evaluator (supported: sum, count, "
          "count(*), avg, median, min, max); query: " +
          q.ToString());
  }
}

}  // namespace

double NormalQuantile(double confidence) {
  // Two-sided: z = Phi^{-1}((1 + confidence) / 2), via Acklam's rational
  // approximation of the inverse normal CDF.
  const double p = (1.0 + confidence) / 2.0;
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

Result<double> ExactAggregate(const Table& view, const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(view, q));
  return ExactFromRows(rows, q);
}

Result<Estimate> SvcAqpEstimate(const CorrespondingSamples& samples,
                                const AggregateQuery& q,
                                const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(samples.fresh, q));
  return AqpFromRows(rows, q, samples.ratio, opts);
}

Result<Estimate> SvcCorrEstimate(const Table& stale_view,
                                 const CorrespondingSamples& samples,
                                 const AggregateQuery& q,
                                 const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(double exact_stale, ExactAggregate(stale_view, q));
  return SvcCorrEstimate(exact_stale, samples, q, opts);
}

Result<Estimate> SvcCorrEstimate(double exact_stale,
                                 const CorrespondingSamples& samples,
                                 const AggregateQuery& q,
                                 const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(std::vector<PairRow> pairs, PairRows(samples, q));
  if (q.func == AggFunc::kMin || q.func == AggFunc::kMax) {
    // Appendix §12.1.1: correct the stale extremum by the largest (resp.
    // smallest) paired row-by-row difference.
    double best = 0;
    bool any = false;
    for (const auto& p : pairs) {
      if (!p.has_fresh || !p.has_stale) continue;
      if (p.fresh.x_null || p.stale.x_null || !p.fresh.pred || !p.stale.pred) {
        continue;
      }
      const double d = p.fresh.x - p.stale.x;
      if (!any || (q.func == AggFunc::kMax ? d > best : d < best)) {
        best = d;
        any = true;
      }
    }
    Estimate e;
    e.value = exact_stale + (any ? best : 0.0);
    e.sample_rows = pairs.size();
    return e;
  }
  return CorrFromPairs(pairs, q, exact_stale, samples.ratio,
                       /*stale_group_exists=*/true, opts);
}

namespace {

/// Buckets table rows by the encoded values of `group_columns`.
struct Buckets {
  std::vector<Row> keys;
  std::vector<std::vector<size_t>> rows;
  FlatKeyMap<size_t> index;
  KeyBuffer kb;

  size_t SlotFor(const Table& t, size_t row, const std::vector<size_t>& gidx) {
    const RowKeyRef key = kb.Encode(t.row(row), gidx);
    auto [slot, inserted] = index.Emplace(key.bytes, key.hash, keys.size());
    if (inserted) {
      Row gk;
      for (size_t i : gidx) gk.push_back(t.row(row)[i]);
      keys.push_back(std::move(gk));
      rows.emplace_back();
    }
    return *slot;
  }
};

}  // namespace

Result<GroupedResult> ExactAggregateGrouped(
    const Table& view, const std::vector<std::string>& group_columns,
    const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       view.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(view, q));
  Buckets buckets;
  for (size_t i = 0; i < view.NumRows(); ++i) {
    buckets.rows[buckets.SlotFor(view, i, gidx)].push_back(i);
  }
  GroupedResult out;
  out.group_columns = group_columns;
  out.group_keys = buckets.keys;
  out.index = buckets.index;
  out.estimates.resize(buckets.keys.size());
  for (size_t g = 0; g < buckets.keys.size(); ++g) {
    std::vector<EvalRow> sub;
    sub.reserve(buckets.rows[g].size());
    for (size_t i : buckets.rows[g]) sub.push_back(rows[i]);
    Estimate& e = out.estimates[g];
    SVC_ASSIGN_OR_RETURN(e.value, ExactFromRows(sub, q));
    e.sample_rows = sub.size();
  }
  return out;
}

Result<GroupedResult> SvcAqpEstimateGrouped(
    const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts) {
  const Table& t = samples.fresh;
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       t.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(t, q));
  Buckets buckets;
  for (size_t i = 0; i < t.NumRows(); ++i) {
    buckets.rows[buckets.SlotFor(t, i, gidx)].push_back(i);
  }
  GroupedResult out;
  out.group_columns = group_columns;
  out.group_keys = buckets.keys;
  out.index = buckets.index;
  out.estimates.resize(buckets.keys.size());
  for (size_t g = 0; g < buckets.keys.size(); ++g) {
    std::vector<EvalRow> sub;
    sub.reserve(buckets.rows[g].size());
    for (size_t i : buckets.rows[g]) sub.push_back(rows[i]);
    out.estimates[g] = AqpFromRows(sub, q, samples.ratio, opts);
  }
  return out;
}

Result<GroupedResult> SvcCorrEstimateGrouped(
    const Table& stale_view, const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(GroupedResult stale_exact,
                       ExactAggregateGrouped(stale_view, group_columns, q));
  return SvcCorrEstimateGrouped(stale_exact, samples, q, opts);
}

Result<GroupedResult> SvcCorrEstimateGrouped(
    const GroupedResult& stale_exact, const CorrespondingSamples& samples,
    const AggregateQuery& q, const EstimatorOptions& opts) {
  const std::vector<std::string>& group_columns = stale_exact.group_columns;
  // Pair the samples and bucket pairs by group (taken from the fresh side
  // when present, else the stale side).
  SVC_ASSIGN_OR_RETURN(std::vector<PairRow> pairs, PairRows(samples, q));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> fg,
                       samples.fresh.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> sg,
                       samples.stale.schema().ResolveAll(group_columns));

  // Rebuild pair->group assignment. PairRows() ordered pairs as: all fresh
  // rows first (by row index), then stale-only rows.
  std::vector<std::string> pair_group(pairs.size());
  std::vector<Row> pair_group_key(pairs.size());
  {
    size_t slot = 0;
    for (size_t i = 0; i < samples.fresh.NumRows(); ++i, ++slot) {
      pair_group[slot] = EncodeRowKey(samples.fresh.row(i), fg);
      Row gk;
      for (size_t c : fg) gk.push_back(samples.fresh.row(i)[c]);
      pair_group_key[slot] = std::move(gk);
    }
    KeySet fresh_keys;
    fresh_keys.Reserve(samples.fresh.NumRows());
    KeyBuffer kb;
    for (size_t i = 0; i < samples.fresh.NumRows(); ++i) {
      const RowKeyRef key =
          kb.Encode(samples.fresh.row(i), samples.fresh.pk_indices());
      fresh_keys.Insert(key.bytes, key.hash);
    }
    for (size_t i = 0; i < samples.stale.NumRows(); ++i) {
      const RowKeyRef key =
          kb.Encode(samples.stale.row(i), samples.stale.pk_indices());
      if (fresh_keys.Contains(key.bytes, key.hash)) continue;
      pair_group[slot] = EncodeRowKey(samples.stale.row(i), sg);
      Row gk;
      for (size_t c : sg) gk.push_back(samples.stale.row(i)[c]);
      pair_group_key[slot] = std::move(gk);
      ++slot;
    }
  }

  // Union of groups: stale-exact groups plus sampled groups.
  GroupedResult out;
  out.group_columns = group_columns;
  out.group_keys = stale_exact.group_keys;
  out.index = stale_exact.index;
  std::vector<std::vector<PairRow>> group_pairs(out.group_keys.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    auto [slot, inserted] =
        out.index.Emplace(pair_group[p], out.group_keys.size());
    if (inserted) {
      out.group_keys.push_back(pair_group_key[p]);
      group_pairs.emplace_back();
    }
    if (*slot >= group_pairs.size()) {
      group_pairs.resize(out.group_keys.size());
    }
    group_pairs[*slot].push_back(pairs[p]);
  }
  group_pairs.resize(out.group_keys.size());

  out.estimates.resize(out.group_keys.size());
  for (size_t g = 0; g < out.group_keys.size(); ++g) {
    const bool in_stale = g < stale_exact.estimates.size();
    const double exact = in_stale ? stale_exact.estimates[g].value : 0.0;
    out.estimates[g] = CorrFromPairs(group_pairs[g], q, exact, samples.ratio,
                                     in_stale, opts);
  }
  return out;
}

}  // namespace svc
