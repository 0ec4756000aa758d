#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

/// The per-row "trans" term of §5.2.1 (unscaled): the row's contribution
/// to the query total. sum -> x·cond, count(*) -> cond, count(a) ->
/// cond·[a not null].
double SumTerm(AggFunc func, const EvalRow& er) {
  if (!er.pred) return 0.0;
  switch (func) {
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

/// The query's predicate and attribute bound to one schema.
struct BoundQuery {
  AggFunc func = AggFunc::kCountStar;
  ExprPtr pred, attr;

  static Result<BoundQuery> Bind(const Schema& schema,
                                 const AggregateQuery& q) {
    BoundQuery b;
    b.func = q.func;
    if (q.predicate) {
      b.pred = q.predicate->Clone();
      SVC_RETURN_IF_ERROR(b.pred->Bind(schema));
    }
    if (q.attr) {
      b.attr = q.attr->Clone();
      SVC_RETURN_IF_ERROR(b.attr->Bind(schema));
    } else if (q.func != AggFunc::kCountStar) {
      return Status::InvalidArgument(
          std::string(AggFuncName(q.func)) +
          " requires an aggregation attribute (only count(*) takes none); "
          "query: " +
          q.ToString());
    }
    return b;
  }

  EvalRow Eval(const Row& r) const {
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
    return er;
  }

  double Term(const Row& r) const { return SumTerm(func, Eval(r)); }
};

Result<std::vector<EvalRow>> EvalRows(const Table& t,
                                      const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(BoundQuery b, BoundQuery::Bind(t.schema(), q));
  std::vector<EvalRow> out;
  out.reserve(t.NumRows());
  for (const auto& r : t.rows()) out.push_back(b.Eval(r));
  return out;
}

/// Polls `cancel` once per 4096 rows, as the executor polls per chunk.
Status PollCancel(const CancelToken* cancel, size_t row, const char* what) {
  if (cancel == nullptr || (row & 4095) != 0) return Status::OK();
  return cancel->Check(what);
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
  ExactSum s;
  for (double x : v) s.Add(x);
  return s.Round() / static_cast<double>(v.size());
}

/// Two passes around the rounded mean, each squared deviation added
/// exactly.
double SampleVariance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  ExactSum s;
  for (double x : v) s.AddSquare(x - m);
  return s.Round() / static_cast<double>(v.size() - 1);
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

/// AQP estimate of a non-total aggregate on evaluated sample rows.
Estimate AqpFromRows(const std::vector<EvalRow>& rows,
                     const AggregateQuery& q, double m,
                     const EstimatorOptions& opts) {
  const double z = NormalQuantile(opts.confidence);
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

/// A pair of corresponding rows (one per key in either sample), for the
/// estimators that need the pairs themselves (bootstrap, extrema).
struct PairRow {
  bool has_fresh = false;
  bool has_stale = false;
  EvalRow fresh;
  EvalRow stale;
  size_t stale_row = 0;  ///< the stale row of a stale-only pair
};

/// Pairs in a fixed order: one per fresh row, by row index, then one per
/// stale row without a fresh counterpart.
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
      p.stale_row = i;
      pairs.push_back(p);
    } else {
      pairs[*slot].has_stale = true;
      pairs[*slot].stale = stale[i];
    }
  }
  return pairs;
}

/// The mean of a bootstrap replicate, summed in resample order like the
/// resampling itself.
double ReplicateMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Correction estimate (and bootstrap CI) of avg / median on one set of
/// pairs: §5.2.5's SVC+CORR bootstrap resamples pairs and re-estimates c,
/// so the interval depends on the pairs' order. The point estimate does
/// not: its means are exact.
Estimate CorrFromPairs(const std::vector<PairRow>& pairs,
                       const AggregateQuery& q, double exact_stale,
                       bool stale_group_exists, const EstimatorOptions& opts) {
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
    } else if (idx != nullptr) {
      fs = ReplicateMean(f);
      ss = ReplicateMean(s);
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

/// Exact median / min / max over evaluated rows.
Result<double> ExactFromRows(const std::vector<EvalRow>& rows,
                             const AggregateQuery& q) {
  std::vector<double> values = PredValues(rows);
  switch (q.func) {
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

// ---- Group order -------------------------------------------------------------

bool IsNaNValue(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.AsDouble());
}

bool SameRepresentation(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

/// Value order with a NaN after every other value; values that compare
/// equal but are not identical order by their encodings (equal encodings
/// are one group).
int CompareGroupValue(const Value& a, const Value& b) {
  const bool a_nan = IsNaNValue(a), b_nan = IsNaNValue(b);
  if (a_nan != b_nan) return a_nan ? 1 : -1;
  if (!a_nan) {
    if (a < b) return -1;
    if (b < a) return 1;
  }
  if (SameRepresentation(a, b)) return 0;
  std::string ea, eb;
  a.EncodeTo(&ea);
  b.EncodeTo(&eb);
  return ea.compare(eb);
}

int CompareGroupKeys(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
    const int r = CompareGroupValue(a[c], b[c]);
    if (r != 0) return r;
  }
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

/// Positions of `keys` in group-key order (the keys are distinct groups).
std::vector<size_t> KeyOrder(const std::vector<Row>& keys) {
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return CompareGroupKeys(keys[a], keys[b]) < 0;
  });
  return order;
}

constexpr size_t kAbsent = static_cast<size_t>(-1);

/// Visits the union of key-ordered group lists in key order: fn(key, at),
/// where at[l] is the key's position in list l, or kAbsent.
template <typename Fn>
void ForEachGroup(const std::vector<const std::vector<Row>*>& lists, Fn&& fn) {
  std::vector<size_t> pos(lists.size(), 0), at(lists.size());
  for (;;) {
    const Row* min = nullptr;
    for (size_t l = 0; l < lists.size(); ++l) {
      if (pos[l] == lists[l]->size()) continue;
      const Row& k = (*lists[l])[pos[l]];
      if (min == nullptr || CompareGroupKeys(k, *min) < 0) min = &k;
    }
    if (min == nullptr) return;
    for (size_t l = 0; l < lists.size(); ++l) {
      const bool here = pos[l] < lists[l]->size() &&
                        CompareGroupKeys((*lists[l])[pos[l]], *min) == 0;
      at[l] = here ? pos[l]++ : kAbsent;
    }
    fn(*min, at);
  }
}

/// Assigns rows to groups by the encoded values of their group columns;
/// a group's key is copied once, when the group first appears.
class GroupSlots {
 public:
  size_t SlotFor(const Row& r, const std::vector<size_t>& gidx) {
    if (gidx.empty()) {
      if (keys_.empty()) keys_.emplace_back();
      return 0;
    }
    const RowKeyRef key = kb_.Encode(r, gidx);
    auto [slot, inserted] = index_.Emplace(key.bytes, key.hash, keys_.size());
    if (inserted) {
      Row gk;
      gk.reserve(gidx.size());
      for (size_t i : gidx) gk.push_back(r[i]);
      keys_.push_back(std::move(gk));
    }
    return *slot;
  }
  std::vector<Row>& keys() { return keys_; }

 private:
  KeyBuffer kb_;
  FlatKeyMap<size_t> index_;
  std::vector<Row> keys_;
};

/// Builds a GroupedResult in key order, with its encoded-key index.
class ResultBuilder {
 public:
  explicit ResultBuilder(const std::vector<std::string>& group_columns) {
    out_.group_columns = group_columns;
    for (size_t i = 0; i < group_columns.size(); ++i) all_.push_back(i);
  }
  void Append(Row key, Estimate e) {
    const RowKeyRef k = kb_.Encode(key, all_);
    out_.index.Emplace(k.bytes, k.hash, out_.group_keys.size());
    out_.group_keys.push_back(std::move(key));
    out_.estimates.push_back(e);
  }
  GroupedResult Take() { return std::move(out_); }

 private:
  GroupedResult out_;
  KeyBuffer kb_;
  std::vector<size_t> all_;
};

// ---- Moment passes -------------------------------------------------------------

/// Dense per-group accumulators of one pass.
class MomentAccumulator {
 public:
  explicit MomentAccumulator(bool squares) : squares_(squares) {}

  size_t Group(const Row& r, const std::vector<size_t>& gidx) {
    const size_t g = slots_.SlotFor(r, gidx);
    if (g == sum_.size()) {
      sum_.emplace_back();
      if (squares_) ssq_.emplace_back();
      terms_.push_back(0);
      rows_.push_back(0);
    }
    return g;
  }
  void CountRow(size_t g) { ++rows_[g]; }
  void AddTerm(size_t g, double t) {
    sum_[g].Add(t);
    ++terms_[g];
  }
  /// A sample term: its square too, and it is its own row.
  void AddSampleTerm(size_t g, double t) {
    sum_[g].Add(t);
    ssq_[g].AddSquare(t);
    ++terms_[g];
    ++rows_[g];
  }

  PartialMoments Finish() {
    PartialMoments out;
    const std::vector<size_t> order = KeyOrder(slots_.keys());
    out.group_keys.reserve(order.size());
    out.groups.reserve(order.size());
    for (size_t g : order) {
      out.group_keys.push_back(std::move(slots_.keys()[g]));
      GroupMoments m;
      m.sum = sum_[g].Compact();
      if (squares_) m.ssq = ssq_[g].Compact();
      m.terms = terms_[g];
      m.rows = rows_[g];
      out.groups.push_back(std::move(m));
    }
    return out;
  }

 private:
  bool squares_;
  GroupSlots slots_;
  std::vector<ExactSum> sum_, ssq_;
  std::vector<uint64_t> terms_, rows_;
};

/// The parts' moments of one group, added.
struct Combined {
  ExactSum sum, ssq;
  uint64_t terms = 0, rows = 0;

  void Add(const GroupMoments& m) {
    sum.Add(m.sum);
    ssq.Add(m.ssq);
    terms += m.terms;
    rows += m.rows;
  }
  void AddAt(const std::vector<const PartialMoments*>& parts,
             const std::vector<size_t>& at, size_t first) {
    for (size_t l = 0; l < parts.size(); ++l) {
      if (at[first + l] != kAbsent) Add(parts[l]->groups[at[first + l]]);
    }
  }
  /// The ungrouped parts' one group each.
  void AddScalar(const std::vector<const PartialMoments*>& parts) {
    for (const PartialMoments* p : parts) {
      if (!p->groups.empty()) Add(p->groups[0]);
    }
  }
};

double StaleValue(AggFunc func, const Combined& c) {
  if (func != AggFunc::kAvg) return c.sum.Round();
  return c.terms == 0 ? 0.0 : c.sum.Round() / static_cast<double>(c.terms);
}

/// Horvitz–Thompson total under Bernoulli(m) sampling, T̂ = Σt/m with
/// V̂(T̂) = (1−m)/m² · Σt², added to `base` (q(S) for SVC+CORR, where the
/// terms are the differences d; none for SVC+AQP).
Estimate TotalEstimate(const Combined& c, const double* base, double m,
                       double z, double confidence) {
  Estimate e;
  e.value = c.sum.Round() / m;
  if (base != nullptr) e.value = *base + e.value;
  const double var = (1.0 - m) / (m * m) * c.ssq.Round();
  const double hw = z * std::sqrt(std::max(0.0, var));
  e.ci_low = e.value - hw;
  e.ci_high = e.value + hw;
  e.confidence = confidence;
  e.has_ci = true;
  e.sample_rows = c.terms;
  return e;
}

std::vector<const std::vector<Row>*> KeyLists(
    const std::vector<const PartialMoments*>& parts) {
  std::vector<const std::vector<Row>*> lists;
  lists.reserve(parts.size());
  for (const PartialMoments* p : parts) lists.push_back(&p->group_keys);
  return lists;
}

/// Grouped SVC+CORR over key lists [stale lists..., parts' lists...]:
/// `stale_of(at, &exact)` sets q(S) of a group that is in S.
template <typename StaleOf>
GroupedResult CorrGrouped(std::vector<const std::vector<Row>*> lists,
                          size_t num_stale, StaleOf&& stale_of,
                          const std::vector<const PartialMoments*>& parts,
                          const std::vector<std::string>& group_columns,
                          double ratio, const EstimatorOptions& opts) {
  for (const PartialMoments* p : parts) lists.push_back(&p->group_keys);
  const double z = NormalQuantile(opts.confidence);
  ResultBuilder out(group_columns);
  ForEachGroup(lists, [&](const Row& key, const std::vector<size_t>& at) {
    double exact = 0.0;
    stale_of(at, &exact);
    Combined c;
    c.AddAt(parts, at, num_stale);
    out.Append(key, TotalEstimate(c, &exact, ratio, z, opts.confidence));
  });
  return out.Take();
}

Status RequireTotal(const AggregateQuery& q, const char* what) {
  if (IsTotalAggregate(q.func)) return Status::OK();
  return Status::InvalidArgument(std::string(what) +
                                 " takes sum, count or count(*); query: " +
                                 q.ToString());
}

}  // namespace

bool IsTotalAggregate(AggFunc f) {
  return f == AggFunc::kSum || f == AggFunc::kCount ||
         f == AggFunc::kCountStar;
}

bool HasStaleMoments(AggFunc f) {
  return IsTotalAggregate(f) || f == AggFunc::kAvg;
}

Result<PartialMoments> StaleMoments(
    const Table& view, const std::vector<std::string>& group_columns,
    const AggregateQuery& q, const CancelToken* cancel) {
  if (!HasStaleMoments(q.func)) {
    return Status::InvalidArgument(
        "q(S) moments take sum, count, count(*) or avg; query: " +
        q.ToString());
  }
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       view.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(BoundQuery b, BoundQuery::Bind(view.schema(), q));
  const bool avg = q.func == AggFunc::kAvg;
  MomentAccumulator acc(/*squares=*/false);
  for (size_t i = 0; i < view.NumRows(); ++i) {
    SVC_RETURN_IF_ERROR(PollCancel(cancel, i, "stale aggregate"));
    const Row& r = view.row(i);
    const size_t g = acc.Group(r, gidx);
    acc.CountRow(g);
    if (!avg) {
      acc.AddTerm(g, b.Term(r));
      continue;
    }
    const EvalRow er = b.Eval(r);
    if (er.pred && !er.x_null) acc.AddTerm(g, er.x);
  }
  return acc.Finish();
}

Result<PartialMoments> CorrMoments(
    const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const CancelToken* cancel) {
  SVC_RETURN_IF_ERROR(RequireTotal(q, "SVC+CORR moments"));
  const Table& fresh = samples.fresh;
  const Table& stale = samples.stale;
  SVC_ASSIGN_OR_RETURN(BoundQuery fq, BoundQuery::Bind(fresh.schema(), q));
  SVC_ASSIGN_OR_RETURN(BoundQuery sq, BoundQuery::Bind(stale.schema(), q));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> fg,
                       fresh.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> sg,
                       stale.schema().ResolveAll(group_columns));
  // Pairs as PairRows forms them: fresh rows by key; a stale row with a
  // fresh counterpart lends it its term, any other is a stale-only pair.
  FlatKeyMap<size_t> by_key;
  by_key.Reserve(fresh.NumRows());
  KeyBuffer kb;
  for (size_t i = 0; i < fresh.NumRows(); ++i) {
    const RowKeyRef key = kb.Encode(fresh.row(i), fresh.pk_indices());
    by_key.Emplace(key.bytes, key.hash, i);
  }
  std::vector<double> stale_term(fresh.NumRows(), 0.0);
  MomentAccumulator acc(/*squares=*/true);
  for (size_t i = 0; i < stale.NumRows(); ++i) {
    SVC_RETURN_IF_ERROR(PollCancel(cancel, i, "correction moments"));
    const Row& r = stale.row(i);
    const RowKeyRef key = kb.Encode(r, stale.pk_indices());
    const size_t* f = by_key.Find(key.bytes, key.hash);
    if (f != nullptr) {
      stale_term[*f] = sq.Term(r);
    } else {
      acc.AddSampleTerm(acc.Group(r, sg), 0.0 - sq.Term(r));
    }
  }
  for (size_t i = 0; i < fresh.NumRows(); ++i) {
    SVC_RETURN_IF_ERROR(PollCancel(cancel, i, "correction moments"));
    const Row& r = fresh.row(i);
    acc.AddSampleTerm(acc.Group(r, fg), fq.Term(r) - stale_term[i]);
  }
  return acc.Finish();
}

Result<PartialMoments> AqpMoments(const CorrespondingSamples& samples,
                                  const std::vector<std::string>& group_columns,
                                  const AggregateQuery& q,
                                  const CancelToken* cancel) {
  SVC_RETURN_IF_ERROR(RequireTotal(q, "SVC+AQP moments"));
  const Table& fresh = samples.fresh;
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       fresh.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(BoundQuery b, BoundQuery::Bind(fresh.schema(), q));
  MomentAccumulator acc(/*squares=*/true);
  for (size_t i = 0; i < fresh.NumRows(); ++i) {
    SVC_RETURN_IF_ERROR(PollCancel(cancel, i, "sample moments"));
    const Row& r = fresh.row(i);
    acc.AddSampleTerm(acc.Group(r, gidx), b.Term(r));
  }
  return acc.Finish();
}

double FinishStale(const std::vector<const PartialMoments*>& parts,
                   const AggregateQuery& q) {
  Combined c;
  c.AddScalar(parts);
  return StaleValue(q.func, c);
}

GroupedResult FinishStaleGrouped(const std::vector<const PartialMoments*>& parts,
                                 const std::vector<std::string>& group_columns,
                                 const AggregateQuery& q) {
  ResultBuilder out(group_columns);
  ForEachGroup(KeyLists(parts),
               [&](const Row& key, const std::vector<size_t>& at) {
                 Combined c;
                 c.AddAt(parts, at, 0);
                 Estimate e;
                 e.value = StaleValue(q.func, c);
                 e.sample_rows = c.rows;
                 out.Append(key, e);
               });
  return out.Take();
}

Estimate FinishCorr(double exact_stale,
                    const std::vector<const PartialMoments*>& parts,
                    double ratio, const EstimatorOptions& opts) {
  Combined c;
  c.AddScalar(parts);
  return TotalEstimate(c, &exact_stale, ratio,
                       NormalQuantile(opts.confidence), opts.confidence);
}

GroupedResult FinishCorrGrouped(
    const std::vector<const PartialMoments*>& stale_parts,
    const std::vector<const PartialMoments*>& parts,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    double ratio, const EstimatorOptions& opts) {
  auto stale_of = [&](const std::vector<size_t>& at, double* exact) {
    bool in_stale = false;
    for (size_t l = 0; l < stale_parts.size(); ++l) {
      in_stale = in_stale || at[l] != kAbsent;
    }
    if (!in_stale) return false;
    Combined c;
    c.AddAt(stale_parts, at, 0);
    *exact = StaleValue(q.func, c);
    return true;
  };
  return CorrGrouped(KeyLists(stale_parts), stale_parts.size(), stale_of,
                     parts, group_columns, ratio, opts);
}

Estimate FinishAqp(const std::vector<const PartialMoments*>& parts,
                   double ratio, const EstimatorOptions& opts) {
  Combined c;
  c.AddScalar(parts);
  return TotalEstimate(c, nullptr, ratio, NormalQuantile(opts.confidence),
                       opts.confidence);
}

GroupedResult FinishAqpGrouped(const std::vector<const PartialMoments*>& parts,
                               const std::vector<std::string>& group_columns,
                               double ratio, const EstimatorOptions& opts) {
  const double z = NormalQuantile(opts.confidence);
  ResultBuilder out(group_columns);
  ForEachGroup(KeyLists(parts),
               [&](const Row& key, const std::vector<size_t>& at) {
                 Combined c;
                 c.AddAt(parts, at, 0);
                 out.Append(key,
                            TotalEstimate(c, nullptr, ratio, z, opts.confidence));
               });
  return out.Take();
}

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
  if (HasStaleMoments(q.func)) {
    SVC_ASSIGN_OR_RETURN(PartialMoments m, StaleMoments(view, {}, q));
    return FinishStale({&m}, q);
  }
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(view, q));
  return ExactFromRows(rows, q);
}

Result<Estimate> SvcAqpEstimate(const CorrespondingSamples& samples,
                                const AggregateQuery& q,
                                const EstimatorOptions& opts) {
  if (IsTotalAggregate(q.func)) {
    SVC_ASSIGN_OR_RETURN(PartialMoments m, AqpMoments(samples, {}, q));
    return FinishAqp({&m}, samples.ratio, opts);
  }
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
  if (IsTotalAggregate(q.func)) {
    SVC_ASSIGN_OR_RETURN(PartialMoments m, CorrMoments(samples, {}, q));
    return FinishCorr(exact_stale, {&m}, samples.ratio, opts);
  }
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
  return CorrFromPairs(pairs, q, exact_stale, /*stale_group_exists=*/true,
                       opts);
}

namespace {

/// Rows bucketed by group, each group's rows in table order, groups in
/// key order.
struct Buckets {
  std::vector<Row> keys;
  std::vector<std::vector<size_t>> rows;
};

Result<Buckets> BucketRows(const Table& t,
                           const std::vector<std::string>& group_columns) {
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       t.schema().ResolveAll(group_columns));
  GroupSlots slots;
  std::vector<std::vector<size_t>> rows;
  for (size_t i = 0; i < t.NumRows(); ++i) {
    const size_t g = slots.SlotFor(t.row(i), gidx);
    if (g == rows.size()) rows.emplace_back();
    rows[g].push_back(i);
  }
  Buckets out;
  for (size_t g : KeyOrder(slots.keys())) {
    out.keys.push_back(std::move(slots.keys()[g]));
    out.rows.push_back(std::move(rows[g]));
  }
  return out;
}

std::vector<EvalRow> Select(const std::vector<EvalRow>& rows,
                            const std::vector<size_t>& idx) {
  std::vector<EvalRow> sub;
  sub.reserve(idx.size());
  for (size_t i : idx) sub.push_back(rows[i]);
  return sub;
}

}  // namespace

Result<GroupedResult> ExactAggregateGrouped(
    const Table& view, const std::vector<std::string>& group_columns,
    const AggregateQuery& q) {
  if (HasStaleMoments(q.func)) {
    SVC_ASSIGN_OR_RETURN(PartialMoments m,
                         StaleMoments(view, group_columns, q));
    return FinishStaleGrouped({&m}, group_columns, q);
  }
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(view, q));
  SVC_ASSIGN_OR_RETURN(Buckets buckets, BucketRows(view, group_columns));
  ResultBuilder out(group_columns);
  for (size_t g = 0; g < buckets.keys.size(); ++g) {
    Estimate e;
    SVC_ASSIGN_OR_RETURN(e.value,
                         ExactFromRows(Select(rows, buckets.rows[g]), q));
    e.sample_rows = buckets.rows[g].size();
    out.Append(std::move(buckets.keys[g]), e);
  }
  return out.Take();
}

Result<GroupedResult> SvcAqpEstimateGrouped(
    const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts) {
  if (IsTotalAggregate(q.func)) {
    SVC_ASSIGN_OR_RETURN(PartialMoments m,
                         AqpMoments(samples, group_columns, q));
    return FinishAqpGrouped({&m}, group_columns, samples.ratio, opts);
  }
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(samples.fresh, q));
  SVC_ASSIGN_OR_RETURN(Buckets buckets,
                       BucketRows(samples.fresh, group_columns));
  ResultBuilder out(group_columns);
  for (size_t g = 0; g < buckets.keys.size(); ++g) {
    out.Append(std::move(buckets.keys[g]),
               AqpFromRows(Select(rows, buckets.rows[g]), q, samples.ratio,
                           opts));
  }
  return out.Take();
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
  // The stale side is one key-ordered list: the groups of S.
  auto stale_of = [&](const std::vector<size_t>& at, double* exact) {
    if (at[0] == kAbsent) return false;
    *exact = stale_exact.estimates[at[0]].value;
    return true;
  };
  if (IsTotalAggregate(q.func)) {
    SVC_ASSIGN_OR_RETURN(PartialMoments m,
                         CorrMoments(samples, group_columns, q));
    return CorrGrouped({&stale_exact.group_keys}, 1, stale_of, {&m},
                       group_columns, samples.ratio, opts);
  }
  // avg / median / min / max: bucket the pairs by group (the fresh row's
  // group when it exists, else the stale row's), each group's pairs in
  // pair order, for the bootstrap.
  SVC_ASSIGN_OR_RETURN(std::vector<PairRow> pairs, PairRows(samples, q));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> fg,
                       samples.fresh.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> sg,
                       samples.stale.schema().ResolveAll(group_columns));
  GroupSlots slots;
  std::vector<std::vector<PairRow>> by_slot;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const size_t g = pairs[p].has_fresh
                         ? slots.SlotFor(samples.fresh.row(p), fg)
                         : slots.SlotFor(samples.stale.row(pairs[p].stale_row),
                                         sg);
    if (g == by_slot.size()) by_slot.emplace_back();
    by_slot[g].push_back(pairs[p]);
  }
  std::vector<Row> sampled_keys;
  std::vector<std::vector<PairRow>> group_pairs;
  for (size_t g : KeyOrder(slots.keys())) {
    sampled_keys.push_back(std::move(slots.keys()[g]));
    group_pairs.push_back(std::move(by_slot[g]));
  }
  const std::vector<PairRow> none;
  ResultBuilder out(group_columns);
  ForEachGroup({&stale_exact.group_keys, &sampled_keys},
               [&](const Row& key, const std::vector<size_t>& at) {
                 double exact = 0.0;
                 const bool in_stale = stale_of(at, &exact);
                 out.Append(key, CorrFromPairs(at[1] == kAbsent
                                                   ? none
                                                   : group_pairs[at[1]],
                                               q, exact, in_stale, opts));
               });
  return out.Take();
}

}  // namespace svc
