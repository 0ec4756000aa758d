#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "core/estimator.h"
#include "tests/test_util.h"

namespace svc {
namespace {

/// Builds a keyed single-group population table: (id, val, grp).
Table MakePopulation(const std::vector<double>& values, int64_t id_offset = 0,
                     const std::vector<int64_t>* groups = nullptr) {
  Table t(Schema({{"", "id", ValueType::kInt},
                  {"", "val", ValueType::kDouble},
                  {"", "grp", ValueType::kInt}}));
  EXPECT_TRUE(t.SetPrimaryKey({"id"}).ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(t.Insert({Value::Int(id_offset + static_cast<int64_t>(i)),
                          Value::Double(values[i]),
                          Value::Int(groups ? (*groups)[i]
                                            : static_cast<int64_t>(i % 5))})
                    .ok());
  }
  return t;
}

/// Hash-samples a keyed table (mirrors MaterializeStaleSample).
Table HashSample(const Table& t, double m, HashFamily f) {
  Table out(t.schema());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    if (HashInSample(t.EncodedKey(i), m, f)) out.AppendUnchecked(t.row(i));
  }
  EXPECT_TRUE(out.SetPrimaryKey(t.PrimaryKeyNames()).ok());
  return out;
}

CorrespondingSamples MakeSamples(const Table& stale, const Table& fresh,
                                 double m,
                                 HashFamily f = HashFamily::kFnv1a) {
  CorrespondingSamples s;
  s.ratio = m;
  s.family = f;
  s.key_columns = {"id"};
  s.stale = HashSample(stale, m, f);
  s.fresh = HashSample(fresh, m, f);
  return s;
}

TEST(ExactAggregateTest, AllFunctions) {
  Table t = MakePopulation({1, 2, 3, 4, 100});
  SVC_ASSERT_OK_AND_ASSIGN(
      double sum, ExactAggregate(t, AggregateQuery::Sum(Expr::Col("val"))));
  EXPECT_DOUBLE_EQ(sum, 110);
  SVC_ASSERT_OK_AND_ASSIGN(double cnt,
                           ExactAggregate(t, AggregateQuery::Count()));
  EXPECT_DOUBLE_EQ(cnt, 5);
  SVC_ASSERT_OK_AND_ASSIGN(
      double avg, ExactAggregate(t, AggregateQuery::Avg(Expr::Col("val"))));
  EXPECT_DOUBLE_EQ(avg, 22);
  SVC_ASSERT_OK_AND_ASSIGN(
      double med,
      ExactAggregate(t, AggregateQuery::Median(Expr::Col("val"))));
  EXPECT_DOUBLE_EQ(med, 3);
}

TEST(ExactAggregateTest, PredicateRestricts) {
  Table t = MakePopulation({1, 2, 3, 4, 100});
  AggregateQuery q = AggregateQuery::Sum(
      Expr::Col("val"), Expr::Lt(Expr::Col("val"), Expr::LitDouble(10)));
  SVC_ASSERT_OK_AND_ASSIGN(double sum, ExactAggregate(t, q));
  EXPECT_DOUBLE_EQ(sum, 10);
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.95), 1.9600, 5e-4);
  EXPECT_NEAR(NormalQuantile(0.99), 2.5758, 5e-4);
  EXPECT_NEAR(NormalQuantile(0.90), 1.6449, 5e-4);
}

class AqpAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(AqpAccuracyTest, SumEstimateNearTruthAndCovered) {
  const double m = GetParam();
  Rng rng(31);
  std::vector<double> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(rng.Uniform(0, 10));
  Table pop = MakePopulation(vals);
  CorrespondingSamples s = MakeSamples(pop, pop, m);
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(pop, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcAqpEstimate(s, q));
  EXPECT_TRUE(e.has_ci);
  EXPECT_NEAR(e.value, truth, truth * 0.25) << "m=" << m;
  EXPECT_LE(e.ci_low, e.value);
  EXPECT_GE(e.ci_high, e.value);
}

INSTANTIATE_TEST_SUITE_P(Ratios, AqpAccuracyTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5));

TEST(AqpCoverageTest, ConfidenceIntervalCovers95Percent) {
  // Property: over many disjoint key universes (fresh hash draws), the 95%
  // CI should cover the truth ~95% of the time. This validates the
  // Horvitz–Thompson variance under the deterministic hash design.
  Rng rng(77);
  int covered = 0;
  const int trials = 120;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> vals;
    for (int i = 0; i < 1500; ++i) vals.push_back(rng.Uniform(0, 5));
    Table pop = MakePopulation(vals, /*id_offset=*/t * 1000000);
    CorrespondingSamples s = MakeSamples(pop, pop, 0.1);
    AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
    SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(pop, q));
    SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcAqpEstimate(s, q));
    if (e.Covers(truth)) ++covered;
  }
  const double rate = static_cast<double>(covered) / trials;
  EXPECT_GE(rate, 0.86);  // generous slack: 120 Bernoulli(0.95) trials
}

TEST(AqpCoverageTest, CountCoverage) {
  Rng rng(79);
  int covered = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> vals;
    for (int i = 0; i < 1200; ++i) vals.push_back(rng.Uniform(0, 5));
    Table pop = MakePopulation(vals, t * 1000000);
    CorrespondingSamples s = MakeSamples(pop, pop, 0.15);
    AggregateQuery q = AggregateQuery::Count(
        Expr::Gt(Expr::Col("val"), Expr::LitDouble(2.5)));
    SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(pop, q));
    SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcAqpEstimate(s, q));
    if (e.Covers(truth)) ++covered;
  }
  EXPECT_GE(covered, 85);
}

TEST(AqpTest, AvgEstimate) {
  Rng rng(83);
  std::vector<double> vals;
  for (int i = 0; i < 4000; ++i) vals.push_back(rng.Gaussian() * 2 + 10);
  Table pop = MakePopulation(vals);
  CorrespondingSamples s = MakeSamples(pop, pop, 0.2);
  AggregateQuery q = AggregateQuery::Avg(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(pop, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcAqpEstimate(s, q));
  EXPECT_NEAR(e.value, truth, 0.5);
  EXPECT_TRUE(e.has_ci);
}

TEST(AqpTest, MedianBootstrapInterval) {
  Rng rng(89);
  std::vector<double> vals;
  for (int i = 0; i < 3000; ++i) vals.push_back(rng.Exponential(0.2));
  Table pop = MakePopulation(vals);
  CorrespondingSamples s = MakeSamples(pop, pop, 0.2);
  AggregateQuery q = AggregateQuery::Median(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(pop, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcAqpEstimate(s, q));
  EXPECT_TRUE(e.has_ci);
  EXPECT_LT(e.ci_low, e.ci_high);
  EXPECT_NEAR(e.value, truth, 1.0);
}

TEST(CorrTest, NoChangeMeansExactAnswer) {
  // When the view did not change, the correction is exactly zero and
  // SVC+CORR returns the exact stale (= fresh) answer with zero width.
  Rng rng(97);
  std::vector<double> vals;
  for (int i = 0; i < 2000; ++i) vals.push_back(rng.Uniform(0, 9));
  Table pop = MakePopulation(vals);
  CorrespondingSamples s = MakeSamples(pop, pop, 0.1);
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(pop, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcCorrEstimate(pop, s, q));
  EXPECT_DOUBLE_EQ(e.value, truth);
  EXPECT_NEAR(e.HalfWidth(), 0.0, 1e-9);
}

/// Builds a stale/fresh pair: `fresh` modifies a fraction of rows, adds
/// rows, deletes rows.
struct StaleFresh {
  Table stale;
  Table fresh;
};

StaleFresh MakeStaleFresh(Rng* rng, int n, double update_frac,
                          double insert_frac, double delete_frac) {
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) vals.push_back(rng->Uniform(0, 10));
  StaleFresh out;
  out.stale = MakePopulation(vals);
  std::vector<double> fresh_vals;
  Table fresh(out.stale.schema());
  EXPECT_TRUE(fresh.SetPrimaryKey({"id"}).ok());
  for (int i = 0; i < n; ++i) {
    if (rng->Bernoulli(delete_frac)) continue;  // deleted
    double v = vals[i];
    if (rng->Bernoulli(update_frac)) v = rng->Uniform(0, 10);  // updated
    EXPECT_TRUE(fresh
                    .Insert({Value::Int(i), Value::Double(v),
                             Value::Int(i % 5)})
                    .ok());
  }
  const int extra = static_cast<int>(n * insert_frac);
  for (int i = 0; i < extra; ++i) {
    EXPECT_TRUE(fresh
                    .Insert({Value::Int(n + i),
                             Value::Double(rng->Uniform(0, 10)),
                             Value::Int(i % 5)})
                    .ok());
  }
  out.fresh = std::move(fresh);
  return out;
}

TEST(CorrTest, CorrectionTracksTruthUnderMixedChanges) {
  Rng rng(101);
  StaleFresh sf = MakeStaleFresh(&rng, 4000, 0.05, 0.08, 0.03);
  CorrespondingSamples s = MakeSamples(sf.stale, sf.fresh, 0.15);
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(sf.fresh, q));
  SVC_ASSERT_OK_AND_ASSIGN(double stale_ans, ExactAggregate(sf.stale, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate corr, SvcCorrEstimate(sf.stale, s, q));
  // The correction must beat the stale answer.
  EXPECT_LT(std::fabs(corr.value - truth), std::fabs(stale_ans - truth));
}

TEST(CorrTest, CoverageUnderChanges) {
  Rng rng(103);
  int covered = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    StaleFresh sf = MakeStaleFresh(&rng, 1200, 0.08, 0.10, 0.04);
    // Shift ids so each trial gets a fresh hash draw.
    CorrespondingSamples s = MakeSamples(sf.stale, sf.fresh, 0.15,
                                         t % 2 ? HashFamily::kFnv1a
                                               : HashFamily::kSha1);
    AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
    SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(sf.fresh, q));
    SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcCorrEstimate(sf.stale, s, q));
    if (e.Covers(truth)) ++covered;
  }
  EXPECT_GE(covered, 85);
}

TEST(CorrTest, CorrBeatsAqpWhenStalenessIsLight) {
  // §5.2.2: when few rows changed, the correction's variance is far lower
  // than the direct estimate's. Check interval widths.
  Rng rng(107);
  StaleFresh sf = MakeStaleFresh(&rng, 5000, 0.02, 0.02, 0.0);
  CorrespondingSamples s = MakeSamples(sf.stale, sf.fresh, 0.1);
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate aqp, SvcAqpEstimate(s, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate corr, SvcCorrEstimate(sf.stale, s, q));
  EXPECT_LT(corr.HalfWidth(), aqp.HalfWidth() / 2);
}

TEST(CorrTest, AvgCorrection) {
  Rng rng(109);
  StaleFresh sf = MakeStaleFresh(&rng, 3000, 0.1, 0.1, 0.05);
  CorrespondingSamples s = MakeSamples(sf.stale, sf.fresh, 0.2);
  AggregateQuery q = AggregateQuery::Avg(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(double truth, ExactAggregate(sf.fresh, q));
  SVC_ASSERT_OK_AND_ASSIGN(Estimate e, SvcCorrEstimate(sf.stale, s, q));
  EXPECT_NEAR(e.value, truth, 0.4);
}

TEST(GroupedTest, ExactGroupedMatchesPerGroupScan) {
  Rng rng(113);
  std::vector<double> vals;
  std::vector<int64_t> grps;
  for (int i = 0; i < 1000; ++i) {
    vals.push_back(rng.Uniform(0, 10));
    grps.push_back(rng.UniformInt(0, 3));
  }
  Table pop = MakePopulation(vals, 0, &grps);
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(GroupedResult g,
                           ExactAggregateGrouped(pop, {"grp"}, q));
  EXPECT_EQ(g.group_keys.size(), 4u);
  for (size_t i = 0; i < g.group_keys.size(); ++i) {
    const int64_t grp = g.group_keys[i][0].AsInt();
    AggregateQuery qq = AggregateQuery::Sum(
        Expr::Col("val"), Expr::Eq(Expr::Col("grp"), Expr::LitInt(grp)));
    SVC_ASSERT_OK_AND_ASSIGN(double want, ExactAggregate(pop, qq));
    EXPECT_DOUBLE_EQ(g.estimates[i].value, want);
  }
}

TEST(GroupedTest, ExactGroupedIsScalarExactOverEachGroupsRows) {
  // Every aggregate function, with and without a predicate, over a column
  // with NULLs: each group's value must be ExactAggregate over exactly that
  // group's rows, bit for bit, and carry no CI.
  Rng rng(7);
  Table pop(Schema({{"", "id", ValueType::kInt},
                    {"", "val", ValueType::kDouble},
                    {"", "grp", ValueType::kInt}}));
  SVC_ASSERT_OK(pop.SetPrimaryKey({"id"}));
  for (int64_t i = 0; i < 600; ++i) {
    Value val = Value::Double(rng.Uniform(0, 10));
    if (rng.UniformInt(0, 9) == 0) val = Value::Null();
    SVC_ASSERT_OK(
        pop.Insert({Value::Int(i), val, Value::Int(rng.UniformInt(0, 6))}));
  }
  const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kCount,
                           AggFunc::kCountStar, AggFunc::kAvg,
                           AggFunc::kMin, AggFunc::kMax, AggFunc::kMedian};
  const ExprPtr below7 = Expr::Lt(Expr::Col("val"), Expr::LitDouble(7));
  for (AggFunc f : funcs) {
    for (bool with_pred : {false, true}) {
      SCOPED_TRACE(std::string(AggFuncName(f)) +
                   (with_pred ? " WHERE val < 7" : ""));
      AggregateQuery q;
      q.func = f;
      if (f != AggFunc::kCountStar) q.attr = Expr::Col("val");
      if (with_pred) q.predicate = below7;
      SVC_ASSERT_OK_AND_ASSIGN(GroupedResult g,
                               ExactAggregateGrouped(pop, {"grp"}, q));
      ASSERT_EQ(g.group_keys.size(), 7u);
      for (size_t k = 0; k < g.group_keys.size(); ++k) {
        Table rows(pop.schema());
        for (const Row& r : pop.rows()) {
          if (r[2] == g.group_keys[k][0]) rows.AppendUnchecked(r);
        }
        SVC_ASSERT_OK_AND_ASSIGN(double want, ExactAggregate(rows, q));
        const double got = g.estimates[k].value;
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "group " << g.group_keys[k][0].ToString() << ": " << got
            << " vs " << want;
        EXPECT_FALSE(g.estimates[k].has_ci);
        EXPECT_EQ(g.estimates[k].sample_rows, rows.NumRows());
      }
    }
  }
  // Functions without an exact evaluator fail the same way grouped.
  AggregateQuery distinct{AggFunc::kCountDistinct, Expr::Col("val"), nullptr};
  EXPECT_FALSE(ExactAggregate(pop, distinct).ok());
  EXPECT_FALSE(ExactAggregateGrouped(pop, {"grp"}, distinct).ok());
}

TEST(GroupedTest, AqpGroupedNearExact) {
  Rng rng(127);
  std::vector<double> vals;
  std::vector<int64_t> grps;
  for (int i = 0; i < 8000; ++i) {
    vals.push_back(rng.Uniform(0, 10));
    grps.push_back(rng.UniformInt(0, 3));
  }
  Table pop = MakePopulation(vals, 0, &grps);
  CorrespondingSamples s = MakeSamples(pop, pop, 0.2);
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
  SVC_ASSERT_OK_AND_ASSIGN(GroupedResult est,
                           SvcAqpEstimateGrouped(s, {"grp"}, q));
  SVC_ASSERT_OK_AND_ASSIGN(GroupedResult want,
                           ExactAggregateGrouped(pop, {"grp"}, q));
  for (size_t i = 0; i < want.group_keys.size(); ++i) {
    Row gk = want.group_keys[i];
    std::string key = EncodeRowKey(gk, {0});
    const Estimate* e = est.Find(key);
    ASSERT_NE(e, nullptr);
    EXPECT_NEAR(e->value, want.estimates[i].value,
                want.estimates[i].value * 0.25);
  }
}

TEST(GroupedTest, CorrGroupedHandlesNewAndGoneGroups) {
  // Group 9 exists only in fresh; group 0 only in stale.
  Table stale(Schema({{"", "id", ValueType::kInt},
                      {"", "val", ValueType::kDouble},
                      {"", "grp", ValueType::kInt}}));
  Table fresh = stale;
  SVC_ASSERT_OK(stale.SetPrimaryKey({"id"}));
  SVC_ASSERT_OK(fresh.SetPrimaryKey({"id"}));
  Rng rng(131);
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.Uniform(0, 10);
    SVC_ASSERT_OK(stale.Insert({Value::Int(i), Value::Double(v),
                                Value::Int(i % 3)}));  // groups 0,1,2
    if (i % 3 != 0) {
      SVC_ASSERT_OK(fresh.Insert({Value::Int(i), Value::Double(v),
                                  Value::Int(i % 3)}));
    }
  }
  for (int i = 3000; i < 3600; ++i) {
    SVC_ASSERT_OK(fresh.Insert({Value::Int(i),
                                Value::Double(rng.Uniform(0, 10)),
                                Value::Int(9)}));
  }
  CorrespondingSamples s = MakeSamples(stale, fresh, 0.2);
  AggregateQuery q = AggregateQuery::Count();
  SVC_ASSERT_OK_AND_ASSIGN(GroupedResult est,
                           SvcCorrEstimateGrouped(stale, s, {"grp"}, q));
  SVC_ASSERT_OK_AND_ASSIGN(GroupedResult want,
                           ExactAggregateGrouped(fresh, {"grp"}, q));
  // New group 9: ~600.
  Row g9 = {Value::Int(9)};
  const Estimate* e9 = est.Find(EncodeRowKey(g9, {0}));
  ASSERT_NE(e9, nullptr);
  EXPECT_NEAR(e9->value, 600, 200);
  // Gone group 0: estimate near zero.
  Row g0 = {Value::Int(0)};
  const Estimate* e0 = est.Find(EncodeRowKey(g0, {0}));
  ASSERT_NE(e0, nullptr);
  EXPECT_NEAR(e0->value, 0, 220);
}

}  // namespace
}  // namespace svc
