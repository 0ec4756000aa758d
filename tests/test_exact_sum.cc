// ExactSum: order-free, exactly rounded summation (common/exact_sum.h).
// Every check compares IEEE bit patterns.

#include "common/exact_sum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"

namespace svc {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double FromBits(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

double Sum(const std::vector<double>& v) {
  ExactSum s;
  for (double x : v) s.Add(x);
  return s.Round();
}

/// A finite double with a uniform exponent field (subnormals included).
double RandomDouble(Rng* rng, int max_biased) {
  const uint64_t sign = static_cast<uint64_t>(rng->UniformInt(0, 1)) << 63;
  const uint64_t biased =
      static_cast<uint64_t>(rng->UniformInt(0, max_biased)) << 52;
  const uint64_t mant =
      static_cast<uint64_t>(rng->UniformInt(0, (int64_t{1} << 52) - 1));
  return FromBits(sign | biased | mant);
}

void Shuffle(std::vector<double>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->UniformInt(
                               0, static_cast<int64_t>(i) - 1))]);
  }
}

TEST(ExactSumTest, PermutationsGiveTheSameBits) {
  Rng rng(17);
  for (int max_biased : {2046, 1100, 60}) {
    std::vector<double> v;
    for (int i = 0; i < 2000; ++i) v.push_back(RandomDouble(&rng, max_biased));
    const uint64_t want = Bits(Sum(v));
    for (int trial = 0; trial < 5; ++trial) {
      Shuffle(&v, &rng);
      EXPECT_EQ(Bits(Sum(v)), want) << "max_biased=" << max_biased;
    }
  }
}

TEST(ExactSumTest, SplitAndMergeEqualsOnePass) {
  Rng rng(23);
  std::vector<double> v;
  for (int i = 0; i < 3000; ++i) v.push_back(RandomDouble(&rng, 1200));
  const uint64_t want = Bits(Sum(v));
  for (int parts : {2, 3, 7}) {
    std::vector<ExactSum> dense(static_cast<size_t>(parts));
    for (double x : v) {
      dense[static_cast<size_t>(rng.UniformInt(0, parts - 1))].Add(x);
    }
    ExactSum merged, from_partials;
    for (const ExactSum& d : dense) {
      merged.Add(d);
      from_partials.Add(d.Compact());
    }
    EXPECT_EQ(Bits(merged.Round()), want) << parts << " dense parts";
    EXPECT_EQ(Bits(from_partials.Round()), want) << parts << " partials";
  }
}

/// Terms m·2^-scale with |m| < 2^53, whose exact sum fits an __int128.
void CheckAgainstInt128(const std::vector<int64_t>& mants, int scale) {
  __int128 exact = 0;
  ExactSum s;
  for (int64_t m : mants) {
    exact += m;
    s.Add(std::ldexp(static_cast<double>(m), -scale));
  }
  // libgcc's __int128 -> double conversion rounds to nearest-even; the
  // power-of-two scale is then exact (normal results stay normal, and
  // subnormal ones come from sums below 2^53, which convert exactly).
  const double want = std::ldexp(static_cast<double>(exact), -scale);
  EXPECT_EQ(Bits(s.Round()), Bits(want == 0.0 ? 0.0 : want))
      << "scale=" << scale;
}

TEST(ExactSumTest, RoundsOnceToNearestEven) {
  Rng rng(5);
  for (int scale : {0, 40, 1074}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<int64_t> mants;
      const int n = static_cast<int>(rng.UniformInt(1, 300));
      for (int i = 0; i < n; ++i) {
        const int bits = static_cast<int>(rng.UniformInt(1, 53));
        int64_t m = rng.UniformInt(0, (int64_t{1} << (bits - 1)) - 1);
        m <<= rng.UniformInt(0, 9);  // still exact in a double
        mants.push_back(rng.UniformInt(0, 1) == 0 ? m : -m);
      }
      CheckAgainstInt128(mants, scale);
    }
  }
  // Ties: 2^53 + 1 rounds down to the even 2^53, 2^53 + 3 up to 2^53 + 4.
  const int64_t p53 = int64_t{1} << 53;
  CheckAgainstInt128({p53, 1}, 0);
  CheckAgainstInt128({p53, 3}, 0);
  CheckAgainstInt128({p53 + 2, 1}, 0);
  CheckAgainstInt128({-p53, -1}, 0);
  EXPECT_EQ(Sum({9007199254740992.0, 1.0}), 9007199254740992.0);
  EXPECT_EQ(Sum({9007199254740992.0, 3.0}), 9007199254740996.0);
  // The same ties at the bottom of the normal range.
  CheckAgainstInt128({p53, 1}, 1074);
  CheckAgainstInt128({p53, 3}, 1074);
}

TEST(ExactSumTest, ClassicCancellations) {
  EXPECT_EQ(Sum({1e308, 1.0, -1e308}), 1.0);
  EXPECT_EQ(Sum({1e308, 1e-308, -1e308}), 1e-308);
  EXPECT_EQ(Sum({1.0, 1e100, 1.0, -1e100}), 2.0);
  // In units of 2^-56 the three doubles are 0x1999999999999A,
  // 0x33333333333334 and 0x4CCCCCCCCCCCCC: the exact sum is 2^-55, where
  // naive summation gives 2^-54.
  EXPECT_EQ(Sum({0.1, 0.2, -0.3}), std::ldexp(1.0, -55));
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(Bits(Sum({tiny, tiny, tiny, -tiny})), Bits(2 * tiny));
  EXPECT_EQ(Bits(Sum({std::numeric_limits<double>::min(), -tiny})),
            Bits(std::numeric_limits<double>::min() - tiny));
}

TEST(ExactSumTest, SpecialValuesAndZero) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Sum({kMax, kMax}), kInf);
  EXPECT_EQ(Sum({-kMax, -kMax}), -kInf);
  EXPECT_EQ(Sum({kMax, kMax, -kMax}), kMax);  // exact: no overflow midway
  EXPECT_TRUE(std::isnan(Sum({1.0, nan})));
  EXPECT_TRUE(std::isnan(Sum({kInf, -kInf})));
  EXPECT_EQ(Sum({kInf, 1.0, kInf}), kInf);
  EXPECT_EQ(Sum({-kInf, 5.0}), -kInf);
  EXPECT_TRUE(std::isnan(Sum({kInf, nan})));
  // An exact zero is +0.0, as naive summation from +0.0 gives it.
  EXPECT_EQ(Bits(Sum({})), Bits(0.0));
  EXPECT_EQ(Bits(Sum({1.5, -1.5})), Bits(0.0));
  EXPECT_EQ(Bits(Sum({-0.0, -0.0})), Bits(0.0));
  // Specials survive compaction and merging.
  ExactSum a, b;
  a.Add(kInf);
  b.Add(-kInf);
  ExactSum c;
  c.Add(a.Compact());
  EXPECT_EQ(c.Round(), kInf);
  c.Add(b);
  EXPECT_TRUE(std::isnan(c.Round()));
}

TEST(ExactSumTest, ProductsAreExact) {
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60: the rounded product loses 2^-60.
  const double x = 1.0 + std::ldexp(1.0, -30);
  ExactSum s;
  s.AddSquare(x);
  s.Add(-1.0);
  s.Add(-std::ldexp(1.0, -29));
  EXPECT_EQ(s.Round(), std::ldexp(1.0, -60));
  ExactSum p;
  p.AddProduct(3.0, -0.1);
  p.AddProduct(0.1, 3.0);
  EXPECT_EQ(Bits(p.Round()), Bits(0.0));
}

TEST(ExactSumTest, PartialsKeepOnlyNonzeroChunks) {
  ExactSum s;
  for (int i = 0; i < 1000; ++i) s.Add(1234.5625 * i);
  const ExactSum::Partial p = s.Compact();
  EXPECT_LE(p.HeapBytes(), 4 * 16u);
  EXPECT_FALSE(p.IsZero());
  EXPECT_TRUE(ExactSum().Compact().IsZero());
  ExactSum neg;
  neg.Add(-std::numeric_limits<double>::denorm_min());
  EXPECT_LE(neg.Compact().HeapBytes(), 16u);  // balanced digits: one chunk
}

}  // namespace
}  // namespace svc
