#ifndef SVC_COMMON_EXACT_SUM_H_
#define SVC_COMMON_EXACT_SUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace svc {

/// An exact, mergeable sum of doubles: a small superaccumulator in the
/// style of Neal ("Fast exact summation using small and large
/// superaccumulators", arXiv:1505.05571). Every finite double is an integer
/// multiple of 2^-1074; the accumulator keeps that integer in 67 signed
/// 64-bit chunks of 32 bits each, so adding a term is three integer adds
/// and never rounds. The sum therefore does not depend on the order of the
/// terms, nor on how they were split into parts and merged.
///
/// Contract:
///   * Exact for finite doubles; Round() rounds once, to nearest-even.
///   * IEEE special values come out as naive summation gives them: any NaN
///     gives NaN, +inf and -inf together give NaN, otherwise +/-inf. A
///     finite sum beyond the double range rounds to +/-inf.
///   * An exact zero rounds to +0.0 (naive summation from +0.0 never
///     returns -0.0).
///   * Merging two accumulators, or adding a Partial, is exact.
///   * The state has a fixed size (sizeof(ExactSum), about 0.5 KB). A
///     Partial keeps only the nonzero chunks, so memoized or shipped sums
///     stay small.
class ExactSum {
 public:
  static constexpr int kChunks = 67;

  /// A compact, immutable copy of an accumulator's value: its nonzero
  /// chunks after normalization to digits in [-2^31, 2^31), plus the
  /// special values it saw.
  class Partial {
   public:
    Partial() = default;
    /// Heap bytes the digits occupy (in-process accounting).
    size_t HeapBytes() const { return digits_.capacity() * sizeof(Digit); }
    bool IsZero() const { return digits_.empty() && specials_ == 0; }

   private:
    friend class ExactSum;
    struct Digit {
      int64_t value;
      uint32_t index;
    };
    std::vector<Digit> digits_;
    uint8_t specials_ = 0;
  };

  ExactSum() = default;

  /// Adds `x` exactly.
  void Add(double x);
  /// Adds the exact product a·b (a rounded product plus its error term,
  /// found with a fused multiply-add).
  void AddProduct(double a, double b);
  void AddSquare(double x) { AddProduct(x, x); }
  /// Adds another accumulator's value.
  void Add(const ExactSum& other);
  void Add(const Partial& p);

  /// The sum rounded once to the nearest double (ties to even).
  double Round() const;
  Partial Compact() const;

 private:
  enum Special : uint8_t { kNaN = 1, kPosInf = 2, kNegInf = 4 };
  /// Terms of magnitude below 2^32 per chunk that may still be added
  /// before a chunk could leave the int64 range.
  static constexpr uint32_t kMaxPending = 1u << 30;

  /// Carries every chunk into [-2^31, 2^31), the top chunk excepted.
  void Normalize();
  void CountTerm() {
    if (++pending_ >= kMaxPending) Normalize();
  }

  int64_t chunk_[kChunks] = {};
  uint32_t pending_ = 0;
  uint8_t specials_ = 0;
};

}  // namespace svc

#endif  // SVC_COMMON_EXACT_SUM_H_
