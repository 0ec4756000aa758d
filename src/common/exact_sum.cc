#include "common/exact_sum.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace svc {

namespace {

using U128 = unsigned __int128;

constexpr int64_t kBase = int64_t{1} << 32;
constexpr int64_t kHalfBase = int64_t{1} << 31;

/// Carries c[0..last) into balanced digits in [-2^31, 2^31); whatever
/// remains lands in c[last].
void CarryBalanced(int64_t* c, int last) {
  for (int i = 0; i < last; ++i) {
    // >> on a negative int64 is an arithmetic (floor) shift with g++.
    const int64_t carry = (c[i] + kHalfBase) >> 32;
    c[i] -= carry * kBase;
    c[i + 1] += carry;
  }
}

}  // namespace

void ExactSum::Add(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint32_t biased = static_cast<uint32_t>(bits >> 52) & 0x7ff;
  uint64_t mant = bits & ((uint64_t{1} << 52) - 1);
  const bool neg = (bits >> 63) != 0;
  if (biased == 0x7ff) {
    specials_ |= mant != 0 ? kNaN : (neg ? kNegInf : kPosInf);
    return;
  }
  // x = mant · 2^(pos − 1074): subnormals sit at pos 0 without the
  // implicit bit.
  uint32_t pos = 0;
  if (biased != 0) {
    mant |= uint64_t{1} << 52;
    pos = biased - 1;
  } else if (mant == 0) {
    return;
  }
  const uint32_t idx = pos >> 5;
  const U128 wide = static_cast<U128>(mant) << (pos & 31);
  const int64_t lo = static_cast<int64_t>(static_cast<uint64_t>(wide) & 0xffffffffu);
  const int64_t mid =
      static_cast<int64_t>(static_cast<uint64_t>(wide >> 32) & 0xffffffffu);
  const int64_t hi = static_cast<int64_t>(static_cast<uint64_t>(wide >> 64));
  if (neg) {
    chunk_[idx] -= lo;
    chunk_[idx + 1] -= mid;
    chunk_[idx + 2] -= hi;
  } else {
    chunk_[idx] += lo;
    chunk_[idx + 1] += mid;
    chunk_[idx + 2] += hi;
  }
  CountTerm();
}

void ExactSum::AddProduct(double a, double b) {
  const double p = a * b;
  Add(p);
  // The error of a finite product is itself a double (barring underflow).
  if (std::isfinite(p)) Add(std::fma(a, b, -p));
}

void ExactSum::Add(const ExactSum& other) {
  specials_ |= other.specials_;
  // |chunk| <= (pending + 1) · 2^32 on each side; keep the sum in range.
  if (pending_ + other.pending_ + 1 < kMaxPending) {
    for (int i = 0; i < kChunks; ++i) chunk_[i] += other.chunk_[i];
    pending_ += other.pending_ + 1;
    return;
  }
  ExactSum rhs = other;
  rhs.Normalize();
  Normalize();
  for (int i = 0; i < kChunks; ++i) chunk_[i] += rhs.chunk_[i];
  pending_ = 1;
}

void ExactSum::Add(const Partial& p) {
  specials_ |= p.specials_;
  for (const Partial::Digit& d : p.digits_) chunk_[d.index] += d.value;
  CountTerm();
}

void ExactSum::Normalize() {
  CarryBalanced(chunk_, kChunks - 1);
  pending_ = 0;
}

ExactSum::Partial ExactSum::Compact() const {
  ExactSum n = *this;
  n.Normalize();
  Partial p;
  p.specials_ = specials_;
  for (int i = 0; i < kChunks; ++i) {
    if (n.chunk_[i] != 0) {
      p.digits_.push_back({n.chunk_[i], static_cast<uint32_t>(i)});
    }
  }
  return p;
}

double ExactSum::Round() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if ((specials_ & kNaN) != 0 ||
      ((specials_ & kPosInf) != 0 && (specials_ & kNegInf) != 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if ((specials_ & kPosInf) != 0) return kInf;
  if ((specials_ & kNegInf) != 0) return -kInf;

  int64_t c[kChunks];
  std::memcpy(c, chunk_, sizeof(c));
  CarryBalanced(c, kChunks - 1);
  // With balanced digits the top nonzero digit carries the sign.
  int top = kChunks - 1;
  while (top >= 0 && c[top] == 0) --top;
  if (top < 0) return 0.0;
  const bool neg = c[top] < 0;
  if (neg) {
    for (int i = 0; i <= top; ++i) c[i] = -c[i];
  }
  // Unsigned digits in [0, 2^32) below the top: the magnitude's bits.
  for (int i = 0; i < top; ++i) {
    const int64_t carry = c[i] >> 32;
    c[i] -= carry * kBase;
    c[i + 1] += carry;
  }
  while (c[top] == 0) --top;
  const double sign = neg ? -1.0 : 1.0;
  // The top chunk weighs 2^1038: anything there is past the double range.
  if (top == kChunks - 1) return sign * kInf;

  const int high_bit =
      32 * top + 63 - __builtin_clzll(static_cast<uint64_t>(c[top]));
  if (high_bit <= 52) {
    // Below 2^-1021: an exact multiple of 2^-1074 in at most 53 bits.
    uint64_t v = static_cast<uint64_t>(c[0]);
    if (top >= 1) v |= static_cast<uint64_t>(c[1]) << 32;
    return sign * std::ldexp(static_cast<double>(v), -1074);
  }
  // The 64 bits of the magnitude starting at bit `pos`.
  auto bits_at = [&](int pos) {
    const int j = pos >> 5;
    U128 w = 0;
    for (int k = 2; k >= 0; --k) {
      w <<= 32;
      if (j + k <= top) w |= static_cast<uint64_t>(c[j + k]);
    }
    return static_cast<uint64_t>(w >> (pos & 31));
  };
  int shift = high_bit - 52;
  uint64_t mant = bits_at(shift) & ((uint64_t{1} << 53) - 1);
  const int round_pos = shift - 1;
  const bool round_bit = (bits_at(round_pos) & 1) != 0;
  bool sticky = (c[round_pos >> 5] &
                 ((int64_t{1} << (round_pos & 31)) - 1)) != 0;
  for (int i = 0; !sticky && i < (round_pos >> 5); ++i) sticky = c[i] != 0;
  if (round_bit && (sticky || (mant & 1) != 0)) {
    ++mant;
    if ((mant >> 53) != 0) {
      mant >>= 1;
      ++shift;
    }
  }
  const int exp2 = shift - 1074;
  if (exp2 > 1023 - 52) return sign * kInf;
  return sign * std::ldexp(static_cast<double>(mant), exp2);
}

}  // namespace svc
