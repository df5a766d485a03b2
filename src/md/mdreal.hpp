// mdreal<N>: a multiple-double real number — the unevaluated sum of N
// doubles ("limbs"), most significant first, kept in renormalized form
// (each limb is at most half an ulp of its predecessor).  N = 2, 4, 8
// correspond to the paper's double double, quad double and octo double
// precisions (roughly 32, 64 and 128 decimal digits); any N >= 1 works,
// which the tests exercise at N = 3, 5, 6 and 16.
//
// The arithmetic is the fixed operation sequences of CAMPARY
// (Joldes-Muller-Popescu, "Arithmetic algorithms for extended precision
// using floating-point expansions", IEEE TC 2016), whose cost the paper's
// Table 1 counts (DESIGN.md §10):
//   * addition merges the two limb sequences by magnitude and
//     renormalizes (VecSum + VecSumErrBranch, expn::renorm);
//   * multiplication deposits the error-free limb products of every
//     order below N, and the plain products of order N, into fixed
//     45-bit exponent bins, then renormalizes the bins;
//   * a double operand is the one-limb case of the same two routines;
//   * division is long division with N+1 quotient digits, combined by
//     one renormalization; square root (functions.hpp) is Newton's
//     iteration from a double seed.
// Power-of-two operand scaling keeps the product bins and the Veltkamp
// split in range over the whole double range; overflow gives +-inf, and
// Inf/NaN operands propagate as in IEEE double arithmetic.  The exact
// expansion engine (expansion.hpp) is not on the arithmetic path: it is
// the comparison operators' exact difference and the tests' oracle.
//
// Every public arithmetic operator reports itself to the thread-local
// operation tally (op_counts.hpp) so kernels can be costed with the
// paper's Table 1 multipliers.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

#include "eft.hpp"
#include "expansion.hpp"
#include "op_counts.hpp"

namespace mdlsq::md {

namespace detail {

// floor(log2|v|) for a normal double, read from the exponent field;
// -1023 for zero and subnormals.
inline int exponent_of(double v) noexcept {
  return static_cast<int>((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7ff) -
         1023;
}

// 2^k exactly, for k in [-1074, 1023].
inline double pow2(int k) noexcept {
  return k >= -1022
             ? std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52)
             : std::bit_cast<double>(std::uint64_t{1} << (k + 1074));
}

// xs = x * 2^-e with the head x[0] (nonzero, finite) landing in [1, 2);
// returns e.  Exact, except for limbs so far below the head that they
// underflow, which lie beyond every product bin anyway.  A subnormal
// head is first lifted by 2^64 so the scale factor stays representable.
template <int K>
int scale_to_unit(const double* x, double* xs) noexcept {
  const int lift = exponent_of(x[0]) == -1023 ? 64 : 0;
  const int e = exponent_of(x[0] * pow2(lift)) - lift;
  const double up = pow2(lift), s = pow2(-e - lift);
  for (int i = 0; i < K; ++i) xs[i] = x[i] * up * s;
  return e;
}

// r[0..K) *= 2^e for e in [-2148, 2046], through at most two exact
// power-of-two factors.  The head rounds at most once (only when the
// result overflows or is subnormal).
template <int K>
void scale_by_pow2(double* r, int e) noexcept {
  const int e1 = std::clamp(e, -1022, 1023);
  const int e2 = std::max(e - e1, -1074);
  const double s1 = pow2(e1);
  for (int i = 0; i < K; ++i) r[i] *= s1;
  if (e2 != 0) {
    const double s2 = pow2(e2);
    for (int i = 0; i < K; ++i) r[i] *= s2;
  }
}

// CAMPARY addition (Joldes-Muller-Popescu, IEEE TC 2016): merge the
// N-limb x and the M-limb y (M = N, or 1 for a double operand) by
// decreasing magnitude, then renormalize to N limbs with VecSum +
// VecSumErrBranch (expn::renorm).  Every step is error-free two_sum
// arithmetic; the only rounding is the truncation to N limbs.
template <int N, int M>
void merge_add(const double* x, const double* y, double* out) noexcept {
  double t[N + M];
  int i = 0, j = 0, k = 0;
  while (i < N && j < M)
    t[k++] = std::fabs(x[i]) >= std::fabs(y[j]) ? x[i++] : y[j++];
  while (i < N) t[k++] = x[i++];
  while (j < M) t[k++] = y[j++];
  expn::renorm(t, N + M, out, N);
}

// Bin geometry of CAMPARY's multiplication: bins kBinBits = 45 bits
// apart, bin k anchored at 1.5 * 2^(52 - 45 (k+1)) for a product whose
// operand heads lie in [1, 2).  An anchored bin keeps a fixed ulp of
// 2^-45(k+1) while its payload stays below 2^(51 - 45(k+1)), i.e. it is
// a 51-bit fixed-point accumulator overlapping the next bin by
// 53 - 45 - 1 = 7 carry bits.
inline constexpr int kBinBits = 45;

template <int N>
inline constexpr int kProductBins = N * 53 / kBinBits + 2;

template <int N>
inline constexpr auto kBinAnchors = [] {
  std::array<double, kProductBins<N> + 3> a{};
  double v = 1.5;
  for (int i = 0; i < 52 - kBinBits; ++i) v *= 2.0;
  for (auto& x : a) {
    x = v;
    for (int i = 0; i < kBinBits; ++i) v *= 0.5;
  }
  return a;
}();

// CAMPARY multiplication (Joldes-Muller-Popescu, IEEE TC 2016, Alg. 6-7)
// of the N-limb x by the M-limb y (M = N, or 1 for a double operand),
// rounded to N limbs.  The operands are scaled by exact powers of two so
// both heads lie in [1, 2): the bins and the Veltkamp split then stay in
// range over the whole double range, and the anchors are constants.
// Every error-free product a_i * b_j with i + j < N, and the plain
// product on i + j = N, is deposited into the bins by its exponent
// distance l = -(e_i + e_j) from the head product: P into bins
// sh = l / 45 .. sh+2 and its error E into sh+1 .. sh+3, by fast_two_sum
// down the chain and a plain add at the last bin.  Each deposit is exact
// (P's and E's lowest bits are >= 2^(-l-104), the last bins' ulps are
// smaller), so the only roundings are the products on i + j = N, the
// parts falling beyond the last bin (below 2^-(53N+45) of the product,
// caught by three guard bins and dropped) and the final truncation.
template <int N, int M>
void binned_mul(const double* x, const double* y, double* out) noexcept {
  constexpr int kBins = kProductBins<N>;
  constexpr const auto& anchor = kBinAnchors<N>;
  double xs[N], ys[M];
  int ex[N], ey[M];
  const int scale = scale_to_unit<N>(x, xs) + scale_to_unit<M>(y, ys);
  for (int i = 0; i < N; ++i) ex[i] = exponent_of(xs[i]);
  for (int j = 0; j < M; ++j) ey[j] = exponent_of(ys[j]);

  double bin[kBins + 3];
  for (int k = 0; k < kBins + 3; ++k) bin[k] = anchor[k];
  // Exponent distance of a_i * b_j below the head product, or -1 when
  // the term lies beyond the last bin (zero and underflowed limbs too).
  const auto distance = [&](int i, int j) {
    const unsigned l = static_cast<unsigned>(-ex[i] - ey[j]);
    return l < unsigned{kBins * kBinBits} ? static_cast<int>(l) : -1;
  };
  for (int d = 0; d < N; ++d) {
    for (int i = d < M ? 0 : d - M + 1; i <= d; ++i) {
      const int l = distance(i, d - i);
      if (l < 0) continue;
      double p, e;
      two_prod(xs[i], ys[d - i], p, e);
      double* b = bin + l / kBinBits;
      quick_two_sum(b[0], p, b[0], p);
      quick_two_sum(b[1], p, b[1], p);
      b[2] += p;
      quick_two_sum(b[1], e, b[1], e);
      quick_two_sum(b[2], e, b[2], e);
      b[3] += e;
    }
  }
  for (int i = N - M + 1; i < N; ++i) {
    const int l = distance(i, N - i);
    if (l < 0) continue;
    double p = xs[i] * ys[N - i];
    double* b = bin + l / kBinBits;
    quick_two_sum(b[0], p, b[0], p);
    quick_two_sum(b[1], p, b[1], p);
    b[2] += p;
  }
  for (int k = 0; k < kBins; ++k) bin[k] -= anchor[k];
  expn::renorm(bin, kBins, out, N);
  scale_by_pow2<N>(out, scale);
}

}  // namespace detail

template <int N>
class mdreal {
  static_assert(N >= 1, "a multiple double has at least one limb");

 public:
  static constexpr int limbs = N;

  constexpr mdreal() = default;
  constexpr mdreal(double d) : x_{} { x_[0] = d; }  // NOLINT: implicit by design
  constexpr mdreal(int i) : mdreal(static_cast<double>(i)) {}

  // Unit roundoff of the format: adding anything smaller than eps()*|x|
  // to x is invisible.  2^(2-53N): 2^-104 for double double (QDlib's
  // value), 2^-210 for quad double, 2^-422 for octo double.
  static constexpr double eps() noexcept {
    double e = 4.0;
    for (int i = 0; i < 53 * N; ++i) e *= 0.5;
    return e;
  }

  // --- limb access -------------------------------------------------------
  constexpr double limb(int i) const noexcept { return x_[i]; }
  constexpr void set_limb(int i, double v) noexcept { x_[i] = v; }

  // Builds from limbs already in renormalized, most-significant-first
  // order (e.g. gathered back from staged device arrays).  Trusted input.
  static constexpr mdreal from_limbs(const double* p) noexcept {
    mdreal r;
    for (int i = 0; i < N; ++i) r.x_[i] = p[i];
    return r;
  }

  // Builds from K arbitrary doubles of roughly decreasing magnitude,
  // renormalizing.  K <= 2N.
  static mdreal renormalized(const double* terms, int k) noexcept {
    double buf[2 * N];
    for (int i = 0; i < k; ++i) buf[i] = terms[i];
    mdreal r;
    expn::renorm(buf, k, r.x_.data(), N);
    return r;
  }

  void store(double* p) const noexcept {
    for (int i = 0; i < N; ++i) p[i] = x_[i];
  }

  // Precision conversion: exact when widening (zero-extend), faithful
  // truncation when narrowing (limbs are renormalized, so dropping the
  // tail loses less than one ulp of the last kept limb).  The mixed
  // precision refinement solver relies on both directions.
  template <int M>
  constexpr mdreal<M> to_precision() const noexcept {
    mdreal<M> r;
    for (int i = 0; i < (M < N ? M : N); ++i) r.set_limb(i, x_[i]);
    return r;
  }

  // --- conversions and predicates ----------------------------------------
  constexpr double to_double() const noexcept { return x_[0]; }
  constexpr explicit operator double() const noexcept { return x_[0]; }

  constexpr bool is_zero() const noexcept {
    for (int i = 0; i < N; ++i)
      if (x_[i] != 0.0) return false;
    return true;
  }
  constexpr bool is_negative() const noexcept { return x_[0] < 0.0; }
  bool isfinite() const noexcept { return std::isfinite(x_[0]); }
  bool isnan() const noexcept { return std::isnan(x_[0]); }

  // --- unary -------------------------------------------------------------
  constexpr mdreal operator-() const noexcept {
    mdreal r;
    for (int i = 0; i < N; ++i) r.x_[i] = -x_[i];
    return r;
  }
  constexpr mdreal operator+() const noexcept { return *this; }

  // --- arithmetic (counting wrappers around the _impl kernels) ------------
  friend mdreal operator+(const mdreal& a, const mdreal& b) noexcept {
    detail::count_add();
    return add_impl(a, b);
  }
  friend mdreal operator-(const mdreal& a, const mdreal& b) noexcept {
    detail::count_sub();
    return add_impl(a, -b);
  }
  friend mdreal operator*(const mdreal& a, const mdreal& b) noexcept {
    detail::count_mul();
    return mul_impl(a, b);
  }
  friend mdreal operator/(const mdreal& a, const mdreal& b) noexcept {
    detail::count_div();
    return div_impl(a, b);
  }

  // Mixed double operands (cheaper kernels; counted at the same Table 1
  // rate as full multiple-double operations, as in the paper's tallies).
  friend mdreal operator+(const mdreal& a, double b) noexcept {
    detail::count_add();
    return add_double_impl(a, b);
  }
  friend mdreal operator+(double a, const mdreal& b) noexcept { return b + a; }
  friend mdreal operator-(const mdreal& a, double b) noexcept {
    detail::count_sub();
    return add_double_impl(a, -b);
  }
  friend mdreal operator-(double a, const mdreal& b) noexcept {
    detail::count_sub();
    return add_double_impl(-b, a);
  }
  friend mdreal operator*(const mdreal& a, double b) noexcept {
    detail::count_mul();
    return mul_double_impl(a, b);
  }
  friend mdreal operator*(double a, const mdreal& b) noexcept { return b * a; }
  friend mdreal operator/(const mdreal& a, double b) noexcept {
    detail::count_div();
    return div_impl(a, mdreal(b));
  }
  friend mdreal operator/(double a, const mdreal& b) noexcept {
    detail::count_div();
    return div_impl(mdreal(a), b);
  }

  mdreal& operator+=(const mdreal& o) noexcept { return *this = *this + o; }
  mdreal& operator-=(const mdreal& o) noexcept { return *this = *this - o; }
  mdreal& operator*=(const mdreal& o) noexcept { return *this = *this * o; }
  mdreal& operator/=(const mdreal& o) noexcept { return *this = *this / o; }
  mdreal& operator+=(double o) noexcept { return *this = *this + o; }
  mdreal& operator-=(double o) noexcept { return *this = *this - o; }
  mdreal& operator*=(double o) noexcept { return *this = *this * o; }
  mdreal& operator/=(double o) noexcept { return *this = *this / o; }

  // Exact scaling by a power of two (no rounding, no renormalization
  // needed because every limb scales by the same factor).
  friend mdreal ldexp(const mdreal& a, int e) noexcept {
    mdreal r;
    for (int i = 0; i < N; ++i) r.x_[i] = std::ldexp(a.x_[i], e);
    return r;
  }

  // --- comparisons ---------------------------------------------------------
  // Renormalized form makes the leading limb carry the sign and magnitude,
  // so the leading limb of the EXACT difference is decisive.  It comes
  // from the exact expansion oracle, not the fast add, so exactness holds
  // by construction whatever the gap between the operands' limbs.
  friend bool operator==(const mdreal& a, const mdreal& b) noexcept {
    return add_exact_oracle(a, -b).is_zero();
  }
  friend std::strong_ordering operator<=>(const mdreal& a,
                                          const mdreal& b) noexcept {
    const double d = add_exact_oracle(a, -b).x_[0];
    if (d < 0.0) return std::strong_ordering::less;
    if (d > 0.0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  friend bool operator==(const mdreal& a, double b) noexcept {
    return a == mdreal(b);
  }
  friend std::strong_ordering operator<=>(const mdreal& a, double b) noexcept {
    return a <=> mdreal(b);
  }

  friend mdreal abs(const mdreal& a) noexcept {
    return a.is_negative() ? -a : a;
  }
  friend mdreal fabs(const mdreal& a) noexcept { return abs(a); }

  // --- the arithmetic kernels (non-counting; also used internally) --------
  // Fixed CAMPARY sequences (detail::merge_add / detail::binned_mul
  // below); IEEE specials and overflow are settled on the leading limbs.
  static mdreal add_impl(const mdreal& a, const mdreal& b) noexcept {
    if constexpr (N == 1) {
      return mdreal(a.x_[0] + b.x_[0]);
    } else {
      if (!a.isfinite() || !b.isfinite()) return mdreal(a.x_[0] + b.x_[0]);
      mdreal r;
      detail::merge_add<N, N>(a.x_.data(), b.x_.data(), r.x_.data());
      return r.overflowed(a.x_[0] + b.x_[0]);
    }
  }

  static mdreal add_double_impl(const mdreal& a, double b) noexcept {
    if constexpr (N == 1) {
      return mdreal(a.x_[0] + b);
    } else {
      if (!a.isfinite() || !std::isfinite(b)) return mdreal(a.x_[0] + b);
      mdreal r;
      detail::merge_add<N, 1>(a.x_.data(), &b, r.x_.data());
      return r.overflowed(a.x_[0] + b);
    }
  }

  static mdreal mul_impl(const mdreal& a, const mdreal& b) noexcept {
    if constexpr (N == 1) {
      return mdreal(a.x_[0] * b.x_[0]);
    } else {
      if (!a.isfinite() || !b.isfinite() || a.x_[0] == 0.0 || b.x_[0] == 0.0)
        return mdreal(a.x_[0] * b.x_[0]);
      mdreal r;
      detail::binned_mul<N, N>(a.x_.data(), b.x_.data(), r.x_.data());
      return r.overflowed(r.x_[0]);
    }
  }

  static mdreal mul_double_impl(const mdreal& a, double b) noexcept {
    if constexpr (N == 1) {
      return mdreal(a.x_[0] * b);
    } else {
      if (!a.isfinite() || !std::isfinite(b) || a.x_[0] == 0.0 || b == 0.0)
        return mdreal(a.x_[0] * b);
      mdreal r;
      detail::binned_mul<N, 1>(a.x_.data(), &b, r.x_.data());
      return r.overflowed(r.x_[0]);
    }
  }

  static mdreal div_impl(const mdreal& a, const mdreal& b) noexcept {
    if (!a.isfinite() || !b.isfinite() || b.x_[0] == 0.0)
      return mdreal(a.x_[0] / b.x_[0]);
    // Long division: peel off one quotient digit per step, subtracting
    // q_k * b from the running remainder at full precision.  The digits
    // decrease by ~2^-52 each, so one renormalization combines them.
    double q[N + 1];
    mdreal r = a;
    for (int k = 0; k <= N; ++k) {
      q[k] = r.x_[0] / b.x_[0];
      if (!std::isfinite(q[k])) return mdreal(q[0]);  // overflow
      if (k < N) r = add_impl(r, -mul_double_impl(b, q[k]));
    }
    mdreal out;
    expn::renorm(q, N + 1, out.x_.data(), N);
    return out;
  }

  // Exact sum via the expansion engine: the comparison operators' engine
  // and the tests' oracle for the rounding error of the kernels above.
  static mdreal add_exact_oracle(const mdreal& a, const mdreal& b) noexcept {
    if (!a.isfinite() || !b.isfinite()) return mdreal(a.x_[0] + b.x_[0]);
    double t[2 * N], h[2 * N];
    int k = 0;
    for (int i = 0; i < N; ++i) t[k++] = a.x_[i];
    for (int i = 0; i < N; ++i) t[k++] = b.x_[i];
    const int len = expn::sum_terms(t, k, h);
    mdreal r;
    expn::extract(h, len, r.x_.data(), N);
    return r;
  }

 private:
  // A leading limb that overflowed in a kernel becomes the IEEE result:
  // +-inf (sign of `dir`) in limb 0, zeros below, never NaN.
  mdreal overflowed(double dir) const noexcept {
    if (std::isfinite(x_[0])) return *this;
    return mdreal(std::copysign(std::numeric_limits<double>::infinity(), dir));
  }

  std::array<double, N> x_{};
};

using dd_real = mdreal<2>;  // ~31.9 decimal digits
using qd_real = mdreal<4>;  // ~63.8 decimal digits
using od_real = mdreal<8>;  // ~127.6 decimal digits

// The precision enum of the cost model maps onto these types.
template <Precision P>
using real_of = mdreal<static_cast<int>(P)>;

}  // namespace mdlsq::md
