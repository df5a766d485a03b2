// Differential test of the mdreal<N> kernels against the exact expansion
// oracle: add, sub, mul and div for N = 2, 3, 4, 5, 6, 8, 16 over input
// families chosen to break fixed-sequence arithmetic —
//
//   * random limbs with heads across exponents +-1000,
//   * adversarial cancellation: a + (-a with its last limb perturbed),
//   * multipliers 1 - 2^-k, whose low limbs sit far below the nominal
//     2^-53 i pattern,
//   * gapped limbs far below the head,
//   * maximum-magnitude limbs that load every product bin (N = 16).
//
// Errors are measured exactly: the kernel's result is folded into the
// oracle's exact sum, product or residual expansion, and the leading
// component of what remains is the error.  The bounds are the suite's
// tol() at the scale of the operands (both sides scaled by the same
// power of two, which is exact).
//
// Seeded and time-bounded: each (N, family) case runs up to kMaxIters
// draws, stopping early once its share of the time budget is spent but
// never before kMinIters, so sanitizer builds stay fast and keep
// coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <vector>

#include "md/expansion.hpp"
#include "md/mdreal.hpp"
#include "md/random.hpp"
#include "support/test_support.hpp"

using mdlsq::md::mdreal;
using mdlsq::test_support::expect_renormalized;
using mdlsq::test_support::tol;

namespace {

constexpr int kMinIters = 40;
constexpr int kMaxIters = 400;
constexpr double kBudgetSeconds = 0.15;  // per (N, family) case

class Deadline {
 public:
  bool more(int it) const {
    if (it < kMinIters) return true;
    if (it >= kMaxIters) return false;
    return std::chrono::duration<double>(Clock::now() - start_).count() <
           kBudgetSeconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

// Magnitude of the leading component of the exact sum of the terms.
double exact_sum_mag(std::vector<double> t) {
  std::vector<double> h(t.size() + 1);
  const int len = mdlsq::md::expn::sum_terms(t.data(), int(t.size()), h.data());
  return len > 0 ? std::fabs(h[len - 1]) : 0.0;
}

template <int N>
void append(std::vector<double>& t, const mdreal<N>& x, double sign = 1.0) {
  for (int i = 0; i < N; ++i) t.push_back(sign * x.limb(i));
}

// Appends sign * x * y exactly (every limb pair's product and error).
template <int N>
void append_product(std::vector<double>& t, const mdreal<N>& x,
                    const mdreal<N>& y, double sign = 1.0) {
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j) {
      double p, e;
      mdlsq::md::two_prod(x.limb(i), y.limb(j), p, e);
      t.push_back(sign * p);
      t.push_back(sign * e);
    }
}

int head_exponent(double v) { return std::ilogb(v); }

// |(a + b) - fast| <= tol(a, b), at the scale of the larger operand.
template <int N>
void check_add(const mdreal<N>& a, const mdreal<N>& b, const char* family) {
  const mdreal<N> s = a + b, d = a - b;
  const int e = std::max(head_exponent(a.to_double()),
                         head_exponent(b.to_double()));
  const double bound = tol(ldexp(a, -e), ldexp(b, -e));
  std::vector<double> t;
  append(t, a);
  append(t, b);
  append(t, s, -1.0);
  EXPECT_LE(std::ldexp(exact_sum_mag(t), -e), bound)
      << family << " add N=" << N;
  t.clear();
  append(t, a);
  append(t, b, -1.0);
  append(t, d, -1.0);
  EXPECT_LE(std::ldexp(exact_sum_mag(t), -e), bound)
      << family << " sub N=" << N;
  expect_renormalized(s);
  expect_renormalized(d);
}

// Operands scaled to unit heads (exact), so the oracle's limb products
// stay in range; the result is scaled back by the same power of two.
template <int N>
void check_mul_div(const mdreal<N>& a, const mdreal<N>& b,
                   const char* family) {
  const int ea = head_exponent(a.to_double());
  const int eb = head_exponent(b.to_double());
  const mdreal<N> as = ldexp(a, -ea), bs = ldexp(b, -eb);

  const mdreal<N> ps = ldexp(a * b, -(ea + eb));
  std::vector<double> t;
  append_product(t, as, bs);
  append(t, ps, -1.0);
  EXPECT_LE(exact_sum_mag(t), tol(ps, ps, 16.0)) << family << " mul N=" << N;
  expect_renormalized(a * b);

  // Division: the residual a - q b is exact, |q - a/b| = |a - q b| / |b|.
  const mdreal<N> qs = ldexp(a / b, -(ea - eb));
  t.clear();
  append(t, as);
  append_product(t, qs, bs, -1.0);
  EXPECT_LE(exact_sum_mag(t) / std::fabs(bs.to_double()), tol(qs, qs, 16.0))
      << family << " div N=" << N;
}

// Random limbs with the head at 2^e.
template <int N, class Urbg>
mdreal<N> random_at(Urbg& gen, int e) {
  return ldexp(mdlsq::md::random_uniform<N>(gen), e);
}

template <class T>
class MdDifferential : public ::testing::Test {};

using Sizes = ::testing::Types<mdreal<2>, mdreal<3>, mdreal<4>, mdreal<5>,
                               mdreal<6>, mdreal<8>, mdreal<16>>;
TYPED_TEST_SUITE(MdDifferential, Sizes);

TYPED_TEST(MdDifferential, RandomLimbsAcrossTheExponentRange) {
  constexpr int N = TypeParam::limbs;
  std::mt19937_64 gen(1000 + N);
  std::uniform_int_distribution<int> wide(-1000, 1000), near(-60, 60);
  // Operand heads in [-h, h] keep product and quotient heads at or
  // above 2^(-1000 + 53 N), where all N result limbs are normal.
  std::uniform_int_distribution<int> half((-1000 + 53 * N) / 2,
                                          (1000 - 53 * N) / 2);
  const Deadline dl;
  for (int it = 0; dl.more(it); ++it) {
    const int ea = wide(gen);
    const int eb = it % 2 ? wide(gen) : std::clamp(ea + near(gen), -1000, 1000);
    check_add(random_at<N>(gen, ea), random_at<N>(gen, eb), "random");
    check_mul_div(random_at<N>(gen, half(gen)), random_at<N>(gen, half(gen)),
                  "random");
  }
}

TYPED_TEST(MdDifferential, AdversarialCancellation) {
  constexpr int N = TypeParam::limbs;
  std::mt19937_64 gen(2000 + N);
  std::uniform_int_distribution<int> shift(1, 52), ex(-900, 900);
  const Deadline dl;
  for (int it = 0; dl.more(it); ++it) {
    const int e = ex(gen);
    const TypeParam a = random_at<N>(gen, e);
    TypeParam b = -a;
    const double last = a.limb(N - 1);
    b.set_limb(N - 1, -last + std::ldexp(last, -shift(gen)));
    check_add(a, b, "cancel");
    // The exact sum, a perturbation of the last limb, is one double:
    // the kernel must return it exactly.
    std::vector<double> t;
    append(t, a);
    append(t, b);
    append(t, a + b, -1.0);
    EXPECT_EQ(exact_sum_mag(t), 0.0) << "cancel exact N=" << N;
    check_mul_div(ldexp(a, -e), ldexp(b, -e), "cancel");  // product in range
  }
}

TYPED_TEST(MdDifferential, OneMinusPowerOfTwoMultipliers) {
  constexpr int N = TypeParam::limbs;
  std::mt19937_64 gen(3000 + N);
  std::uniform_int_distribution<int> k(1, 53 * N + 40);
  const Deadline dl;
  for (int it = 0; dl.more(it); ++it) {
    const TypeParam m = TypeParam(1.0) - TypeParam(std::ldexp(1.0, -k(gen)));
    const TypeParam b = mdlsq::md::random_uniform<N>(gen);
    check_mul_div(m, b, "1-2^-k");
    check_mul_div(b, m, "1-2^-k");
    check_add(m, -b, "1-2^-k");
  }
}

// Renormalized limbs with random gaps of up to 200 bits between them.
template <int N, class Urbg>
mdreal<N> gapped(Urbg& gen) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> gap(0, 200);
  double limbs[N] = {};
  limbs[0] = 1.0 + 0.5 * u(gen);
  for (int i = 1; i < N; ++i) {
    const int e = head_exponent(limbs[i - 1]) - 53 - gap(gen);
    if (e < -900) break;
    limbs[i] = std::ldexp(u(gen), e);
  }
  return mdreal<N>::from_limbs(limbs);
}

TYPED_TEST(MdDifferential, LowLimbsFarBelowTheHead) {
  constexpr int N = TypeParam::limbs;
  std::mt19937_64 gen(4000 + N);
  const Deadline dl;
  for (int it = 0; dl.more(it); ++it) {
    const TypeParam a = gapped<N>(gen);
    const TypeParam b = it % 2 ? gapped<N>(gen)
                               : mdlsq::md::random_uniform<N>(gen);
    check_add(a, b, "gapped");
    check_add(a, -a + b * std::ldexp(1.0, -300), "gapped");
    check_mul_div(a, b, "gapped");
  }
}

}  // namespace

// The heaviest bin load: every limb at the top of its binade, all of one
// sign, at N = 16 — the largest supported count, whose products fill
// every bin.  Two patterns: limbs exactly half an ulp of their
// predecessor, and limbs one binade lower with full mantissas.
TEST(MdDifferentialBins, MaximumMagnitudeLimbsLoadEveryBin) {
  constexpr int N = 16;
  double half_ulp[N], full[N];
  half_ulp[0] = full[0] = 2.0 - std::ldexp(1.0, -52);
  for (int i = 1; i < N; ++i) {
    half_ulp[i] = std::ldexp(1.0, std::ilogb(half_ulp[i - 1]) - 53);
    full[i] = std::ldexp(2.0 - std::ldexp(1.0, -52), std::ilogb(full[i - 1]) - 54);
  }
  const auto a = mdreal<N>::from_limbs(half_ulp);
  const auto b = mdreal<N>::from_limbs(full);
  for (const auto& x : {a, b, -a})
    for (const auto& y : {a, b}) {
      check_mul_div(x, y, "max-magnitude");
      check_add(x, y, "max-magnitude");
    }
}
