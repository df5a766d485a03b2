// mdreal<N> arithmetic: accuracy against the exact-expansion oracle,
// algebraic identities at working precision, renormalization invariants,
// comparisons, and special-value behaviour — for N = 2, 3, 4, 5, 6, 8, 16
// (the paper's double double / quad double / octo double, the largest
// supported count, and sizes proving the engine is not specialized to
// powers of two).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "md/expansion.hpp"
#include "md/mdreal.hpp"
#include "md/random.hpp"
#include "support/test_support.hpp"

using mdlsq::md::mdreal;
using mdlsq::test_support::expect_renormalized;
using mdlsq::test_support::mag;
using mdlsq::test_support::tol;

template <class T>
class MdRealTest : public ::testing::Test {};

using Sizes = ::testing::Types<mdreal<2>, mdreal<3>, mdreal<4>, mdreal<5>,
                               mdreal<6>, mdreal<8>, mdreal<16>>;
TYPED_TEST_SUITE(MdRealTest, Sizes);

TYPED_TEST(MdRealTest, EpsMatchesLimbCount) {
  // eps = 2^(2-53N)
  EXPECT_DOUBLE_EQ(TypeParam::eps(), std::ldexp(1.0, 2 - 53 * TypeParam::limbs));
}

TYPED_TEST(MdRealTest, ConstructionAndConversion) {
  TypeParam x(3.5);
  EXPECT_EQ(x.to_double(), 3.5);
  EXPECT_EQ(x.limb(0), 3.5);
  for (int i = 1; i < TypeParam::limbs; ++i) EXPECT_EQ(x.limb(i), 0.0);
  EXPECT_TRUE(TypeParam().is_zero());
  EXPECT_FALSE(x.is_zero());
  EXPECT_TRUE(TypeParam(-1.0).is_negative());
}

TYPED_TEST(MdRealTest, AdditionMatchesExactOracle) {
  std::mt19937_64 gen(11);
  for (int it = 0; it < 500; ++it) {
    auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto b = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto fast = a + b;
    auto exact = TypeParam::add_exact_oracle(a, b);
    auto diff = fast - exact;
    EXPECT_LE(mag(diff), tol(a, b)) << "iteration " << it;
    expect_renormalized(fast);
  }
}

TYPED_TEST(MdRealTest, AddSubRoundTrip) {
  std::mt19937_64 gen(12);
  for (int it = 0; it < 300; ++it) {
    auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto b = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto r = (a + b) - b - a;
    EXPECT_LE(mag(r), tol(a, b));
  }
}

TYPED_TEST(MdRealTest, CancellationExposesLowLimbs) {
  // (1 + tiny) - 1 == tiny exactly, with tiny far below the first limb.
  const double tiny = std::ldexp(1.0, -40 * TypeParam::limbs);
  TypeParam one(1.0);
  TypeParam x = one + TypeParam(tiny);
  TypeParam d = x - one;
  EXPECT_EQ(d.to_double(), tiny);
}

TYPED_TEST(MdRealTest, MultiplicationDistributes) {
  std::mt19937_64 gen(13);
  for (int it = 0; it < 300; ++it) {
    auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto b = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto c = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto lhs = a * (b + c);
    auto rhs = a * b + a * c;
    EXPECT_LE(mag(lhs - rhs), tol(lhs, rhs, 16.0));
  }
}

TYPED_TEST(MdRealTest, MultiplicationExactOnIntegers) {
  TypeParam a(1 << 20), b(3);
  EXPECT_EQ((a * b).to_double(), 3.0 * (1 << 20));
  EXPECT_EQ((a * TypeParam(0.0)).to_double(), 0.0);
  EXPECT_EQ((a * TypeParam(1.0) - a).to_double(), 0.0);
}

TYPED_TEST(MdRealTest, DivisionInvertsMultiplication) {
  std::mt19937_64 gen(14);
  for (int it = 0; it < 300; ++it) {
    auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    auto b = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    if (std::fabs(b.to_double()) < 1e-3) continue;
    auto r = a * b / b - a;
    EXPECT_LE(mag(r), tol(a, a, 16.0));
  }
}

TYPED_TEST(MdRealTest, DivisionExactCases) {
  EXPECT_EQ((TypeParam(1.0) / TypeParam(4.0)).to_double(), 0.25);
  EXPECT_EQ((TypeParam(0.0) / TypeParam(3.0)).to_double(), 0.0);
  auto third = TypeParam(1.0) / TypeParam(3.0);
  auto back = third * TypeParam(3.0);
  EXPECT_LE(mag(back - TypeParam(1.0)), 4.0 * TypeParam::eps());
}

TYPED_TEST(MdRealTest, MixedDoubleOperands) {
  std::mt19937_64 gen(15);
  for (int it = 0; it < 200; ++it) {
    auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    const double d = 1.0 + it * 0.25;
    EXPECT_LE(mag((a + d) - (a + TypeParam(d))), tol(a, a));
    EXPECT_LE(mag((a - d) - (a - TypeParam(d))), tol(a, a));
    EXPECT_LE(mag((a * d) - (a * TypeParam(d))), tol(a, a, 16.0));
    EXPECT_LE(mag((d - a) - (TypeParam(d) - a)), tol(a, a));
  }
}

TYPED_TEST(MdRealTest, LdexpIsExact) {
  std::mt19937_64 gen(16);
  auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
  auto up = ldexp(a, 40);
  auto down = ldexp(up, -40);
  for (int i = 0; i < TypeParam::limbs; ++i)
    EXPECT_EQ(down.limb(i), a.limb(i));
}

TYPED_TEST(MdRealTest, ComparisonsAreExactOnLowLimbDifferences) {
  const double tiny = std::ldexp(1.0, -45 * TypeParam::limbs);
  TypeParam a(1.0);
  TypeParam b = a + TypeParam(tiny);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a != b);
  EXPECT_TRUE(a == a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(-b < -a);
  EXPECT_TRUE(a < 2.0);
  EXPECT_TRUE(TypeParam(2.0) == 2.0);
  // A gapped value: 1 + 2^-1000 differs from 1 only in a limb far below
  // any nominal limb position.
  if constexpr (TypeParam::limbs >= 2) {
    TypeParam g(1.0);
    g.set_limb(1, std::ldexp(1.0, -1000));
    EXPECT_TRUE(a < g);
    EXPECT_TRUE(g > a);
    EXPECT_TRUE(a != g);
    EXPECT_FALSE(a == g);
    EXPECT_TRUE(-g < -a);
  }
}

TYPED_TEST(MdRealTest, AbsAndNegation) {
  TypeParam a(-2.5);
  EXPECT_EQ(abs(a).to_double(), 2.5);
  EXPECT_EQ((-a).to_double(), 2.5);
  EXPECT_EQ(abs(TypeParam(2.5)).to_double(), 2.5);
}

TYPED_TEST(MdRealTest, NonFinitePropagation) {
  const double inf = std::numeric_limits<double>::infinity();
  TypeParam a(1.0), binf(inf);
  EXPECT_FALSE((a + binf).isfinite());
  EXPECT_FALSE((a * binf).isfinite());
  EXPECT_TRUE((a / binf).isfinite());  // 1/inf == 0
  EXPECT_EQ((a / binf).to_double(), 0.0);
  TypeParam n(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE((a + n).isnan());
  EXPECT_TRUE((a * n).isnan());
  EXPECT_TRUE((a / TypeParam(0.0)).isnan() || !(a / TypeParam(0.0)).isfinite());
}

// IEEE-faithful specials: overflow gives a signed infinity, never NaN,
// and products near the top of the range stay finite and accurate in
// every build (the non-FMA build's Veltkamp split included).
TYPED_TEST(MdRealTest, OverflowAndNearOverflowProducts) {
  const double inf = std::numeric_limits<double>::infinity();
  const TypeParam big(1e300);
  for (const auto& r : {big * TypeParam(1e10), big * 1e10}) {
    EXPECT_EQ(r.to_double(), inf);
    EXPECT_FALSE(r.isnan());
    for (int i = 1; i < TypeParam::limbs; ++i) EXPECT_EQ(r.limb(i), 0.0);
  }
  EXPECT_EQ((-big * TypeParam(1e10)).to_double(), -inf);
  EXPECT_EQ((TypeParam(std::numeric_limits<double>::max()) +
             TypeParam(std::numeric_limits<double>::max()))
                .to_double(),
            inf);

  const TypeParam third = TypeParam(1.0) / TypeParam(3.0);
  for (const double x : {std::numeric_limits<double>::max(), 1e307}) {
    const TypeParam r = TypeParam(x) * third;
    ASSERT_TRUE(r.isfinite()) << x;
    // Scaling by a power of two is exact, so the product must equal the
    // same product taken at unit scale, scaled back.
    const int e = std::ilogb(x);
    const TypeParam unit = TypeParam(std::ldexp(x, -e)) * third;
    for (int i = 0; i < TypeParam::limbs; ++i)
      EXPECT_EQ(r.limb(i), std::ldexp(unit.limb(i), e)) << x << " limb " << i;
    // ... and x * (1/3) * 3 recovers x to working precision.
    const TypeParam back = ldexp(r, -e) * TypeParam(3.0);
    EXPECT_LE(mag(back - TypeParam(std::ldexp(x, -e))), tol(back, back));
  }

  // A subnormal head scales exactly too: 2^-1070 * 3 * 2^1000.
  const TypeParam tiny(std::ldexp(1.0, -1070));
  EXPECT_EQ((tiny * TypeParam(std::ldexp(3.0, 1000))).to_double(),
            std::ldexp(3.0, -70));
  EXPECT_EQ((tiny * std::ldexp(3.0, 1000)).to_double(), std::ldexp(3.0, -70));
}

TYPED_TEST(MdRealTest, RenormalizedFactory) {
  double terms[4] = {1.0, std::ldexp(1.0, -30), std::ldexp(1.0, -60),
                     std::ldexp(1.0, -90)};
  auto x = TypeParam::renormalized(terms, std::min(4, 2 * TypeParam::limbs));
  expect_renormalized(x);
  EXPECT_NEAR(x.to_double(), 1.0 + std::ldexp(1.0, -30), 1e-15);
}

TYPED_TEST(MdRealTest, StoreLoadRoundTrip) {
  std::mt19937_64 gen(17);
  auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
  double buf[TypeParam::limbs];
  a.store(buf);
  auto b = TypeParam::from_limbs(buf);
  EXPECT_TRUE(a == b);
}

TYPED_TEST(MdRealTest, CompoundAssignments) {
  TypeParam a(2.0);
  a += TypeParam(1.0);
  EXPECT_EQ(a.to_double(), 3.0);
  a -= 1.0;
  EXPECT_EQ(a.to_double(), 2.0);
  a *= TypeParam(4.0);
  EXPECT_EQ(a.to_double(), 8.0);
  a /= 2.0;
  EXPECT_EQ(a.to_double(), 4.0);
}

TYPED_TEST(MdRealTest, RandomUniformFillsAllLimbs) {
  std::mt19937_64 gen(18);
  bool low_limb_nonzero = false;
  for (int it = 0; it < 20; ++it) {
    auto a = mdlsq::md::random_uniform<TypeParam::limbs>(gen);
    expect_renormalized(a);
    EXPECT_LT(mag(a), 2.0);
    if (TypeParam::limbs > 1 && a.limb(TypeParam::limbs - 1) != 0.0)
      low_limb_nonzero = true;
  }
  if (TypeParam::limbs > 1) EXPECT_TRUE(low_limb_nonzero);
}

// Precision ladder: each size must resolve (pi-like) sums the smaller size
// cannot.  Uses the exact relation (1/3) * 3 == 1 at increasing depth.
TEST(MdRealLadder, HigherPrecisionIsStrictlyMoreAccurate) {
  auto err = [](auto third) {
    auto back = third * decltype(third)(3.0) - decltype(third)(1.0);
    return std::fabs(back.to_double());
  };
  const double e2 = err(mdreal<2>(1.0) / mdreal<2>(3.0));
  const double e4 = err(mdreal<4>(1.0) / mdreal<4>(3.0));
  const double e8 = err(mdreal<8>(1.0) / mdreal<8>(3.0));
  EXPECT_LE(e2, 1e-30);
  EXPECT_LE(e4, 1e-62);
  EXPECT_LE(e8, 1e-125);
}

// Operation counting hooks: public operators report, internals do not.
TEST(MdRealCounting, TallyCountsPublicOperators) {
  mdlsq::md::OpTally t;
  {
    mdlsq::md::ScopedTally scope(t);
    mdreal<4> a(1.5), b(2.5);
    auto c = a + b;
    auto d = c - a;
    auto e = d * b;
    auto f = e / b;
    (void)f;
  }
  EXPECT_EQ(t.add, 1);
  EXPECT_EQ(t.sub, 1);
  EXPECT_EQ(t.mul, 1);
  EXPECT_EQ(t.div, 1);
  EXPECT_EQ(t.md_ops(), 4);
}

TEST(MdRealCounting, NoCountingOutsideScope) {
  mdlsq::md::OpTally t;
  {
    mdlsq::md::ScopedTally scope(t);
  }
  mdreal<2> a(1.0), b(2.0);
  auto c = a + b;
  (void)c;
  EXPECT_EQ(t.md_ops(), 0);
}

TEST(MdRealCounting, ComparisonsAndAbsAreFree) {
  mdlsq::md::OpTally t;
  {
    mdlsq::md::ScopedTally scope(t);
    mdreal<4> a(1.0), b(2.0);
    (void)(a < b);
    (void)(a == b);
    (void)abs(a);
    (void)(-a);
  }
  EXPECT_EQ(t.md_ops(), 0);
}
