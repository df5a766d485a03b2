// The parallel execution engine must be invisible in the results
// (DESIGN.md §5): at any parallelism width the blocked QR, the tiled back
// substitution, the least-squares pipeline, the batched driver and the
// adaptive ladder must produce LIMB-FOR-LIMB identical outputs and the
// exact same declared operation tallies as the sequential run (the
// width-1 graph run, the caller draining every node) — the conformance
// shape/limb sweep plus the zero-pivot and tall-skinny edge cases, real
// and complex.
#include <gtest/gtest.h>

#include <random>

#include "core/batched_lsq.hpp"
#include "support/conformance.hpp"
#include "support/test_support.hpp"
#include "util/thread_pool.hpp"

using namespace mdlsq;
using mdlsq::md::mdcomplex;
using mdlsq::md::mdreal;
using test_support::make_dev;
using test_support::ShapeCase;

namespace {

constexpr int kWidth = 4;  // tile tasks per launch in the threaded runs

// blas::bit_identical catches divergence in any limb of any element —
// NaN-safe, so the non-finite zero-pivot output is compared too.
template <class T>
void expect_matrix_identical(const blas::Matrix<T>& a,
                             const blas::Matrix<T>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      ASSERT_TRUE(blas::bit_identical(a(i, j), b(i, j)))
          << "divergence at (" << i << "," << j << ")";
}

template <class T>
void expect_vector_identical(const blas::Vector<T>& a,
                             const blas::Vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(blas::bit_identical(a[i], b[i]))
        << "divergence at [" << i << "]";
}

// Sequential and threaded devices must have recorded the same schedule:
// same launches, same analytic AND measured tallies per stage (exactness
// of measured == analytic is asserted on both), same modeled times.
void expect_devices_identical(const device::Device& seq,
                              const device::Device& par) {
  test_support::expect_stage_tallies_exact(seq);
  test_support::expect_stage_tallies_exact(par);
  EXPECT_EQ(seq.launches(), par.launches());
  EXPECT_TRUE(seq.analytic_total() == par.analytic_total());
  EXPECT_TRUE(seq.measured_total() == par.measured_total());
  EXPECT_DOUBLE_EQ(seq.kernel_ms(), par.kernel_ms());
  EXPECT_DOUBLE_EQ(seq.wall_ms(), par.wall_ms());
}

template <class T>
void check_threaded_qr(const ShapeCase& c, util::ThreadPool& pool) {
  SCOPED_TRACE("threaded qr " + c.label());
  std::mt19937_64 gen(c.seed);
  auto a = blas::random_matrix<T>(c.rows, c.cols, gen);

  auto seq = make_dev<T>(device::ExecMode::functional);
  auto fs = core::blocked_qr(seq, a, c.tile);

  auto par = make_dev<T>(device::ExecMode::functional);
  par.set_parallelism(&pool, kWidth);
  auto fp = core::blocked_qr(par, a, c.tile);

  expect_matrix_identical(fs.q, fp.q);
  expect_matrix_identical(fs.r, fp.r);
  expect_devices_identical(seq, par);
}

template <class T>
void check_threaded_back_sub(const ShapeCase& c, util::ThreadPool& pool) {
  SCOPED_TRACE("threaded backsub " + c.label());
  const int n = c.cols, nt = c.cols / c.tile;
  std::mt19937_64 gen(c.seed);
  auto u = blas::random_upper_triangular<T>(n, gen);
  auto b = blas::random_vector<T>(n, gen);

  auto seq = make_dev<T>(device::ExecMode::functional);
  auto xs = core::tiled_back_sub(seq, u, b, nt, c.tile);

  auto par = make_dev<T>(device::ExecMode::functional);
  par.set_parallelism(&pool, kWidth);
  auto xp = core::tiled_back_sub(par, u, b, nt, c.tile);

  expect_vector_identical(xs, xp);
  expect_devices_identical(seq, par);
}

template <class T>
void check_threaded_lsq(const ShapeCase& c, util::ThreadPool& pool) {
  SCOPED_TRACE("threaded lsq " + c.label());
  std::mt19937_64 gen(c.seed);
  auto a = blas::random_matrix<T>(c.rows, c.cols, gen);
  auto b = blas::random_vector<T>(c.rows, gen);

  auto seq = make_dev<T>(device::ExecMode::functional);
  auto rs = core::least_squares(seq, a, b, c.tile);

  auto par = make_dev<T>(device::ExecMode::functional);
  par.set_parallelism(&pool, kWidth);
  auto rp = core::least_squares(par, a, b, c.tile);

  expect_vector_identical(rs.x, rp.x);
  expect_matrix_identical(rs.factors.q, rp.factors.q);
  expect_matrix_identical(rs.factors.r, rp.factors.r);
  expect_devices_identical(seq, par);
}

template <class T>
class ThreadedPipelineTest : public ::testing::Test {};

using Scalars =
    ::testing::Types<mdreal<2>, mdreal<4>, mdreal<8>, mdcomplex<2>>;
TYPED_TEST_SUITE(ThreadedPipelineTest, Scalars);

}  // namespace

TYPED_TEST(ThreadedPipelineTest, ConformanceSweepBitIdentical) {
  using T = TypeParam;
  util::ThreadPool pool(kWidth - 1);
  for (const auto& c : test_support::shape_sweep(0xb10c5 ^ T::limbs, 4)) {
    check_threaded_qr<T>(c, pool);
    check_threaded_back_sub<T>(c, pool);
    check_threaded_lsq<T>(c, pool);
  }
}

TYPED_TEST(ThreadedPipelineTest, TallSkinnyBitIdentical) {
  using T = TypeParam;
  util::ThreadPool pool(kWidth - 1);
  // Far more rows than columns: panel chains dominate and the trailing
  // blocks are narrow — the worst case for task partitioning.
  const ShapeCase tall{96, 4, 4, 0x7a11u};
  check_threaded_qr<T>(tall, pool);
  check_threaded_lsq<T>(tall, pool);
  const ShapeCase ribbon{64, 6, 2, 0x7a12u};
  check_threaded_qr<T>(ribbon, pool);
  check_threaded_lsq<T>(ribbon, pool);
}

TYPED_TEST(ThreadedPipelineTest, ZeroPivotBitIdentical) {
  using T = TypeParam;
  util::ThreadPool pool(kWidth - 1);
  // An exactly-singular triangular system: the tile inversion produces
  // non-finite values, which must still be limb-for-limb identical (and
  // tally-identical) at every width — no task may shortcut or reorder.
  const int n = 12, tile = 4;
  std::mt19937_64 gen(0x0b1d07u);
  auto u = blas::random_upper_triangular<T>(n, gen);
  u(5, 5) = T(0.0);
  ASSERT_EQ(core::zero_pivot_index(u), 5);
  auto b = blas::random_vector<T>(n, gen);

  auto seq = make_dev<T>(device::ExecMode::functional);
  auto xs = core::tiled_back_sub(seq, u, b, n / tile, tile);
  auto par = make_dev<T>(device::ExecMode::functional);
  par.set_parallelism(&pool, kWidth);
  auto xp = core::tiled_back_sub(par, u, b, n / tile, tile);

  expect_vector_identical(xs, xp);
  expect_devices_identical(seq, par);
}

TEST(ThreadedBatchedLsq, DirectPipelineBitIdenticalAndTallyConserved) {
  using T = mdreal<4>;
  std::mt19937_64 gen(0xba7c4);
  std::vector<core::BatchProblem<T>> problems;
  for (int i = 0; i < 6; ++i) {
    const int c = 4 + 4 * (i % 3), m = c + 3 + i;
    problems.push_back(core::BatchProblem<T>::functional(
        blas::random_matrix<T>(m, c, gen), blas::random_vector<T>(m, gen)));
  }
  auto pool = core::DevicePool::homogeneous(device::volta_v100(), 2);

  core::BatchedLsqOptions opt;
  opt.tile = 4;
  auto seq = core::batched_least_squares(pool, problems, opt);
  opt.parallelism = kWidth;
  auto par = core::batched_least_squares(pool, problems, opt);

  md::OpTally sum_analytic, sum_measured;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    expect_vector_identical(seq.problems[i].x, par.problems[i].x);
    EXPECT_TRUE(seq.problems[i].analytic == par.problems[i].analytic);
    EXPECT_TRUE(par.problems[i].measured == par.problems[i].analytic);
    sum_analytic += par.problems[i].analytic;
    sum_measured += par.problems[i].measured;
  }
  // Conservation: the batch aggregate equals the per-problem sum.
  EXPECT_TRUE(par.report.tally == sum_analytic);
  EXPECT_TRUE(sum_measured == sum_analytic);
}

TEST(ThreadedBatchedLsq, AdaptivePipelineBitIdentical) {
  using T = mdreal<8>;
  std::vector<core::BatchProblem<T>> problems;
  for (int i = 0; i < 3; ++i) {
    const int c = 8, m = 12 + i;
    auto a = blas::hilbert_like<T>(m, c);
    blas::Vector<T> ones(c, T(1.0));
    auto b = blas::gemv(a, std::span<const T>(ones));
    problems.push_back(
        core::BatchProblem<T>::functional(std::move(a), std::move(b)));
  }
  auto pool = core::DevicePool::homogeneous(device::volta_v100(), 2);

  core::BatchedLsqOptions opt;
  opt.tile = 4;
  opt.pipeline = core::BatchPipeline::adaptive;
  opt.adaptive.tol = 1e-20;
  auto seq = core::batched_least_squares(pool, problems, opt);
  opt.parallelism = kWidth;
  auto par = core::batched_least_squares(pool, problems, opt);

  for (std::size_t i = 0; i < problems.size(); ++i) {
    expect_vector_identical(seq.problems[i].x, par.problems[i].x);
    ASSERT_EQ(seq.problems[i].rungs.size(), par.problems[i].rungs.size());
    for (std::size_t r = 0; r < seq.problems[i].rungs.size(); ++r) {
      EXPECT_TRUE(seq.problems[i].rungs[r].analytic ==
                  par.problems[i].rungs[r].analytic);
      EXPECT_TRUE(par.problems[i].rungs[r].measured ==
                  par.problems[i].rungs[r].analytic);
    }
  }
}

TEST(ThreadedAdaptiveLsq, OwnedPoolLadderBitIdentical) {
  using T = mdreal<8>;
  auto a = blas::hilbert_like<T>(18, 8);
  blas::Vector<T> ones(8, T(1.0));
  auto b = blas::gemv(a, std::span<const T>(ones));

  core::AdaptiveOptions opt;
  opt.tile = 4;
  opt.tol = 1e-30;
  auto seq = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);
  opt.parallelism = kWidth;  // null tile_pool: the driver owns one
  auto par = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);

  EXPECT_EQ(seq.converged, par.converged);
  EXPECT_EQ(seq.final_precision, par.final_precision);
  expect_vector_identical(seq.x, par.x);
  ASSERT_EQ(seq.rungs.size(), par.rungs.size());
  for (std::size_t r = 0; r < seq.rungs.size(); ++r) {
    EXPECT_TRUE(seq.rungs[r].analytic == par.rungs[r].analytic);
    EXPECT_TRUE(par.rungs[r].measured == par.rungs[r].analytic);
    EXPECT_TRUE(seq.rungs[r].host_ops == par.rungs[r].host_ops);
  }
}
