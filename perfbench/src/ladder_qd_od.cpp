// ladder_qd_od — the paper's precision-doubling cost: a closed loop of one
// client at host width 1 sending seeded ill-conditioned systems through
// core::adaptive_least_squares<8> with a tolerance only octo-double can
// meet, so every solve climbs d2 -> d4 -> d8.  Each solve factors at d2,
// refines on the cached d2 factors at d4 and refactors at d8, so both
// rung kinds run.  Time goes to generic mdreal<4>/<8> arithmetic and
// refinement; the executor, the fused dd kernels and the service idle.
//
// The row count steps through 20..28 (a fixed cycle, the same for every
// seed), so request costs spread over about 2x in small steps.  With one
// shape, the latency distribution splits into one mode per host speed
// state and its median jumps between them from run to run.
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "blas/generate.hpp"
#include "checks.hpp"
#include "core/adaptive_lsq.hpp"
#include "device/device_spec.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;
using T = md::mdreal<8>;

constexpr int kCols = 16, kTile = 8;
constexpr int kMinRows = 20, kRowSteps = 9;  // rows 20..28
constexpr double kTol = 1e-100;
constexpr int kSystems = 36;  // every (rows, grading) pair once
// Column grading 10^(-decades * j / (cols - 1)): the set cycles through
// these condition levels.
constexpr double kDecades[] = {2.0, 8.0, 14.0, 20.0};

class LadderQdOd final : public Workload {
 public:
  std::string loop() const override { return "closed loop, 1 client, width 1"; }
  // Three times the latency p50 recorded at seed 1 (about 62 ms on a
  // 4-vCPU AVX-512 host), rounded up.
  double slo_ms() const override { return 190.0; }

  void setup(std::uint64_t seed, double) override {
    std::mt19937_64 gen(seed);
    a_.clear();
    b_.clear();
    for (int k = 0; k < kSystems; ++k) {
      const int rows = kMinRows + k % kRowSteps;
      auto a = blas::random_matrix<T>(rows, kCols, gen);
      const double decades = kDecades[k % 4];
      for (int j = 0; j < kCols; ++j) {
        const T d(std::pow(10.0, -decades * j / (kCols - 1)));
        for (int i = 0; i < rows; ++i) a(i, j) = a(i, j) * d;
      }
      a_.push_back(std::move(a));
      b_.push_back(blas::random_vector<T>(rows, gen));
    }
    pool_.reset();
    pool_ = std::make_unique<util::ThreadPool>(1);
    answers_.clear();
    solve(0, 1);  // warm-up
  }

  Pass run(double seconds, std::size_t count) override {
    answers_.emplace_back();
    auto& out = answers_.back();
    Pass p = closed_loop(seconds, count, [&](std::size_t i, Sample& s) {
      out.emplace_back();
      Answer& ans = out.back();
      auto r = solve(i, 1);
      ans.final_limbs = md::limbs_of(r.final_precision);
      ans.forward =
          r.rungs.empty() ? INFINITY : r.rungs.back().forward_estimate;
      ans.tallies_ok = r.device_analytic() == r.device_measured();
      s.ok = r.converged;
      s.modeled_ms = r.kernel_ms();
      for (const auto& g : r.rungs) {
        s.dp_flops += g.measured.dp_flops(g.device_precision);
        ++s.rungs;
        s.refactors += g.refactorized ? 1 : 0;
        s.refine_iters += g.refine_iterations;
        s.accepted_rungs += g.accepted ? 1 : 0;
      }
      s.md_ops = r.device_measured().md_ops() + r.host_ops().md_ops();
      s.answer = limb_digest<8>(r.x);
      ans.x = std::move(r.x);
    });
    p.id = static_cast<int>(answers_.size()) - 1;
    return p;
  }

  void check(const Pass& p, Verdict& v) override {
    const auto& out = answers_[static_cast<std::size_t>(p.id)];
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Answer& ans = out[i];
      if (!p.samples[i].ok) continue;  // non-convergence: counted as failed
      const std::size_t k = i % kSystems;
      const std::string id = "ladder_qd_od: system " + std::to_string(k);
      if (!ans.tallies_ok)
        v.wrong(id + " measured tally differs from analytic");
      if (!(ans.forward <= kTol))
        v.wrong(id + " accepted with forward estimate " +
                sci(ans.forward));
      if (i >= kSystems && p.samples[k].ok) {
        if (p.samples[i].answer != p.samples[k].answer)
          v.wrong(id + " repeat differs from its first answer");
        continue;
      }
      // The answer carries all 8 limbs; judge it at the precision it
      // reached, with the residual evaluated at 16 limbs.
      const double eta = backward_error<16, 8>(a_[k], b_[k], ans.x);
      const double bound = kBackwardUlpsPerRow * a_[k].rows() *
                           core::detail::eps_of_limbs(ans.final_limbs);
      if (!(eta <= bound))
        v.wrong(id + " backward error " + sci(eta));
    }
  }

  double par_speedup() override {
    return width_speedup([&](int w) { solve(0, w); });
  }

 private:
  struct Answer {
    blas::Vector<T> x;
    int final_limbs = 0;
    double forward = INFINITY;
    bool tallies_ok = false;
  };

  core::AdaptiveLsqResult<8> solve(std::size_t i, int width) {
    const std::size_t k = i % kSystems;
    core::AdaptiveOptions opt;
    opt.tol = kTol;
    opt.tile = kTile;
    opt.parallelism = width;
    opt.tile_pool = pool_.get();
    return core::adaptive_least_squares<8>(device::volta_v100(), a_[k], b_[k],
                                           opt);
  }

  std::vector<blas::Matrix<T>> a_;
  std::vector<blas::Vector<T>> b_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::vector<Answer>> answers_;  // per pass
};

}  // namespace

std::unique_ptr<Workload> make_ladder_qd_od() {
  return std::make_unique<LadderQdOd>();
}

}  // namespace perfbench
