// lsq_dd — the paper's headline pipeline at its headline precision: a
// closed loop of one client sending distinct random dense double-double
// least-squares systems through core::least_squares at host width 2 on
// the default schedule.  Time goes to the fused SIMD dd QR stages and the
// executor's launch waves; the ladder, the tracker and the service idle.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/least_squares.hpp"
#include "device/device_spec.hpp"
#include "device/launch.hpp"
#include "blas/generate.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;
using T = md::dd_real;

constexpr int kRows = 128, kCols = 64, kTile = 16;
constexpr int kWidth = 2;
// Distinct systems per run; the request stream cycles through them.  The
// solver keeps nothing between calls, so a repeat costs what a new system
// costs, and repeats are checked limb-identical to the first answer.
constexpr int kSystems = 32;

class LsqDd final : public Workload {
 public:
  std::string loop() const override {
    return "closed loop, 1 client, width " + std::to_string(kWidth);
  }
  // Three times the latency p50 recorded at seed 1 (about 26 ms on a
  // 4-vCPU AVX-512 host), rounded up.
  double slo_ms() const override { return 80.0; }

  void setup(std::uint64_t seed, double) override {
    std::mt19937_64 gen(seed);
    a_.clear();
    b_.clear();
    for (int k = 0; k < kSystems; ++k) {
      a_.push_back(blas::random_matrix<T>(kRows, kCols, gen));
      b_.push_back(blas::random_vector<T>(kRows, gen));
    }
    pool_.reset();
    pool_ = std::make_unique<util::ThreadPool>(kWidth - 1);
    answers_.clear();
    solve(0, kWidth);  // warm-up
  }

  Pass run(double seconds, std::size_t count) override {
    answers_.emplace_back();
    auto& xs = answers_.back();
    Pass p = closed_loop(seconds, count, [&](std::size_t i, Sample& s) {
      xs.emplace_back();
      device::Device dev = solve_into(i, kWidth, xs.back());
      s.ok = true;
      s.modeled_ms = dev.kernel_ms();
      s.dp_flops = dev.measured_total().dp_flops(md::Precision::d2);
      s.md_ops = dev.measured_total().md_ops();
      s.answer = limb_digest<2>(xs.back());
      tallies_ok_ = tallies_ok_ && dev.measured_total() == dev.analytic_total();
    });
    p.id = static_cast<int>(answers_.size()) - 1;
    return p;
  }

  void check(const Pass& p, Verdict& v) override {
    if (!tallies_ok_) v.wrong("lsq_dd: measured tally differs from analytic");
    const auto& xs = answers_[static_cast<std::size_t>(p.id)];
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (!p.samples[i].ok) continue;
      const std::size_t k = i % kSystems;
      if (i >= kSystems && p.samples[k].ok) {
        if (p.samples[i].answer != p.samples[k].answer)
          v.wrong("lsq_dd: repeat of system " + std::to_string(k) +
                  " differs from its first answer");
        continue;
      }
      const double eta = backward_error<4, 2>(a_[k], b_[k], xs[i]);
      if (!(eta <= backward_bound<2>(kRows)))
        v.wrong("lsq_dd: system " + std::to_string(k) + " backward error " +
                sci(eta));
    }
  }

  double par_speedup() override {
    return width_speedup([&](int w) { solve(0, w); });
  }

 private:
  device::Device solve_into(std::size_t i, int width, blas::Vector<T>& x) {
    const std::size_t k = i % kSystems;
    device::Device dev(device::volta_v100(), md::Precision::d2,
                       device::ExecMode::functional);
    dev.set_parallelism(pool_.get(), width);
    x = core::least_squares<T>(dev, a_[k], b_[k], kTile).x;
    return dev;
  }
  void solve(std::size_t i, int width) {
    blas::Vector<T> x;
    solve_into(i, width, x);
  }

  std::vector<blas::Matrix<T>> a_;
  std::vector<blas::Vector<T>> b_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::vector<blas::Vector<T>>> answers_;  // per pass
  bool tallies_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_lsq_dd() { return std::make_unique<LsqDd>(); }

}  // namespace perfbench
