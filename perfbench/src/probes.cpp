// Layer probes the traced run takes beside the workload: ns per generic
// mdreal<N> add and mul on a cache-resident seeded array, and ns per
// declared md operation of one fused double-double kernel call.
#include "probes.hpp"

#include <random>
#include <vector>

#include "blas/fused_dd.hpp"
#include "harness.hpp"
#include "md/mdreal.hpp"
#include "md/op_counts.hpp"
#include "md/random.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;

// Tells the compiler the array was read and may have changed, so each
// repetition of a pure loop is really executed.
inline void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

// Median over `samples` timings of `body`, each repeated until it has run
// for at least 10 ms; returns ms per call.
template <class F>
double ms_per_call(F&& body, int samples = 5) {
  int reps = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) body();
    if (ms_between(t0, now_ns()) >= 10.0) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int s = 0; s < samples; ++s) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) body();
    per_call.push_back(ms_between(t0, now_ns()) / reps);
  }
  return percentile(per_call, 50);
}

template <int N>
double md_op_ns(std::uint64_t seed, bool mul) {
  constexpr int kLen = 256;  // 256 * 3 * 8N bytes: resident in L1/L2
  std::mt19937_64 gen(seed);
  std::vector<md::mdreal<N>> x(kLen), y(kLen), z(kLen);
  for (int i = 0; i < kLen; ++i) {
    x[i] = md::random_uniform<N>(gen, 0.5, 1.5);
    y[i] = md::random_uniform<N>(gen, 0.5, 1.5);
  }
  const double ms = ms_per_call([&] {
    if (mul)
      for (int i = 0; i < kLen; ++i) z[i] = x[i] * y[i];
    else
      for (int i = 0; i < kLen; ++i) z[i] = x[i] + y[i];
    clobber(z.data());
  });
  return ms * 1e6 / kLen;
}

}  // namespace

MdProbe md_probe(std::uint64_t seed) {
  MdProbe p;
  p.add_ns[0] = md_op_ns<2>(seed, false);
  p.add_ns[1] = md_op_ns<4>(seed, false);
  p.add_ns[2] = md_op_ns<8>(seed, false);
  p.mul_ns[0] = md_op_ns<2>(seed, true);
  p.mul_ns[1] = md_op_ns<4>(seed, true);
  p.mul_ns[2] = md_op_ns<8>(seed, true);
  return p;
}

double fused_dd_ns_per_op(std::uint64_t seed) {
  constexpr int n = 48;  // three 48x48 dd operands: resident in L2
  std::mt19937_64 gen(seed);
  std::vector<double> ahi(n * n), alo(n * n), bhi(n * n), blo(n * n),
      chi(n * n), clo(n * n);
  for (int i = 0; i < n * n; ++i) {
    const md::dd_real a = md::random_uniform<2>(gen);
    const md::dd_real b = md::random_uniform<2>(gen);
    ahi[i] = a.limb(0);
    alo[i] = a.limb(1);
    bhi[i] = b.limb(0);
    blo[i] = b.limb(1);
  }
  auto call = [&] {
    blas::fused::dd_gemm_nn(ahi.data(), alo.data(), n, bhi.data(), blo.data(),
                            n, chi.data(), clo.data(), n, 0, n, 0, n, 0, n);
    clobber(chi.data());
  };
  md::OpTally declared;
  {
    md::ScopedTally scope(declared);
    call();
  }
  return ms_per_call(call) * 1e6 / static_cast<double>(declared.md_ops());
}

}  // namespace perfbench
