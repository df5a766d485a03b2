// Output checks shared by the workloads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "md/mdreal.hpp"

namespace perfbench {

// A normwise backward error passes when it is at most this many units of
// the answer's precision per row.  Correct answers sit orders of magnitude
// below it; one lost limb lands orders of magnitude above it.
inline constexpr double kBackwardUlpsPerRow = 1.0;

// Normwise relative backward error of a least-squares answer,
//   ||A^T (b - A x)||_inf / (||A||_1 (||A||_inf ||x||_inf + ||b||_inf)),
// evaluated in P-limb arithmetic (P above the answer's N, so the check's
// own rounding stays far below the bound it tests).
template <int P, int N>
double backward_error(const mdlsq::blas::Matrix<mdlsq::md::mdreal<N>>& a,
                      const mdlsq::blas::Vector<mdlsq::md::mdreal<N>>& b,
                      const mdlsq::blas::Vector<mdlsq::md::mdreal<N>>& x) {
  using TP = mdlsq::md::mdreal<P>;
  const int m = a.rows(), c = a.cols();
  if (static_cast<int>(x.size()) != c) return INFINITY;
  mdlsq::blas::Matrix<TP> ap(m, c);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < c; ++j) ap(i, j) = a(i, j).template to_precision<P>();
  mdlsq::blas::Vector<TP> xp(static_cast<std::size_t>(c));
  for (int j = 0; j < c; ++j)
    xp[static_cast<std::size_t>(j)] =
        x[static_cast<std::size_t>(j)].template to_precision<P>();
  const auto ax = mdlsq::blas::gemv(ap, std::span<const TP>(xp));
  mdlsq::blas::Vector<TP> r(static_cast<std::size_t>(m));
  double bnorm = 0.0, xnorm = 0.0, anorm_inf = 0.0, anorm_one = 0.0;
  for (int i = 0; i < m; ++i) {
    const auto k = static_cast<std::size_t>(i);
    r[k] = b[k].template to_precision<P>() - ax[k];
    bnorm = std::max(bnorm, std::abs(b[k].to_double()));
  }
  for (const auto& v : x) xnorm = std::max(xnorm, std::abs(v.to_double()));
  for (int i = 0; i < m; ++i) {
    double s = 0.0;
    for (int j = 0; j < c; ++j) s += std::abs(a(i, j).to_double());
    anorm_inf = std::max(anorm_inf, s);
  }
  for (int j = 0; j < c; ++j) {
    double s = 0.0;
    for (int i = 0; i < m; ++i) s += std::abs(a(i, j).to_double());
    anorm_one = std::max(anorm_one, s);
  }
  const auto g = mdlsq::blas::gemv_adjoint(ap, std::span<const TP>(r));
  double gnorm = 0.0;
  for (const auto& v : g) gnorm = std::max(gnorm, std::abs(v.to_double()));
  const double scale = anorm_one * (anorm_inf * xnorm + bnorm);
  if (!std::isfinite(gnorm) || !(scale > 0.0)) return INFINITY;
  return gnorm / scale;
}

// A checked quantity for an error message.
inline std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

template <int N>
double backward_bound(int rows) {
  return kBackwardUlpsPerRow * rows * mdlsq::md::mdreal<N>::eps();
}

// FNV-1a over the bit patterns of every limb of an answer: two answers
// with equal digests are limb-identical (up to a 2^-64 collision).
template <int N>
std::uint64_t limb_digest(const mdlsq::blas::Vector<mdlsq::md::mdreal<N>>& x) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ x.size();
  for (const auto& v : x)
    for (int l = 0; l < N; ++l) {
      const double d = v.limb(l);
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      for (int k = 0; k < 8; ++k) {
        h ^= (bits >> (8 * k)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  return h;
}

}  // namespace perfbench
