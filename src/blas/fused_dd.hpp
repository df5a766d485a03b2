// Fused double-double panel/update kernels over staged limb planes —
// the SIMD fast path of the blocked QR's hot stages (DESIGN.md §9).
//
// For T = md::dd_real the staged driver routes its panel dots, the
// Householder rank-1 apply, the aggregated WY trailing updates and the
// element-wise accumulations through these wrappers instead of the
// accessor-generic bodies of blas/panel.hpp.  Each wrapper performs the
// SAME logical multiple-double operation sequence as the body it
// replaces — per output element the same count of dd adds, subs and
// muls, every reduction in the same ascending order — but executes it
// through the runtime-dispatched SIMD kernel table (md/simd/), with
// limbs held in registers across the whole error-free-transform chain
// rather than round-tripping through mdreal temporaries per primitive.
//
// The fused kernels never call a counting mdreal operator, so each
// wrapper reports its exact bulk tally via md::detail::count_bulk — the
// identical counts the replaced body would have measured — keeping the
// measured == analytic pins and the dry-run equivalence intact.
//
// The double-double add here is the branch-free 20-flop "accurate"
// sequence of the paper's Table 1 d2 row, not mdreal's general-N CAMPARY
// merge-and-renormalize sequence (md/mdreal.hpp); results differ from
// the mdreal operators by at most a couple of ulps of the trailing limb
// (both are faithful double-double arithmetics), and all pipeline
// oracles are backward-error bounds, not cross-arithmetic bit pins.  Bit-identity
// IS guaranteed — and pinned by tests — across ISA tables, vector
// widths and task partitions, because lanes run across output columns
// only and every lane op is elementwise IEEE (md/simd/kernels_impl.hpp).
#pragma once

#include <cstdint>

#include "md/op_counts.hpp"
#include "md/simd/dispatch.hpp"

namespace mdlsq::blas::fused {

// w[c] = (sum_t v[t] * A[t][c]) * beta, c in [c0, c1); A[t][c] at
// {a}hi/lo[t*lda + c].  Tally: rows adds + rows muls per dot, one mul
// for the beta scale — O::fma() * rows + O::mul_real() per column.
inline void dd_panel_col_dots(const double* ahi, const double* alo,
                              std::size_t lda, int rows, int c0, int c1,
                              const double* vhi, const double* vlo,
                              double bhi, double blo, double* whi,
                              double* wlo) {
  if (c0 >= c1) return;
  md::simd::active().dd_col_dots(ahi, alo, lda, rows, c0, c1, vhi, vlo, bhi,
                                 blo, whi, wlo);
  const std::int64_t cols = c1 - c0;
  md::detail::count_bulk({.add = std::int64_t(rows) * cols,
                          .mul = std::int64_t(rows) * cols + cols});
}

// A[t][c] -= v[t] * w[c], c in [c0, c1) — one fms (mul + sub) per
// element, the Householder panel apply.
inline void dd_panel_rank1_update(double* ahi, double* alo, std::size_t lda,
                                  int rows, int c0, int c1, const double* vhi,
                                  const double* vlo, const double* whi,
                                  const double* wlo) {
  if (c0 >= c1) return;
  md::simd::active().dd_rank1(ahi, alo, lda, rows, c0, c1, vhi, vlo, whi,
                              wlo);
  const std::int64_t n = std::int64_t(rows) * (c1 - c0);
  md::detail::count_bulk({.sub = n, .mul = n});
}

// C[i][j] = sum_t A[i][t] * B[j][t] — one fma (mul + add) per (i, j, t).
inline void dd_gemm_nt(const double* ahi, const double* alo, std::size_t lda,
                       const double* bhi, const double* blo, std::size_t ldb,
                       double* chi, double* clo, std::size_t ldc, int i0,
                       int i1, int j0, int j1, int t0, int t1) {
  if (i0 >= i1 || j0 >= j1) return;
  md::simd::active().dd_gemm_nt(ahi, alo, lda, bhi, blo, ldb, chi, clo, ldc,
                                i0, i1, j0, j1, t0, t1);
  const std::int64_t n =
      std::int64_t(i1 - i0) * (j1 - j0) * (t1 > t0 ? t1 - t0 : 0);
  md::detail::count_bulk({.add = n, .mul = n});
}

// C[i][j] = sum_t A[i][t] * B[t][j] — one fma (mul + add) per (i, j, t).
inline void dd_gemm_nn(const double* ahi, const double* alo, std::size_t lda,
                       const double* bhi, const double* blo, std::size_t ldb,
                       double* chi, double* clo, std::size_t ldc, int i0,
                       int i1, int j0, int j1, int t0, int t1) {
  if (i0 >= i1 || j0 >= j1) return;
  md::simd::active().dd_gemm_nn(ahi, alo, lda, bhi, blo, ldb, chi, clo, ldc,
                                i0, i1, j0, j1, t0, t1);
  const std::int64_t n =
      std::int64_t(i1 - i0) * (j1 - j0) * (t1 > t0 ? t1 - t0 : 0);
  md::detail::count_bulk({.add = n, .mul = n});
}

// C[i][j] += S[i][j] over [i0,i1) x [j0,j1) — one add per element.
inline void dd_ewise_add(double* chi, double* clo, std::size_t ldc,
                         const double* shi, const double* slo,
                         std::size_t lds, int i0, int i1, int j0, int j1) {
  if (i0 >= i1 || j0 >= j1) return;
  md::simd::active().dd_ewise_add(chi, clo, ldc, shi, slo, lds, i0, i1, j0,
                                  j1);
  md::detail::count_bulk({.add = std::int64_t(i1 - i0) * (j1 - j0)});
}

}  // namespace mdlsq::blas::fused
