// Matrix norms and residual measures used throughout the tests and the
// examples: Frobenius norm, max-abs entry, orthogonality defect
// ||Q^H Q - I||, and the least-squares residual ||b - A x||_2.
#pragma once

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/vector_ops.hpp"

namespace mdlsq::blas {

template <class T>
real_of_t<T> norm_fro(const Matrix<T>& a) {
  real_of_t<T> s{};
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) s += abs2(a(i, j));
  return sqrt(s);
}

template <class T>
real_of_t<T> norm_max(const Matrix<T>& a) {
  real_of_t<T> m{};
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) {
      auto v = abs_of(a(i, j));
      if (m < v || v.isnan()) m = v;
    }
  return m;
}

// max |(A - B)_{ij}|
template <class T>
real_of_t<T> max_abs_diff(const Matrix<T>& a, const Matrix<T>& b) {
  real_of_t<T> m{};
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) {
      auto v = abs_of(a(i, j) - b(i, j));
      if (m < v || v.isnan()) m = v;
    }
  return m;
}

// ||A||_inf: max absolute row sum, at working precision.  The backward-
// error oracles of the conformance harness scale residuals with it (the
// adaptive solver's acceptance test uses its own plain-double norms —
// src/core/adaptive_lsq.hpp detail — since estimates need no multiple-
// double arithmetic).
template <class T>
real_of_t<T> norm_inf_mat(const Matrix<T>& a) {
  real_of_t<T> m{};
  for (int i = 0; i < a.rows(); ++i) {
    real_of_t<T> s{};
    for (int j = 0; j < a.cols(); ++j) s += abs_of(a(i, j));
    if (m < s || s.isnan()) m = s;
  }
  return m;
}

// ||Q^H Q - I||_max: how far Q is from having orthonormal columns.
template <class T>
real_of_t<T> orthogonality_defect(const Matrix<T>& q) {
  Matrix<T> g = gemm_adjoint_a(q, q);
  for (int i = 0; i < g.rows(); ++i) g(i, i) -= T(1.0);
  return norm_max(g);
}

// ||b - A x||_2
template <class T>
real_of_t<T> residual_norm(const Matrix<T>& a, std::span<const T> x,
                           std::span<const T> b) {
  Vector<T> ax = gemv(a, x);
  real_of_t<T> s{};
  for (size_t i = 0; i < b.size(); ++i) s += abs2(b[i] - ax[i]);
  return sqrt(s);
}

}  // namespace mdlsq::blas
