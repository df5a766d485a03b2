// Level-1 reference BLAS over multiple-double scalars: dot products
// (conjugating the first argument, BLAS `dotc` convention), Euclidean
// norms, axpy and scaling.
#pragma once

#include <cassert>
#include <span>

#include "blas/scalar.hpp"

namespace mdlsq::blas {

// conj(x) . y
template <class T>
T dot(std::span<const T> x, std::span<const T> y) {
  assert(x.size() == y.size());
  T s{};
  for (size_t i = 0; i < x.size(); ++i) s += conj_of(x[i]) * y[i];
  return s;
}

// sum |x_i|^2
template <class T>
real_of_t<T> norm2_sq(std::span<const T> x) {
  real_of_t<T> s{};
  for (const T& v : x) s += abs2(v);
  return s;
}

template <class T>
real_of_t<T> norm2(std::span<const T> x) {
  return sqrt(norm2_sq(x));
}

// y += alpha * x
template <class T, class S>
void axpy(const S& alpha, std::span<const T> x, std::span<T> y) {
  assert(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

template <class T, class S>
void scal(const S& alpha, std::span<T> x) {
  for (T& v : x) v *= alpha;
}

template <class T>
real_of_t<T> norm_inf(std::span<const T> x) {
  real_of_t<T> m{};
  for (const T& v : x) {
    auto a = abs_of(v);
    if (m < a || a.isnan()) m = a;
  }
  return m;
}

}  // namespace mdlsq::blas
