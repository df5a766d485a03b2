// Exact floating-point expansion algebra (Shewchuk / Priest).
//
// An *expansion* is a sequence of doubles of increasing magnitude whose
// components are pairwise non-overlapping, so that the sequence represents
// their exact sum.  This module implements the handful of provably exact
// primitives the multiple-double types are built on:
//
//   * grow        — add one double into an expansion (exact),
//   * sum_terms   — distill an arbitrary pile of doubles into an expansion,
//   * extract     — round an expansion to the leading N renormalized limbs.
//
// Internally everything is least-significant-first (Shewchuk's convention);
// the public multiple-double types store limbs most-significant-first
// (QD / CAMPARY convention), and extract() performs the flip.
//
// These routines are deliberately simple and allocation-free: callers pass
// stack buffers.  grow/sum_terms/extract are exact but data-dependent, so
// they stay off the arithmetic path: they are the *oracle* against which
// the arithmetic is property-tested and the exact difference behind the
// mdreal comparison operators.  renorm, the fixed two-pass
// renormalization, is the last step of every mdreal add, mul and div.
#pragma once

#include <cstddef>

#include "eft.hpp"

namespace mdlsq::md::expn {

// Adds b into the non-overlapping expansion e[0..n) (least significant
// first), writing the resulting expansion to h (which may alias e) and
// returning its length.  Exact (GROW-EXPANSION with zero elimination).
// h must have room for n + 1 doubles.
inline int grow(const double* e, int n, double b, double* h) noexcept {
  double q = b;
  int k = 0;
  for (int i = 0; i < n; ++i) {
    double s, err;
    two_sum(q, e[i], s, err);
    if (err != 0.0) h[k++] = err;
    q = s;
  }
  if (q != 0.0 || k == 0) h[k++] = q;
  return k;
}

// Distills the arbitrary (overlapping, unordered) terms t[0..n) into a
// non-overlapping expansion in h, returning its length.  Exact: the sum of
// h equals the sum of t bit-for-bit.  h must have room for n doubles and
// must not alias t.
inline int sum_terms(const double* t, int n, double* h) noexcept {
  int len = 0;
  for (int i = 0; i < n; ++i) len = grow(h, len, t[i], h);
  return len;
}

// Rounds the expansion e[0..n) (least significant first) to N limbs,
// most significant first, in renormalized form: limb i+1 is at most half
// an ulp of limb i.  Truncation is faithful: the discarded tail is smaller
// than one ulp of the last kept limb.
inline void extract(const double* e, int n, double* out, int N) noexcept {
  int k = 0;
  if (n > 0) {
    double s = e[n - 1];
    for (int i = n - 2; i >= 0 && k < N; --i) {
      double hi, lo;
      quick_two_sum(s, e[i], hi, lo);
      if (lo != 0.0) {
        out[k++] = hi;
        s = lo;
      } else {
        s = hi;
      }
    }
    if (k < N) out[k++] = s;
  }
  for (; k < N; ++k) out[k] = 0.0;
}

// Renormalizes K doubles of (roughly) decreasing magnitude, most
// significant first, into N canonical limbs.  Unlike extract(), the input
// may overlap, so a safe two_sum sweep (VecSum) runs first.
// x is clobbered.  Used for quotient/scaling sequences whose terms are
// ordered but not exact expansions.
inline void renorm(double* x, int K, double* out, int N) noexcept {
  // Pass 1: bottom-up error-free accumulation; afterwards x[0] is the
  // rounded total and x[1..K) hold the residuals in decreasing order.
  double s = x[K - 1];
  for (int i = K - 2; i >= 0; --i) {
    double e;
    two_sum(x[i], s, s, e);
    x[i + 1] = e;
  }
  x[0] = s;
  // Pass 2: extraction, as in extract() but top-down over x.  The VecSum
  // residuals are not guaranteed to be ordered under heavy cancellation,
  // so the unconditional two_sum is used (quick_two_sum's |a| >= |b|
  // precondition could silently lose bits here).
  int k = 0;
  double q = x[0];
  for (int i = 1; i < K && k < N; ++i) {
    double hi, lo;
    two_sum(q, x[i], hi, lo);
    if (lo != 0.0) {
      out[k++] = hi;
      q = lo;
    } else {
      q = hi;
    }
  }
  if (k < N) out[k++] = q;
  for (; k < N; ++k) out[k] = 0.0;
}

}  // namespace mdlsq::md::expn
