// Log-space probability arithmetic.
//
// Posterior computations multiply hundreds of per-source likelihood terms
// (Eq. 4/5 of the paper); in linear space those products underflow double
// precision well before n = 100 sources. Everything that aggregates per-
// source likelihoods therefore works with natural-log probabilities and
// converts back only at the final normalization, where logsumexp keeps the
// result exact to double rounding.
//
// These are the *scalar* primitives, defined inline so the kernel layer
// (math/kernels.h) and the estimator hot loops pay no cross-TU call for
// them. They are the single home for this arithmetic — estimators must
// not open-code log(p) - log1p(-p) style variants (several used to; the
// kernel migration deleted them).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace ss {
namespace math {

// Exact IEEE comparison against zero. Floating-point ==/!= is banned in
// library code (lint rule R4, float-equality) because it silently turns
// into "compare a rounded result to a constant". The few comparisons
// that *should* be exact — a sum that is zero only when no term was ever
// added (cosine_similarity, pearson), a probability that is the literal
// sentinel 0 rather than a small number (safe_log) — go through this
// helper so the intent is visible and the linter can tell the sanctioned
// cases from accidents.
inline bool exactly_zero(double x) {
  // ss-analyze: allow(float-equality): this helper IS the sanctioned exact-zero compare
  return x == 0.0;
}

}  // namespace math

// Natural log of p with p == 0 mapped to -infinity (well-defined in IEEE
// arithmetic and handled by logsumexp/log1p downstream).
inline double safe_log(double p) {
  assert(p >= 0.0);
  if (math::exactly_zero(p)) {
    return -std::numeric_limits<double>::infinity();
  }
  return std::log(p);
}

// log(1 - p) computed as log1p(-p), the cancellation-free form for small
// p; p == 1 maps to -infinity (IEEE log1p(-1)). The complement-side twin
// of safe_log: estimator code takes logs of probabilities only through
// these two entry points (lint rule R1).
inline double safe_log1m(double p) {
  assert(p <= 1.0);
  return std::log1p(-p);
}

// exp() of a log-space value: the sanctioned conversion from log scale
// back to linear (lint rule R1 keeps raw std::exp out of estimator
// code). The caller asserts nothing about the argument — -infinity maps
// to 0 and large values to +infinity, both well-defined in IEEE.
inline double from_log(double lx) { return std::exp(lx); }

// log(exp(a) + exp(b)) without overflow/underflow.
inline double logsumexp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  double hi = std::max(a, b);
  double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

// log(sum_i exp(v_i)); returns -infinity for an empty input.
double logsumexp(const std::vector<double>& v);

// log(p / (1-p)); p must be in (0, 1).
inline double logit(double p) {
  assert(p > 0.0 && p < 1.0);
  return std::log(p) - std::log1p(-p);
}

// 1 / (1 + exp(-x)).
inline double sigmoid(double x) {
  if (x >= 0.0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

// Given log-numerators la = log(w1) and lb = log(w0), returns
// w1 / (w1 + w0) computed stably. Handles the all--inf case by returning
// 0.5 (uninformative).
inline double normalize_log_pair(double la, double lb) {
  const double ninf = -std::numeric_limits<double>::infinity();
  if (la == ninf && lb == ninf) return 0.5;
  if (la == ninf) return 0.0;
  if (lb == ninf) return 1.0;
  // sigmoid(la - lb) == exp(la) / (exp(la) + exp(lb))
  return sigmoid(la - lb);
}

// Clamps a probability into [eps, 1-eps]; EM parameter updates use this to
// keep likelihood terms finite (a source with an empirical rate of exactly
// 0 or 1 would otherwise veto every other source's evidence).
inline double clamp_prob(double p, double eps = 1e-9) {
  return std::clamp(p, eps, 1.0 - eps);
}

}  // namespace ss
