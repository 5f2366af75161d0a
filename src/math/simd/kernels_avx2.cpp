// AVX2+FMA backend for the kernel layer (docs/MODEL.md §12).
//
// This is the only translation unit in the tree compiled with
// -mavx2 -mfma, and — with vecmath_avx2.h — the only place intrinsics
// are allowed (lint rule R7). When the toolchain cannot build AVX2
// code the stubs at the bottom take over: avx2_compiled() reports
// false, dispatch never selects the backend, and the entry points
// abort if reached anyway.
//
// It holds four kernels, each kept because routing it to the scalar
// loop slowed a benchmark workload (the audit is in docs/MODEL.md §12).
// Numerical contract (vs the scalar backend, which is the bit-exact
// reference): finalize_params_avx2 is exact; finalize_columns_avx2 and
// ext_table_rows_avx2 evaluate exp/log/log1p by polynomial, and
// sum_packed_state_logs_avx2 splits its sums into partial chains over
// the packed deltas. The ULP budget is enforced by tests/test_simd.cpp
// and checked end-to-end by tests/test_perf_smoke.cpp.

#include "math/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "math/simd/vecmath_avx2.h"

namespace ss::simd {

using kernels::LogPair;

bool avx2_compiled() { return true; }

// Four columns per iteration with polynomial exp/log1p; lanes holding
// ±inf/NaN inputs delegate to the scalar finalize_column for exact
// degenerate semantics. Reads the whole 4-lane block before storing,
// so the elementwise aliasing contract (log_odds == la, column_ll ==
// lb) holds.
void finalize_columns_avx2(const double* la, const double* lb,
                           std::size_t n, double* posterior,
                           double* log_odds, double* column_ll) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d a = _mm256_loadu_pd(la + j);
    __m256d b = _mm256_loadu_pd(lb + j);
    __m256d mag = _mm256_max_pd(_mm256_andnot_pd(sign, a),
                                _mm256_andnot_pd(sign, b));
    // NaN lanes fail the `< inf` compare and take the scalar path too.
    if (_mm256_movemask_pd(_mm256_cmp_pd(mag, inf, _CMP_LT_OQ)) != 0xF) {
      for (std::size_t l = j; l < j + 4; ++l) {
        kernels::ColumnStats s = kernels::finalize_column(la[l], lb[l]);
        posterior[l] = s.posterior;
        log_odds[l] = s.log_odds;
        column_ll[l] = s.log_likelihood;
      }
      continue;
    }
    __m256d d = _mm256_sub_pd(a, b);
    __m256d e = vec::exp_pd(vec::negate_pd(_mm256_andnot_pd(sign, d)));
    __m256d inv = _mm256_div_pd(one, _mm256_add_pd(one, e));
    __m256d dge = _mm256_cmp_pd(d, _mm256_setzero_pd(), _CMP_GE_OQ);
    __m256d pos = _mm256_blendv_pd(_mm256_mul_pd(e, inv), inv, dge);
    __m256d hi = _mm256_blendv_pd(b, a, dge);
    __m256d ll = _mm256_add_pd(hi, vec::log1p_pd(e));
    _mm256_storeu_pd(posterior + j, pos);
    _mm256_storeu_pd(log_odds + j, d);
    _mm256_storeu_pd(column_ll + j, ll);
  }
  for (; j < n; ++j) {
    kernels::ColumnStats s = kernels::finalize_column(la[j], lb[j]);
    posterior[j] = s.posterior;
    log_odds[j] = s.log_odds;
    column_ll[j] = s.log_likelihood;
  }
}

namespace {

// True when any lane of r lies outside the open interval (0, 1) — the
// clamped-rate domain the polynomial log paths assume. NaN lanes trip
// the unordered compares and count as degenerate.
inline bool any_degenerate_rate(__m256d r) {
  __m256d bad = _mm256_or_pd(
      _mm256_cmp_pd(r, _mm256_setzero_pd(), _CMP_NGT_UQ),
      _mm256_cmp_pd(r, _mm256_set1_pd(1.0), _CMP_NLT_UQ));
  return _mm256_movemask_pd(bad) != 0;
}

}  // namespace

// One source per iteration: its four rates occupy the four lanes, so
// the eight scalar transcendentals become one log1p_pd and one log_pd.
// Each source's all-silent pair [log(1-a), log(1-b)] is stored, not
// summed — the caller adds the pairs in source order, which is exactly
// the running two-lane add this kernel used to make, so the rows of any
// chunk can be built independently. With `clamp`, each loaded vector is
// clamped to [kProbEps, 1 - kProbEps] in-register first: the compare +
// blend pair replicates std::clamp's branch semantics (both ordered
// compares are false on a NaN lane, so NaN survives, as it does through
// clamp_prob). Degenerate rates — outside (0, 1) after the optional
// clamp, NaN included — take the scalar row, which re-clamps with the
// identical scalar expression; the only divergence from the scalar
// build is the polynomial transcendental itself.
void ext_table_rows_avx2(std::size_t n, const double* rates, bool clamp,
                         LogPair* exposed_silent, LogPair* claim_indep,
                         LogPair* claim_dep, LogPair* silent) {
  constexpr double kProbEps = 1e-9;  // clamp_prob's default eps
  const __m256d lo = _mm256_set1_pd(kProbEps);
  const __m256d hi = _mm256_set1_pd(1.0 - kProbEps);
  // Scalar twin of the vector clamp, for the degenerate fallback row;
  // written as std::clamp's branch chain so NaN propagates.
  auto clamp1 = [clamp](double v) {
    constexpr double l = 1e-9;
    constexpr double h = 1.0 - 1e-9;
    return clamp ? (v < l ? l : (h < v ? h : v)) : v;
  };
  for (std::size_t i = 0; i < n; ++i) {
    __m256d r = _mm256_loadu_pd(rates + 4 * i);  // [a, b, f, g]
    if (clamp) {
      r = _mm256_blendv_pd(r, lo, _mm256_cmp_pd(r, lo, _CMP_LT_OQ));
      r = _mm256_blendv_pd(r, hi, _mm256_cmp_pd(hi, r, _CMP_LT_OQ));
    }
    if (any_degenerate_rate(r)) {
      double a = clamp1(rates[4 * i]), b = clamp1(rates[4 * i + 1]);
      double f = clamp1(rates[4 * i + 2]), g = clamp1(rates[4 * i + 3]);
      double log_na = std::log1p(-a);
      double log_nb = std::log1p(-b);
      double log_nf = std::log1p(-f);
      double log_ng = std::log1p(-g);
      silent[i] = {log_na, log_nb};
      exposed_silent[i] = {log_nf - log_na, log_ng - log_nb};
      claim_indep[i] = {std::log(a) - log_na, std::log(b) - log_nb};
      claim_dep[i] = {std::log(f) - log_nf, std::log(g) - log_ng};
      continue;
    }
    __m256d ln = vec::log1p_pd(vec::negate_pd(r));  // log(1-rate) lanes
    __m256d lp = vec::log_pd(r);                  // log(rate) lanes
    __m256d diff = _mm256_sub_pd(lp, ln);
    __m128d ln_lo = _mm256_castpd256_pd128(ln);   // [log_na, log_nb]
    __m128d ln_hi = _mm256_extractf128_pd(ln, 1); // [log_nf, log_ng]
    _mm_storeu_pd(&silent[i].t, ln_lo);
    _mm_storeu_pd(&exposed_silent[i].t, _mm_sub_pd(ln_hi, ln_lo));
    _mm_storeu_pd(&claim_indep[i].t, _mm256_castpd256_pd128(diff));
    _mm_storeu_pd(&claim_dep[i].t, _mm256_extractf128_pd(diff, 1));
  }
}

// Masked contiguous sums over the SoA delta layout: eight sources per
// iteration across two chains per hypothesis. The 0/1 state bytes
// widen to 64-bit lanes and negate into full and-masks, so a silent
// source contributes an exact +0.0 — no blends, no per-lane shuffles
// beyond the byte widening, and 16 data bytes per source instead of
// the AoS walk's 32. Reduction: (chain0 + chain1) lanewise, low half +
// high half, lane 0 + lane 1, then the tail in source order.
LogPair sum_packed_state_logs_avx2(std::span<const char> bits,
                                   const double* delta_t,
                                   const double* delta_f) {
  const std::size_t n = bits.size();
  const char* bp = bits.data();
  const __m256i zero = _mm256_setzero_si256();
  __m256d t0 = _mm256_setzero_pd(), t1 = _mm256_setzero_pd();
  __m256d f0 = _mm256_setzero_pd(), f1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i b8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bp + i));
    __m256i m0 = _mm256_cvtepi8_epi64(b8);
    __m256i m1 = _mm256_cvtepi8_epi64(_mm_srli_epi64(b8, 32));
    __m256d k0 = _mm256_castsi256_pd(_mm256_sub_epi64(zero, m0));
    __m256d k1 = _mm256_castsi256_pd(_mm256_sub_epi64(zero, m1));
    t0 = _mm256_add_pd(t0, _mm256_and_pd(k0, _mm256_loadu_pd(delta_t + i)));
    t1 = _mm256_add_pd(
        t1, _mm256_and_pd(k1, _mm256_loadu_pd(delta_t + i + 4)));
    f0 = _mm256_add_pd(f0, _mm256_and_pd(k0, _mm256_loadu_pd(delta_f + i)));
    f1 = _mm256_add_pd(
        f1, _mm256_and_pd(k1, _mm256_loadu_pd(delta_f + i + 4)));
  }
  __m256d ts = _mm256_add_pd(t0, t1);
  __m256d fs = _mm256_add_pd(f0, f1);
  __m128d tr = _mm_add_pd(_mm256_castpd256_pd128(ts),
                          _mm256_extractf128_pd(ts, 1));
  __m128d fr = _mm_add_pd(_mm256_castpd256_pd128(fs),
                          _mm256_extractf128_pd(fs, 1));
  double dt = _mm_cvtsd_f64(tr) + _mm_cvtsd_f64(_mm_unpackhi_pd(tr, tr));
  double df = _mm_cvtsd_f64(fr) + _mm_cvtsd_f64(_mm_unpackhi_pd(fr, fr));
  for (; i < n; ++i) {
    if (bp[i]) {
      dt += delta_t[i];
      df += delta_f[i];
    }
  }
  return {dt, df};
}

// Fused M-step parameter finalize; the one EXACT (non-ULP) kernel in
// this TU. One 256-bit row per source: lanes {a, b, f, g} of params4
// line up with stats6's num lanes (row[0..3]); the denom lanes are
// derived from the packed exposure pair (row[4..5]) and the total_z /
// total_y loop constants per the kernels::finalize_params contract.
// Every operation is correctly rounded (add, div, max,
// min, blend, and, sub) and — critically — cmu is a precomputed input,
// so there is no a*b+c shape the compiler or this code could contract
// into an FMA: the bits equal the scalar loop's for ALL inputs.
//
// Clamp operand order is load-bearing: vmaxpd/vminpd return the SECOND
// operand when either input is NaN, so max(lo, raw) then min(hi, ·)
// with the data in the second slot propagates a NaN raw value to the
// sanitize blend, while ±inf still clamps to a finite bound — exactly
// the scalar `raw < lo ? lo : raw; c > hi ? hi : c` semantics.
std::size_t finalize_params_avx2(std::size_t n, const double* stats6,
                                 double total_z, double total_y,
                                 const double* cells, const double* cmu,
                                 double lo, double hi, bool tie_fg,
                                 double* params4, double* delta_max) {
  const __m256d cells_v = _mm256_loadu_pd(cells);
  const __m256d cmu_v = _mm256_loadu_pd(cmu);
  const __m256d lo_v = _mm256_set1_pd(lo);
  const __m256d hi_v = _mm256_set1_pd(hi);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  __m256d dmax = _mm256_setzero_pd();
  std::size_t sanitized = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = stats6 + 6 * i;
    double* p = params4 + 4 * i;
    const __m256d num = _mm256_loadu_pd(row);
    // Derived denominator lanes from the packed exposure pair; each a
    // single correctly-rounded scalar subtraction in the documented
    // order, so the lanes are bitwise the historical stored fields.
    const double ez = row[4];
    const double t1 = row[5] - ez;
    const __m256d denom = _mm256_setr_pd(total_z - ez, total_y - t1, ez, t1);
    const __m256d prev = _mm256_loadu_pd(p);
    const __m256d d = _mm256_add_pd(denom, cells_v);
    const __m256d q = _mm256_div_pd(_mm256_add_pd(num, cmu_v), d);
    // d > 0 ? q : prev (ordered compare: d == NaN keeps prev, like the
    // scalar `d > 0.0` test).
    const __m256d pos = _mm256_cmp_pd(d, zero, _CMP_GT_OQ);
    const __m256d raw = _mm256_blendv_pd(prev, q, pos);
    __m256d c = _mm256_min_pd(hi_v, _mm256_max_pd(lo_v, raw));
    // Sanitize: only NaN survives the clamp non-finite.
    const __m256d is_nan = _mm256_cmp_pd(c, c, _CMP_UNORD_Q);
    c = _mm256_blendv_pd(c, prev, is_nan);
    sanitized += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(is_nan))));
    if (tie_fg) {
      // 0.5 * (f + g) into both upper lanes; swapping within the upper
      // 128-bit half makes lane2 compute f+g and lane3 g+f — addition
      // is commutative bitwise, so both lanes hold identical bits.
      const __m256d swapped = _mm256_permute_pd(c, 0b0101);
      const __m256d avg = _mm256_mul_pd(half, _mm256_add_pd(c, swapped));
      c = _mm256_blend_pd(c, avg, 0b1100);
    }
    dmax = _mm256_max_pd(
        dmax, _mm256_and_pd(abs_mask, _mm256_sub_pd(c, prev)));
    _mm256_storeu_pd(p, c);
  }
  // Horizontal max (order-independent; all values finite by now).
  __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(dmax),
                          _mm256_extractf128_pd(dmax, 1));
  double m = _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
  if (m > *delta_max) *delta_max = m;
  return sanitized;
}

}  // namespace ss::simd

#else  // !(__AVX2__ && __FMA__)

#include <cstdlib>

// Portable stub build: the dispatcher sees avx2_compiled() == false
// and never routes here; the aborts are a belt-and-braces guard
// against calling the entry points directly on a non-AVX2 build.
namespace ss::simd {

using kernels::LogPair;

bool avx2_compiled() { return false; }

void finalize_columns_avx2(const double*, const double*, std::size_t,
                           double*, double*, double*) {
  std::abort();
}
void ext_table_rows_avx2(std::size_t, const double*, bool, LogPair*,
                         LogPair*, LogPair*, LogPair*) {
  std::abort();
}
LogPair sum_packed_state_logs_avx2(std::span<const char>, const double*,
                                   const double*) {
  std::abort();
}
std::size_t finalize_params_avx2(std::size_t, const double*, double, double,
                                 const double*, const double*, double,
                                 double, bool, double*, double*) {
  std::abort();
}

}  // namespace ss::simd

#endif  // __AVX2__ && __FMA__
