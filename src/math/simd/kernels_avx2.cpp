// AVX2+FMA backend for the kernel layer (docs/MODEL.md §12).
//
// This is the only translation unit in the tree compiled with
// -mavx2 -mfma, and — with vecmath_avx2.h — the only place intrinsics
// are allowed (lint rule R7). When the toolchain cannot build AVX2
// code the stubs at the bottom take over: avx2_compiled() reports
// false, dispatch never selects the backend, and the entry points
// abort if reached anyway.
//
// Numerical contract (vs the scalar backend, which is the bit-exact
// reference): these implementations may split one accumulation chain
// into independent partial sums (the whole point — the scalar chains
// are FP-add-latency-bound) and may evaluate exp/log/log1p by
// polynomial. Each kernel documents its summation order; the ULP
// budget is enforced by tests/test_simd.cpp and checked end-to-end by
// tests/test_perf_smoke.cpp.

#include "math/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "math/simd/vecmath_avx2.h"

namespace ss::simd {

using kernels::LogPair;
using kernels::MassPair;
using kernels::SweepWeights;

bool avx2_compiled() { return true; }

namespace {

// [p.t, p.f] of one LogPair as a 128-bit lane pair.
inline __m128d load_pair(const LogPair* terms, std::uint32_t u) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(terms + u));
}

// Two LogPairs side by side: [lo.t, lo.f, hi.t, hi.f].
inline __m256d join_pairs(__m128d lo, __m128d hi) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1);
}

// True (all-ones lane mask) in lanes {0,2} for b0 and {1,3} for b1.
inline __m256d byte_mask2(char b0, char b1) {
  __m128i m = _mm_cmpgt_epi64(
      _mm_set_epi64x(b1 != 0, b0 != 0), _mm_setzero_si128());
  return _mm256_castsi256_pd(_mm256_set_m128i(m, m));
}

// values[idx[0..3]] by hardware gather. Written as the masked form with
// a zero source and an all-ones mask — the same instruction and result
// as _mm256_i32gather_pd, whose undefined source operand gcc 12 reports
// as -Wmaybe-uninitialized once inlined into optimized builds.
inline __m256d gather4(const double* values, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), values, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

}  // namespace

// Summation order: two 256-bit partial chains over elements
// {k, k+1 | k ≡ 0 mod 4} and {k+2, k+3}, lane-reduced low-half +
// high-half, then seed + tail in element order.
LogPair gather_add_avx2(LogPair acc, std::span<const std::uint32_t> idx,
                        const LogPair* terms) {
  const std::size_t n = idx.size();
  const std::uint32_t* ix = idx.data();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 = _mm256_add_pd(
        acc0, join_pairs(load_pair(terms, ix[k]),
                         load_pair(terms, ix[k + 1])));
    acc1 = _mm256_add_pd(
        acc1, join_pairs(load_pair(terms, ix[k + 2]),
                         load_pair(terms, ix[k + 3])));
  }
  __m256d s = _mm256_add_pd(acc0, acc1);
  __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(s),
                            _mm256_extractf128_pd(s, 1));
  double at = acc.t + _mm_cvtsd_f64(pair);
  double af = acc.f + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; k < n; ++k) {
    const LogPair& p = terms[ix[k]];
    at += p.t;
    af += p.f;
  }
  return {at, af};
}

// Summation order: per column, two partial chains over even/odd shared
// ks; the leftover of the longer column continues through
// gather_add_avx2's order.
void gather_add2_avx2(LogPair& acc0, std::span<const std::uint32_t> idx0,
                      LogPair& acc1, std::span<const std::uint32_t> idx1,
                      const LogPair* terms) {
  const std::size_t n0 = idx0.size();
  const std::size_t n1 = idx1.size();
  const std::size_t shared = n0 < n1 ? n0 : n1;
  const std::uint32_t* i0 = idx0.data();
  const std::uint32_t* i1 = idx1.data();
  __m256d accA = _mm256_setzero_pd();  // lanes [c0.t, c0.f, c1.t, c1.f]
  __m256d accB = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 2 <= shared; k += 2) {
    accA = _mm256_add_pd(
        accA, join_pairs(load_pair(terms, i0[k]),
                         load_pair(terms, i1[k])));
    accB = _mm256_add_pd(
        accB, join_pairs(load_pair(terms, i0[k + 1]),
                         load_pair(terms, i1[k + 1])));
  }
  __m256d s = _mm256_add_pd(accA, accB);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  LogPair r0{acc0.t + lanes[0], acc0.f + lanes[1]};
  LogPair r1{acc1.t + lanes[2], acc1.f + lanes[3]};
  for (; k < shared; ++k) {
    const LogPair& p0 = terms[i0[k]];
    const LogPair& p1 = terms[i1[k]];
    r0.t += p0.t;
    r0.f += p0.f;
    r1.t += p1.t;
    r1.f += p1.f;
  }
  if (k < n0) r0 = gather_add_avx2(r0, idx0.subspan(k), terms);
  if (k < n1) r1 = gather_add_avx2(r1, idx1.subspan(k), terms);
  acc0 = r0;
  acc1 = r1;
}

// The per-element table select stays a scalar conditional move on the
// row pointer (exactly the scalar kernel's trick); only the
// accumulation is vectorized, with the same partial-chain order as
// gather_add_avx2.
LogPair gather_add_select_avx2(LogPair acc,
                               std::span<const std::uint32_t> idx,
                               std::span<const char> flags,
                               const LogPair* indep, const LogPair* dep) {
  const std::size_t n = idx.size();
  const std::uint32_t* ix = idx.data();
  const char* fl = flags.data();
  const LogPair* const sel[2] = {indep, dep};
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 = _mm256_add_pd(
        acc0, join_pairs(load_pair(sel[fl[k] != 0], ix[k]),
                         load_pair(sel[fl[k + 1] != 0], ix[k + 1])));
    acc1 = _mm256_add_pd(
        acc1, join_pairs(load_pair(sel[fl[k + 2] != 0], ix[k + 2]),
                         load_pair(sel[fl[k + 3] != 0], ix[k + 3])));
  }
  __m256d s = _mm256_add_pd(acc0, acc1);
  __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(s),
                            _mm256_extractf128_pd(s, 1));
  double at = acc.t + _mm_cvtsd_f64(pair);
  double af = acc.f + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; k < n; ++k) {
    const LogPair& p = sel[fl[k] != 0][ix[k]];
    at += p.t;
    af += p.f;
  }
  return {at, af};
}

// Summation order: two 4-lane hardware-gather chains (elements k mod 8
// in {0..3} vs {4..7}), reduced (lo+hi per chain pair) then lane 0 +
// lane 1, then the tail in element order.
double gather_sum_avx2(std::span<const std::uint32_t> idx,
                       const double* values) {
  const std::size_t n = idx.size();
  const std::uint32_t* ix = idx.data();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ix + k));
    __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ix + k + 4));
    acc0 = _mm256_add_pd(acc0, gather4(values, v0));
    acc1 = _mm256_add_pd(acc1, gather4(values, v1));
  }
  __m256d s = _mm256_add_pd(acc0, acc1);
  __m128d r = _mm_add_pd(_mm256_castpd256_pd128(s),
                         _mm256_extractf128_pd(s, 1));
  double sum =
      _mm_cvtsd_f64(r) + _mm_cvtsd_f64(_mm_unpackhi_pd(r, r));
  for (; k < n; ++k) sum += values[ix[k]];
  return sum;
}

// Same chain layout as gather_sum_avx2, for both the z and the 1-z
// accumulators.
MassPair gather_mass_avx2(std::span<const std::uint32_t> idx,
                          const double* posterior) {
  const std::size_t n = idx.size();
  const std::uint32_t* ix = idx.data();
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d z0 = _mm256_setzero_pd(), z1 = _mm256_setzero_pd();
  __m256d y0 = _mm256_setzero_pd(), y1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ix + k));
    __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ix + k + 4));
    __m256d p0 = gather4(posterior, v0);
    __m256d p1 = gather4(posterior, v1);
    z0 = _mm256_add_pd(z0, p0);
    z1 = _mm256_add_pd(z1, p1);
    y0 = _mm256_add_pd(y0, _mm256_sub_pd(one, p0));
    y1 = _mm256_add_pd(y1, _mm256_sub_pd(one, p1));
  }
  __m256d zs = _mm256_add_pd(z0, z1);
  __m256d ys = _mm256_add_pd(y0, y1);
  __m128d zr = _mm_add_pd(_mm256_castpd256_pd128(zs),
                          _mm256_extractf128_pd(zs, 1));
  __m128d yr = _mm_add_pd(_mm256_castpd256_pd128(ys),
                          _mm256_extractf128_pd(ys, 1));
  MassPair acc;
  acc.z = _mm_cvtsd_f64(zr) + _mm_cvtsd_f64(_mm_unpackhi_pd(zr, zr));
  acc.y = _mm_cvtsd_f64(yr) + _mm_cvtsd_f64(_mm_unpackhi_pd(yr, yr));
  for (; k < n; ++k) {
    acc.z += posterior[ix[k]];
    acc.y += 1.0 - posterior[ix[k]];
  }
  return acc;
}

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

// Four sources per iteration: the four log vectors are built
// lane-parallel, then 4×4-transposed into the AoS SweepWeights
// records. Degenerate probabilities fall back to the scalar rows.
void sweep_weights_avx2(std::size_t n, const double* p_claim_true,
                        const double* p_claim_false, SweepWeights* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d p1 = _mm256_loadu_pd(p_claim_true + i);
    __m256d p0 = _mm256_loadu_pd(p_claim_false + i);
    if (any_degenerate_rate(p1) || any_degenerate_rate(p0)) {
      for (std::size_t l = i; l < i + 4; ++l) {
        out[l] = {std::log(p_claim_true[l]), std::log1p(-p_claim_true[l]),
                  std::log(p_claim_false[l]),
                  std::log1p(-p_claim_false[l])};
      }
      continue;
    }
    __m256d l1 = vec::log_pd(p1);
    __m256d l1n = vec::log1p_pd(vec::negate_pd(p1));
    __m256d l0 = vec::log_pd(p0);
    __m256d l0n = vec::log1p_pd(vec::negate_pd(p0));
    __m256d t0 = _mm256_unpacklo_pd(l1, l1n);  // [s0: t1,t1n | s2: t1,t1n]
    __m256d t1 = _mm256_unpackhi_pd(l1, l1n);  // [s1 | s3]
    __m256d t2 = _mm256_unpacklo_pd(l0, l0n);  // [s0: f1,f1n | s2: ...]
    __m256d t3 = _mm256_unpackhi_pd(l0, l0n);
    _mm256_storeu_pd(&out[i].log_t1, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(&out[i + 1].log_t1,
                     _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(&out[i + 2].log_t1,
                     _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(&out[i + 3].log_t1,
                     _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; i < n; ++i) {
    out[i] = {std::log(p_claim_true[i]), std::log1p(-p_claim_true[i]),
              std::log(p_claim_false[i]), std::log1p(-p_claim_false[i])};
  }
}

// Two sources per unpack step, four per iteration across two partial
// chains; the selected weights themselves are exact table values (a
// lane blend, not arithmetic), so the only divergence from scalar is
// the partial-sum order. Reduction: (chainA + chainB) lanewise, then
// per-hypothesis lane pairs low-to-high, then the tail in source
// order.
LogPair sum_state_logs_avx2(std::span<const char> bits,
                            const SweepWeights* w) {
  const std::size_t n = bits.size();
  const char* bp = bits.data();
  const double* base = &w[0].log_t1;
  __m256d accA = _mm256_setzero_pd();
  __m256d accB = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d w0 = _mm256_loadu_pd(base + 4 * i);
    __m256d w1 = _mm256_loadu_pd(base + 4 * (i + 1));
    __m256d w2 = _mm256_loadu_pd(base + 4 * (i + 2));
    __m256d w3 = _mm256_loadu_pd(base + 4 * (i + 3));
    // unpacklo = claim weights [t1_i, t1_i1, f1_i, f1_i1], unpackhi =
    // the silent counterparts; blend picks per-source by its bit.
    __m256d claim01 = _mm256_unpacklo_pd(w0, w1);
    __m256d silent01 = _mm256_unpackhi_pd(w0, w1);
    __m256d claim23 = _mm256_unpacklo_pd(w2, w3);
    __m256d silent23 = _mm256_unpackhi_pd(w2, w3);
    accA = _mm256_add_pd(
        accA,
        _mm256_blendv_pd(silent01, claim01, byte_mask2(bp[i], bp[i + 1])));
    accB = _mm256_add_pd(
        accB, _mm256_blendv_pd(silent23, claim23,
                               byte_mask2(bp[i + 2], bp[i + 3])));
  }
  __m256d s = _mm256_add_pd(accA, accB);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  double lt = lanes[0] + lanes[1];
  double lf = lanes[2] + lanes[3];
  for (; i < n; ++i) {
    lt += bp[i] ? w[i].log_t1 : w[i].log_t1n;
    lf += bp[i] ? w[i].log_f1 : w[i].log_f1n;
  }
  return {lt, lf};
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
using kernels::MassPair;
using kernels::SweepWeights;

bool avx2_compiled() { return false; }

LogPair gather_add_avx2(LogPair, std::span<const std::uint32_t>,
                        const LogPair*) {
  std::abort();
}
void gather_add2_avx2(LogPair&, std::span<const std::uint32_t>, LogPair&,
                      std::span<const std::uint32_t>, const LogPair*) {
  std::abort();
}
LogPair gather_add_select_avx2(LogPair, std::span<const std::uint32_t>,
                               std::span<const char>, const LogPair*,
                               const LogPair*) {
  std::abort();
}
double gather_sum_avx2(std::span<const std::uint32_t>, const double*) {
  std::abort();
}
MassPair gather_mass_avx2(std::span<const std::uint32_t>, const double*) {
  std::abort();
}
void finalize_columns_avx2(const double*, const double*, std::size_t,
                           double*, double*, double*) {
  std::abort();
}
void ext_table_rows_avx2(std::size_t, const double*, bool, LogPair*,
                         LogPair*, LogPair*, LogPair*) {
  std::abort();
}
void sweep_weights_avx2(std::size_t, const double*, const double*,
                        SweepWeights*) {
  std::abort();
}
LogPair sum_state_logs_avx2(std::span<const char>, const SweepWeights*) {
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
