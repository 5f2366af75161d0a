#include "math/kernels.h"

#include <stdexcept>

namespace ss {
namespace kernels {

double tree_sum(ThreadPool* pool, const double* values, std::size_t n) {
  return tree_reduce(
      pool, n, 0.0,
      [values](std::size_t b, std::size_t e) {
        double acc = 0.0;
        for (std::size_t i = b; i < e; ++i) acc += values[i];
        return acc;
      },
      [](double a, double b) { return a + b; });
}

void ExtLogTable::build_rows(std::size_t n, double z, const double* rates4,
                             bool clamp, ThreadPool* pool) {
  if (exposed_silent_.size() != n) {
    exposed_silent_.resize(n);
    claim_indep_.resize(n);
    claim_dep_.resize(n);
    silent_.resize(n);
  }
  log_z_ = std::log(z);
  log_1mz_ = std::log1p(-z);
  LogPair* es = exposed_silent_.data();
  LogPair* ci = claim_indep_.data();
  LogPair* cd = claim_dep_.data();
  LogPair* sil = silent_.data();
  const bool avx2 = simd::avx2_active();
  for_each_chunk(
      pool, n, kSourceChunk,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        if (avx2) {
          simd::ext_table_rows_avx2(end - begin, rates4 + 4 * begin, clamp,
                                    es + begin, ci + begin, cd + begin,
                                    sil + begin);
          return;
        }
        for (std::size_t i = begin; i < end; ++i) {
          const double* r = rates4 + 4 * i;
          double a = clamp ? clamp_prob(r[0]) : r[0];
          double b = clamp ? clamp_prob(r[1]) : r[1];
          double f = clamp ? clamp_prob(r[2]) : r[2];
          double g = clamp ? clamp_prob(r[3]) : r[3];
          double log_na = std::log1p(-a);
          double log_nb = std::log1p(-b);
          double log_nf = std::log1p(-f);
          double log_ng = std::log1p(-g);
          sil[i] = {log_na, log_nb};
          es[i] = {log_nf - log_na, log_ng - log_nb};
          ci[i] = {std::log(a) - log_na, std::log(b) - log_nb};
          cd[i] = {std::log(f) - log_nf, std::log(g) - log_ng};
        }
      });
  // The all-silent baseline: the stored pairs added in source order,
  // the same additions a running sum inside the row loop makes, so the
  // bits do not depend on how the rows above were scheduled.
  double base_t = 0.0;
  double base_f = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    base_t += sil[i].t;
    base_f += sil[i].f;
  }
  base_ = {base_t, base_f};
}

std::size_t finalize_params(std::size_t n, const double* stats6,
                            double total_z, double total_y,
                            const double* cells, const double* cmu,
                            double lo, double hi, bool tie_fg,
                            double* params4, double* delta_max) {
  if (n >= 4 && simd::avx2_active()) {
    return simd::finalize_params_avx2(n, stats6, total_z, total_y, cells,
                                      cmu, lo, hi, tie_fg, params4,
                                      delta_max);
  }
  std::size_t sanitized = 0;
  double dmax = *delta_max;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = stats6 + 6 * i;
    double* p = params4 + 4 * i;
    double prev[4] = {p[0], p[1], p[2], p[3]};
    // Derived denominators; single correctly-rounded subtractions in
    // the documented order, bitwise the historical fill-time fields.
    const double ez = row[4];
    const double t1 = row[5] - ez;
    const double denoms[4] = {total_z - ez, total_y - t1, ez, t1};
    for (std::size_t k = 0; k < 4; ++k) {
      double denom = denoms[k];
      double d = denom + cells[k];
      double raw = d > 0.0 ? (row[k] + cmu[k]) / d : prev[k];
      // NaN-propagating clamp (comparisons are false on NaN, so a NaN
      // raw value survives to the sanitize check; ±inf clamps to a
      // bound and is NOT counted — matching the historical
      // clamp-then-sanitize order).
      double c = raw < lo ? lo : raw;
      c = c > hi ? hi : c;
      if (!(c == c)) {
        c = prev[k];
        ++sanitized;
      }
      p[k] = c;
    }
    if (tie_fg) {
      double fg = 0.5 * (p[2] + p[3]);
      p[2] = fg;
      p[3] = fg;
    }
    for (std::size_t k = 0; k < 4; ++k) {
      double diff = std::fabs(p[k] - prev[k]);
      if (diff > dmax) dmax = diff;
    }
  }
  *delta_max = dmax;
  return sanitized;
}

void build_sweep_weights(std::span<const double> p_claim_true,
                         std::span<const double> p_claim_false,
                         std::vector<SweepWeights>& out) {
  if (p_claim_true.size() != p_claim_false.size()) {
    throw std::invalid_argument(
        "build_sweep_weights: rate vector size mismatch");
  }
  std::size_t n = p_claim_true.size();
  if (out.size() != n) out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double p1 = p_claim_true[i];
    double p0 = p_claim_false[i];
    out[i] = {std::log(p1), std::log1p(-p1), std::log(p0),
              std::log1p(-p0)};
  }
}

void SweepWeightsTable::build(std::span<const double> p_claim_true,
                              std::span<const double> p_claim_false) {
  build_sweep_weights(p_claim_true, p_claim_false, records_);
  // The packed companion only pays off when the masked-sum kernel can
  // run, so it is built exactly when that kernel would be picked.
  packed_ = records_.size() >= 8 && simd::avx2_active();
  if (!packed_) {
    delta_t_.clear();
    delta_f_.clear();
    silent_base_ = {0.0, 0.0};
    return;
  }
  std::size_t n = records_.size();
  delta_t_.resize(n);
  delta_f_.resize(n);
  double base_t = 0.0;
  double base_f = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const SweepWeights& w = records_[i];
    delta_t_[i] = w.log_t1 - w.log_t1n;
    delta_f_[i] = w.log_f1 - w.log_f1n;
    base_t += w.log_t1n;
    base_f += w.log_f1n;
  }
  silent_base_ = {base_t, base_f};
}

void finalize_columns(const double* la, const double* lb, std::size_t n,
                      double* posterior, double* log_odds,
                      double* column_ll) {
  if (n >= 4 && simd::avx2_active()) {
    simd::finalize_columns_avx2(la, lb, n, posterior, log_odds, column_ll);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    ColumnStats s = finalize_column(la[j], lb[j]);
    posterior[j] = s.posterior;
    log_odds[j] = s.log_odds;
    column_ll[j] = s.log_likelihood;
  }
}

}  // namespace kernels
}  // namespace ss
