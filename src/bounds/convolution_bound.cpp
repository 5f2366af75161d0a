#include "bounds/convolution_bound.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/logprob.h"

namespace ss {
namespace {

// Distribution of sum_i lambda_i under one hypothesis, on a uniform
// grid. Probability mass belonging to value x is accumulated into the
// nearest grid cell; each convolution step shifts the running vector by
// the two per-source outcomes and mixes with their probabilities.
struct GridDist {
  double lo;       // value of cell 0
  double step;
  std::vector<double> mass;

  std::size_t cell_of(double x) const {
    double idx = (x - lo) / step;
    long k = std::lround(idx);
    k = std::max(0L, std::min(static_cast<long>(mass.size()) - 1, k));
    return static_cast<std::size_t>(k);
  }
};

GridDist convolve_two_point(const std::vector<double>& claim_shift,
                            const std::vector<double>& silent_shift,
                            const std::vector<double>& claim_prob,
                            std::size_t cells) {
  std::size_t n = claim_shift.size();
  // Grid range: the extreme achievable sums, padded one step.
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    min_sum += std::min(claim_shift[i], silent_shift[i]);
    max_sum += std::max(claim_shift[i], silent_shift[i]);
  }
  if (max_sum <= min_sum) max_sum = min_sum + 1.0;
  GridDist dist;
  dist.step = (max_sum - min_sum) / static_cast<double>(cells - 1);
  dist.lo = min_sum;
  // Build incrementally, re-anchoring so cell 0 tracks the running
  // minimum partial sum: the support only ever spans the outcomes added
  // so far, which keeps intermediate vectors small.
  std::vector<double> cur(1, 1.0);
  double cur_lo = 0.0;
  double cur_step = dist.step;
  for (std::size_t i = 0; i < n; ++i) {
    double lo_next = cur_lo + std::min(claim_shift[i], silent_shift[i]);
    std::size_t len_next = std::min(
        cells, cur.size() + static_cast<std::size_t>(
                                std::ceil(std::fabs(claim_shift[i] -
                                                    silent_shift[i]) /
                                          cur_step)) +
                   2);
    std::vector<double> next(len_next, 0.0);
    auto add = [&](double value_lo_offset, double prob) {
      if (prob <= 0.0) return;
      for (std::size_t k = 0; k < cur.size(); ++k) {
        if (cur[k] <= 0.0) continue;
        double value = cur_lo + static_cast<double>(k) * cur_step +
                       value_lo_offset;
        double idx = (value - lo_next) / cur_step;
        long cell = std::lround(idx);
        cell = std::max(
            0L, std::min(static_cast<long>(len_next) - 1, cell));
        next[static_cast<std::size_t>(cell)] += cur[k] * prob;
      }
    };
    add(claim_shift[i], claim_prob[i]);
    add(silent_shift[i], 1.0 - claim_prob[i]);
    cur = std::move(next);
    cur_lo = lo_next;
  }
  dist.lo = cur_lo;
  dist.mass = std::move(cur);
  return dist;
}

// P(sum + threshold_shift >= 0) over the grid distribution.
double mass_at_or_above(const GridDist& dist, double threshold) {
  double total = 0.0;
  for (std::size_t k = 0; k < dist.mass.size(); ++k) {
    double value = dist.lo + static_cast<double>(k) * dist.step;
    if (value >= threshold) total += dist.mass[k];
  }
  return total;
}

}  // namespace

BoundResult convolution_bound(const ColumnModel& model,
                              const ConvolutionBoundConfig& config) {
  if (!model.valid()) {
    throw std::invalid_argument(
        "convolution_bound: rates and z must lie in [0, 1], one rate "
        "pair per source");
  }
  std::size_t n = model.source_count();
  std::vector<double> claim_shift(n);
  std::vector<double> silent_shift(n);
  std::vector<double> p1(n);
  std::vector<double> p0(n);
  for (std::size_t i = 0; i < n; ++i) {
    p1[i] = clamp_prob(model.p_claim_true[i]);
    p0[i] = clamp_prob(model.p_claim_false[i]);
    claim_shift[i] = safe_log(p1[i]) - safe_log(p0[i]);
    silent_shift[i] = safe_log1m(p1[i]) - safe_log1m(p0[i]);
  }
  double z = clamp_prob(model.z);
  double threshold = -logit(z);

  BoundResult result;
  if (n == 0) {
    bool decide_true = 0.0 >= threshold;
    if (decide_true) {
      result.false_positive = 1.0 - z;
    } else {
      result.false_negative = z;
    }
    result.error = result.false_positive + result.false_negative;
    return result;
  }

  // Under C=1 the claim probabilities are p1; under C=0 they are p0.
  GridDist under_true = convolve_two_point(claim_shift, silent_shift, p1,
                                           config.grid_cells);
  GridDist under_false = convolve_two_point(claim_shift, silent_shift,
                                            p0, config.grid_cells);

  // decide true <=> L >= threshold. Errors: truth and decided false
  // (false negative), or false and decided true (false positive).
  double p_decide_true_given_true = mass_at_or_above(under_true,
                                                     threshold);
  double p_decide_true_given_false = mass_at_or_above(under_false,
                                                      threshold);
  result.false_negative = z * (1.0 - p_decide_true_given_true);
  result.false_positive = (1.0 - z) * p_decide_true_given_false;
  result.error = result.false_positive + result.false_negative;
  return result;
}

}  // namespace ss
