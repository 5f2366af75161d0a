// Deterministic approximate error bound via log-likelihood-ratio
// convolution.
//
// The optimal estimator decides by the sign of
//   L = sum_i lambda_i + logit(z),
// where each source contributes a two-point random variable
//   lambda_i = log(p1_i / p0_i)           if source i claims
//            = log((1-p1_i) / (1-p0_i))   otherwise,
// with claim probability p1_i under C=1 and p0_i under C=0. The Bayes
// risk of Eq. 3 is then
//   Err = z * P(L < 0 | C=1) + (1-z) * P(L >= 0 | C=0),
// and the distribution of the sum is computed *exactly up to grid
// resolution* by convolving the n two-point distributions on a uniform
// grid — O(n * grid) deterministic work instead of exponential
// enumeration or MCMC sampling. This is the library's third bound algorithm, compared
// against exact enumeration and Gibbs in ablation A6.
#pragma once

#include <cstddef>

#include "bounds/exact_bound.h"

namespace ss {

struct ConvolutionBoundConfig {
  // Grid cells for the LLR distribution; accuracy is O(n * step) where
  // step = (range)/cells, so a few thousand cells reach ~1e-3 even at
  // n = 100.
  std::size_t grid_cells = 8192;
};

// Ties on the decision boundary are counted toward "decide true",
// matching exact_bound's >= comparison. Throws std::invalid_argument
// when !model.valid(); rates of exactly 0 or 1 are accepted and clamped
// into (0, 1).
BoundResult convolution_bound(const ColumnModel& model,
                              const ConvolutionBoundConfig& config = {});

}  // namespace ss
