#include "estimators/truth_finder.h"

#include <algorithm>
#include <cmath>

#include "math/kernels.h"
#include "math/logprob.h"
#include "math/matrix.h"

namespace ss {
namespace {

constexpr double kInitialTrust = 0.9;
constexpr double kGamma = 0.3;  // dampening factor from the original paper
constexpr double kTol = 1e-6;   // on 1 - cosine(trust, previous trust)
constexpr std::size_t kMaxIters = 100;
constexpr double kMaxTrust = 1.0 - 1e-9;  // keeps tau finite

}  // namespace

EstimateResult TruthFinderEstimator::run(const Dataset& dataset,
                                         std::uint64_t /*seed*/) const {
  dataset.validate();
  std::size_t n = dataset.source_count();
  std::size_t m = dataset.assertion_count();
  std::vector<double> trust(n, kInitialTrust);
  std::vector<double> confidence(m, 0.0);

  std::size_t iters = 0;
  bool converged = false;
  std::vector<double> prev = trust;
  // Per-source claim weight -ln(1 - tau_i), constant within one
  // iteration; hoisted here so the confidence loop is a pure gather
  // (the per-incidence form paid one log1p per claim cell).
  std::vector<double> weight(n, 0.0);
  while (iters < kMaxIters && !converged) {
    ++iters;
    for (std::size_t i = 0; i < n; ++i) {
      double t = std::min(trust[i], kMaxTrust);
      weight[i] = -safe_log1m(t);
    }
    for (std::size_t j = 0; j < m; ++j) {
      double sigma = kernels::gather_sum(dataset.claims.claimants_of(j),
                                         weight.data());
      confidence[j] = sigmoid(kGamma * sigma);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& claims = dataset.claims.claims_of(i);
      if (claims.empty()) continue;
      double acc = kernels::gather_sum(claims, confidence.data());
      trust[i] = acc / static_cast<double>(claims.size());
    }
    double cos = cosine_similarity(prev, trust);
    converged = (1.0 - cos) <= kTol;
    prev = trust;
  }

  EstimateResult result;
  result.belief = std::move(confidence);
  result.probabilistic = false;  // sigmoid scores, not calibrated
  result.iterations = iters;
  result.converged = converged;
  return result;
}

}  // namespace ss
