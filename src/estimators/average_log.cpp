#include "estimators/average_log.h"

#include <cmath>

#include "math/kernels.h"
#include "math/matrix.h"

namespace ss {
namespace {

constexpr std::size_t kIterations = 20;

}  // namespace

EstimateResult AverageLogEstimator::run(const Dataset& dataset,
                                        std::uint64_t /*seed*/) const {
  dataset.validate();
  std::size_t n = dataset.source_count();
  std::size_t m = dataset.assertion_count();
  std::vector<double> trust(n, 1.0);
  std::vector<double> belief(m, 0.0);

  // Run-constant per-source log-degree (the claim lists never change),
  // hoisted out of the iteration loop.
  std::vector<double> log_deg(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t deg = dataset.claims.claims_of(i).size();
    // ss-analyze: allow(raw-log-exp): log of a claim *count* (AverageLog's degree weight), not a probability
    if (deg > 0) log_deg[i] = std::log(static_cast<double>(deg));
  }

  for (std::size_t it = 0; it < kIterations; ++it) {
    for (std::size_t j = 0; j < m; ++j) {
      belief[j] = kernels::gather_sum(dataset.claims.claimants_of(j),
                                      trust.data());
    }
    if (!normalize_max(belief)) {
      // Degenerate instance (e.g. every source has exactly one claim so
      // all trust collapsed to zero): fall back to claim counts.
      for (std::size_t j = 0; j < m; ++j) {
        belief[j] = static_cast<double>(dataset.claims.support(j));
      }
      normalize_max(belief);
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t deg = dataset.claims.claims_of(i).size();
      if (deg == 0) {
        trust[i] = 0.0;
        continue;
      }
      double acc =
          kernels::gather_sum(dataset.claims.claims_of(i), belief.data());
      trust[i] = log_deg[i] * acc / static_cast<double>(deg);
    }
    normalize_max(trust);
  }

  EstimateResult result;
  result.belief = std::move(belief);
  result.probabilistic = false;
  result.iterations = kIterations;
  return result;
}

}  // namespace ss
