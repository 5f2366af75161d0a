#include "estimators/sums.h"

#include "math/matrix.h"

namespace ss {
namespace {

constexpr std::size_t kIterations = 20;

}  // namespace

EstimateResult SumsEstimator::run(const Dataset& dataset,
                                  std::uint64_t /*seed*/) const {
  dataset.validate();
  std::size_t n = dataset.source_count();
  std::size_t m = dataset.assertion_count();
  std::vector<double> trust(n, 1.0);
  std::vector<double> belief(m, 0.0);

  for (std::size_t it = 0; it < kIterations; ++it) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::uint32_t v : dataset.claims.claimants_of(j)) {
        acc += trust[v];
      }
      belief[j] = acc;
    }
    normalize_max(belief);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::uint32_t j : dataset.claims.claims_of(i)) {
        acc += belief[j];
      }
      trust[i] = acc;
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
