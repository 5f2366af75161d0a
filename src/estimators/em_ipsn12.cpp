#include "estimators/em_ipsn12.h"

#include <utility>

#include "core/em_ext.h"

namespace ss {

EstimateResult EmIpsn12Estimator::run(const Dataset& dataset,
                                      std::uint64_t seed) const {
  return run_detailed(dataset, seed).estimate;
}

EmIpsn12Result EmIpsn12Estimator::run_detailed(const Dataset& dataset,
                                               std::uint64_t seed) const {
  dataset.validate();
  // The view: the same claims and no exposed cell, so every claim is
  // independent and f, g are never read.
  Dataset view;
  view.claims = dataset.claims;
  view.dependency = DependencyIndicators::from_cells(
      dataset.source_count(), dataset.assertion_count(), {});
  EmExtConfig config;
  config.warmup_iters = 0;
  EmExtResult fit = EmExtEstimator(config).run_detailed(view, seed);

  EmIpsn12Result result;
  result.estimate = std::move(fit.estimate);
  result.a.reserve(fit.params.source.size());
  result.b.reserve(fit.params.source.size());
  for (const SourceParams& s : fit.params.source) {
    result.a.push_back(s.a);
    result.b.push_back(s.b);
  }
  result.z = fit.params.z;
  return result;
}

}  // namespace ss
