#include "estimators/em_social.h"

#include <vector>

#include "core/em_ext.h"

namespace ss {

EstimateResult EmSocialEstimator::run(const Dataset& dataset,
                                      std::uint64_t seed) const {
  dataset.validate();
  // The view: the D_ij = 0 claims, with the exposure kept, so a deleted
  // claim stays an exposed (silent) cell. EM never reads claim times.
  std::vector<Claim> kept;
  for (std::uint32_t i = 0; i < dataset.source_count(); ++i) {
    split_claims(dataset.claims.claims_of(i),
                 dataset.dependency.exposed_assertions(i),
                 [&](std::uint32_t j, bool dependent) {
                   if (!dependent) kept.push_back({i, j, 0.0});
                 });
  }
  Dataset view;
  view.claims = SourceClaimMatrix(dataset.source_count(),
                                  dataset.assertion_count(), kept);
  view.dependency = dataset.dependency;
  EmExtConfig config;
  config.warmup_iters = 0;
  return EmExtEstimator(config).run(view, seed);
}

}  // namespace ss
