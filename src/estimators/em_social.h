// EM-Social (IPSN 2014) baseline — Wang et al., "Using Humans as Sensors:
// An Estimation-Theoretic Perspective".
//
// Improves on EM (IPSN'12) by acknowledging source dependencies, but in
// the bluntest way: dependent claims are assumed to carry *no* information
// and every cell with D_ij = 1 is removed from the likelihood and the
// parameter updates — as if the dependent source had never spoken. EM-Ext
// replaces this deletion with the learned (f_i, g_i) rates.
//
// A data view on the EM-Ext engine: EmExtEstimator, without its f=g
// warm-up, runs on the D_ij = 0 claims only, with D kept. Every f and g
// numerator is then 0, so both fit to exactly kEmClampEps; each exposed
// cell's factor is the same under both hypotheses and cancels from the
// posterior, and the a, b denominators already exclude exposed cells.
// That cancellation is the deletion (docs/MODEL.md §1). Init,
// shrinkage, z floor, convergence test and parallelism are EM-Ext's
// defaults, so estimator comparisons isolate the dependency model.
#pragma once

#include "core/estimator.h"

namespace ss {

class EmSocialEstimator : public Estimator {
 public:
  std::string name() const override { return "EM-Social"; }
  EstimateResult run(const Dataset& dataset,
                     std::uint64_t seed) const override;
};

}  // namespace ss
