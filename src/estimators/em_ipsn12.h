// EM (IPSN 2012) baseline — Wang et al., "On Truth Discovery in Social
// Sensing: A Maximum Likelihood Estimation Approach".
//
// Jointly estimates per-source reliabilities (a_i, b_i) and assertion
// truth values under the assumption that *all* sources are independent:
// the dependency indicators are ignored entirely. This is the estimator
// whose false-positive rate degrades as dependent sources multiply
// (paper Fig. 7), motivating EM-Ext.
//
// A data view on the EM-Ext engine: EmExtEstimator, without its f=g
// warm-up, runs on the same claims with an empty dependency matrix.
// With no exposed cell and no dependent claim, f and g never enter a
// column, which is the independent-source model f_i = a_i, g_i = b_i
// exactly (docs/MODEL.md §1). Init, shrinkage, z floor, convergence
// test and parallelism are EM-Ext's defaults, so estimator comparisons
// isolate the dependency model.
#pragma once

#include <vector>

#include "core/estimator.h"

namespace ss {

struct EmIpsn12Result {
  EstimateResult estimate;
  std::vector<double> a;  // P(claim | true)
  std::vector<double> b;  // P(claim | false)
  double z = 0.5;
};

class EmIpsn12Estimator : public Estimator {
 public:
  std::string name() const override { return "EM"; }
  EstimateResult run(const Dataset& dataset,
                     std::uint64_t seed) const override;
  EmIpsn12Result run_detailed(const Dataset& dataset,
                              std::uint64_t seed) const;
};

}  // namespace ss
