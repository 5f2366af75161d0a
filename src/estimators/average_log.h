// Average.Log baseline (Pasternack & Roth, COLING 2010).
//
// A Sums variant that trusts prolific sources more:
//   T(s) = log(|C_s|) * average belief of s's claims
//   B(c) = sum of T(s) over claimants
// for a fixed 20 rounds, as in Sums.
// Sources with a single claim get log(1) = 0 trust — faithful to the
// original formulation and one reason this heuristic is high-variance on
// sparse social data (paper Section V-C).
#pragma once

#include "core/estimator.h"

namespace ss {

class AverageLogEstimator : public Estimator {
 public:
  std::string name() const override { return "Average.Log"; }
  EstimateResult run(const Dataset& dataset,
                     std::uint64_t seed) const override;
};

}  // namespace ss
