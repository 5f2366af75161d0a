// Sums baseline (Pasternack & Roth, COLING 2010; Kleinberg-style
// hubs/authorities on the source-claim bipartite graph).
//
// Iterates
//   B(c) = sum of T(s) over sources claiming c
//   T(s) = sum of B(c) over assertions claimed by s
// with max-normalization each round to prevent blow-up, for a fixed 20
// rounds.
#pragma once

#include "core/estimator.h"

namespace ss {

class SumsEstimator : public Estimator {
 public:
  std::string name() const override { return "Sums"; }
  EstimateResult run(const Dataset& dataset,
                     std::uint64_t seed) const override;
};

}  // namespace ss
