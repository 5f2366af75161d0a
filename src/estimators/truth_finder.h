// Truth-Finder baseline (Yin, Han & Yu, TKDE 2008).
//
// Couples source trustworthiness and claim confidence:
//   tau(s)   = -ln(1 - t(s))                  (trust score)
//   sigma(c) = sum of tau(s) over claimants   (raw confidence)
//   conf(c)  = 1 / (1 + exp(-gamma * sigma(c)))
//   t(s)     = average conf over s's claims
// iterated until the source-trust vector stabilizes (cosine similarity).
// The inter-claim "implication" term of the original paper does not apply
// to independent binary assertions and is omitted, as in the paper's use
// of this baseline.
#pragma once

#include "core/estimator.h"

namespace ss {

class TruthFinderEstimator : public Estimator {
 public:
  std::string name() const override { return "Truth-Finder"; }
  EstimateResult run(const Dataset& dataset,
                     std::uint64_t seed) const override;
};

}  // namespace ss
