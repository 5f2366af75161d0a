// Apollo-style fact-finding pipeline.
//
// The paper integrates EM-Ext into the Apollo fact-finding tool; this
// module is that tool's equivalent: it ties together ingestion (the
// Twitter substrate's clustering + dependency extraction), an estimator
// chosen by name, and ranked credible-assertion output.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "twitter/builder.h"

namespace ss {

struct RankedAssertion {
  std::uint32_t assertion = 0;
  double belief = 0.0;
  Label truth = Label::kUnknown;  // ground truth when available
  std::size_t support = 0;        // number of claimants
};

struct PipelineReport {
  std::string estimator;
  EstimateResult estimate;
  std::vector<RankedAssertion> ranked;  // descending belief

  // Top-k slice.
  std::vector<RankedAssertion> top(std::size_t k) const;
};

class ApolloPipeline {
 public:
  // `estimator_name` must be one of estimator_names().
  explicit ApolloPipeline(std::string estimator_name);

  // Runs the estimator on an ingested dataset.
  PipelineReport analyze(const Dataset& dataset,
                         std::uint64_t seed = 1) const;

  // Full path: raw simulation -> ingestion -> estimation.
  PipelineReport analyze(const TwitterSimulation& sim,
                         std::uint64_t seed = 1) const;

 private:
  std::string estimator_name_;
  std::unique_ptr<Estimator> estimator_;
};

}  // namespace ss
