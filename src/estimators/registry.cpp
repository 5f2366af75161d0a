#include "estimators/registry.h"

#include <stdexcept>

#include "core/em_ext.h"
#include "estimators/average_log.h"
#include "estimators/em_ipsn12.h"
#include "estimators/em_social.h"
#include "estimators/sums.h"
#include "estimators/truth_finder.h"
#include "estimators/voting.h"

namespace ss {

std::vector<std::string> estimator_names() {
  return {"EM-Ext", "EM-Social", "EM",          "Voting",
          "Sums",   "Average.Log", "Truth-Finder"};
}

std::unique_ptr<Estimator> make_estimator(const std::string& name) {
  if (name == "EM-Ext") return std::make_unique<EmExtEstimator>();
  if (name == "EM-Social") return std::make_unique<EmSocialEstimator>();
  if (name == "EM") return std::make_unique<EmIpsn12Estimator>();
  if (name == "Voting") return std::make_unique<VotingEstimator>();
  if (name == "Sums") return std::make_unique<SumsEstimator>();
  if (name == "Average.Log") return std::make_unique<AverageLogEstimator>();
  if (name == "Truth-Finder") return std::make_unique<TruthFinderEstimator>();
  throw std::invalid_argument("make_estimator: unknown estimator " + name);
}

std::vector<std::unique_ptr<Estimator>> make_all_estimators() {
  std::vector<std::unique_ptr<Estimator>> out;
  for (const std::string& name : estimator_names()) {
    out.push_back(make_estimator(name));
  }
  return out;
}

}  // namespace ss
