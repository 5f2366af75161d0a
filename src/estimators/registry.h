// Name-based estimator factory used by examples, benches and the Apollo
// pipeline. Covers the seven algorithms of the paper's empirical study
// (Section V-C): EM-Ext, EM-Social, EM, Voting, Sums, Average.Log,
// Truth-Finder.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"

namespace ss {

// The paper's empirical-study lineup (Fig. 11), in the paper's order.
std::vector<std::string> estimator_names();

// Constructs the named estimator with its default configuration.
// Throws std::invalid_argument for unknown names.
std::unique_ptr<Estimator> make_estimator(const std::string& name);

// Constructs every estimator (the empirical-study lineup).
std::vector<std::unique_ptr<Estimator>> make_all_estimators();

}  // namespace ss
