// Per-assertion channel model used by the error-bound computations.
//
// For a fixed assertion j the behaviour of the n sources reduces to two
// Bernoulli rates per source, selected by that source's exposure D_ij
// (Section III, Eq. 4/5):
//   P(S_iC_j = 1 | C_j = 1) = a_i (unexposed) or f_i (exposed)
//   P(S_iC_j = 1 | C_j = 0) = b_i (unexposed) or g_i (exposed)
// A ColumnModel captures those 2n rates plus the prior z; both the exact
// enumeration and the Gibbs sampler operate on this flattened view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/params.h"
#include "data/dependency.h"

namespace ss {

struct ColumnModel {
  std::vector<double> p_claim_true;   // P(claim | C=1) per source
  std::vector<double> p_claim_false;  // P(claim | C=0) per source
  double z = 0.5;                     // P(C = 1)

  std::size_t source_count() const { return p_claim_true.size(); }
  // Both rate vectors have one entry per source, and every rate and z
  // lies in [0, 1] (NaN does not).
  bool valid() const;
};

// Builds the column model for `assertion` from full model parameters and
// the dependency indicators. Rates are clamped into (0,1) so logs and
// leave-one-out divisions stay finite.
ColumnModel make_column_model(const ModelParams& params,
                              const DependencyIndicators& dep,
                              std::size_t assertion,
                              double clamp_eps = 1e-12);

// Same model from an explicit exposed-source list (a ShardedDataset
// column slice, data/shard.h). The DependencyIndicators overload
// delegates here, so both produce bit-identical rates for equal lists.
ColumnModel make_column_model(const ModelParams& params,
                              std::span<const std::uint32_t> exposed_sources,
                              double clamp_eps = 1e-12);

// Variant taking an explicit exposure mask (tests, hand-built scenarios).
ColumnModel make_column_model(const ModelParams& params,
                              const std::vector<bool>& exposed,
                              double clamp_eps = 1e-12);

// Hash key identifying the exposure pattern of a column given shared
// params; columns with equal keys have identical bounds, which the
// dataset-level computation exploits for memoization.
std::uint64_t exposure_pattern_key(const DependencyIndicators& dep,
                                   std::size_t assertion);

// Same key from an explicit exposed-source list; equal lists hash
// equal, so sharded and flat memoization agree.
std::uint64_t exposure_pattern_key(
    std::span<const std::uint32_t> exposed_sources);

}  // namespace ss
