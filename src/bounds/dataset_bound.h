// Dataset-level error bound: the expected misclassification rate of the
// optimal estimator over a whole problem instance, i.e. the per-assertion
// bound (Eq. 3 / Eq. 6) averaged over the m assertion columns.
//
// Columns sharing an exposure pattern have identical bounds (theta does
// not vary by assertion), so each distinct pattern is computed once, at
// its first-occurrence column — on the level-two-forest workloads this
// collapses m columns to only a handful of distinct computations. Every
// overload runs one task per distinct pattern on `pool` (nullptr selects
// global_pool()) and then averages serially in assertion order, so the
// result is bit-identical for every pool size. All overloads throw
// std::invalid_argument, before any pattern runs, when the params' source
// count differs from the dataset's.
#pragma once

#include <cstdint>

#include "bounds/gibbs_bound.h"
#include "core/params.h"
#include "data/dataset.h"
#include "data/shard.h"

namespace ss {

class ThreadPool;

struct DatasetBoundResult {
  BoundResult bound;        // averaged over assertions
  std::size_t distinct_patterns = 0;
  std::size_t columns = 0;
};

// Exact enumeration per distinct column pattern. Throws
// std::invalid_argument, before any pattern runs, when the source count
// exceeds kExactBoundMaxSources, and from the pool dispatch when a
// params rate or z is NaN (clamping keeps NaN, and exact_bound rejects
// the column model).
DatasetBoundResult exact_dataset_bound(const Dataset& dataset,
                                       const ModelParams& params,
                                       ThreadPool* pool = nullptr);

// Gibbs approximation per distinct column pattern. The pattern first
// seen at column j runs its chains from seed ^ (0x9e3779b97f4a7c15 *
// (j + 1)). A non-empty config.checkpoint_path checkpoints each pattern
// to its own file, `<checkpoint_path>.<j>`, since patterns run
// concurrently; a killed run re-invoked with the same path resumes every
// pattern bit-for-bit (gibbs_bound's checkpoint contract).
DatasetBoundResult gibbs_dataset_bound(const Dataset& dataset,
                                       const ModelParams& params,
                                       std::uint64_t seed,
                                       const GibbsBoundConfig& config = {},
                                       ThreadPool* pool = nullptr);

// The same bound over a ShardedDataset: bit-identical to the Dataset
// overload on the equivalent data for any shard layout and pool size.
DatasetBoundResult gibbs_dataset_bound(const ShardedDataset& sharded,
                                       const ModelParams& params,
                                       std::uint64_t seed,
                                       const GibbsBoundConfig& config = {},
                                       ThreadPool* pool = nullptr);

}  // namespace ss
