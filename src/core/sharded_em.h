// EM-Ext over a ShardedDataset: the one EM-Ext engine.
//
// ShardedEmEstimator runs the paper's E/M iteration (em_ext.h) over the
// per-shard CSR slices built by ShardedDataset (data/shard.h): each
// work unit reads one shard's claimant/exposed lists — which reference
// only that shard's sources — so the hot loops stay within a
// shard-sized working set, and shards spread across the thread pool.
// EmExtEstimator::run_detailed is this engine behind a
// ShardedDataset::build with the auto cap.
//
// Sharding is an execution strategy, never an approximation: all ids
// stay global, the likelihood base / pooled shrinkage rates / prior z
// are computed over all sources, and every per-column and per-source
// gather walks the dataset's ascending list order whatever the layout.
// Work units (shard-confined column/source ranges) are sorted
// heaviest first once, when the engine plans them, and handed to
// ThreadPool::parallel_for_chunks one unit per chunk, so a free worker
// always takes the heaviest unit left and a skewed shard histogram does
// not serialize on its largest shard. Dispatch order is free because
// units only scatter into disjoint index-addressed slots; every global
// floating-point reduction (column log-likelihood, M-step pooling,
// update deltas) then runs through the fixed-shape tree reductions of
// math/kernels.h, whose shape depends only on the element count. For a
// fixed kernel backend the results are therefore bit-identical for any
// shard layout, any thread count and any dispatch order —
// tests/test_shard.cpp pins this on every backend the host supports
// (docs/MODEL.md §12, §16). The checkpoint
// fingerprint depends on the dataset shape, not the layout, so a run
// checkpointed through either entry point resumes through the other.
#pragma once

#include <cstdint>

#include "core/em_ext.h"
#include "data/shard.h"

namespace ss {

class ShardedEmEstimator {
 public:
  explicit ShardedEmEstimator(EmExtConfig config = {});

  // Same contract as EmExtEstimator::run / run_detailed, with the
  // incidence supplied as shards; every EmExtConfig field means the
  // same thing.
  EstimateResult run(const ShardedDataset& sharded,
                     std::uint64_t seed) const;
  EmExtResult run_detailed(const ShardedDataset& sharded,
                           std::uint64_t seed) const;

 private:
  EmExtConfig config_;
};

}  // namespace ss
