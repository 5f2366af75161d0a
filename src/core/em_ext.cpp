#include "core/em_ext.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/sharded_em.h"
#include "data/shard.h"
#include "math/kernels.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

std::vector<std::uint32_t> ranking_of(const std::vector<double>& belief) {
  std::vector<std::uint32_t> order(belief.size());
  for (std::size_t j = 0; j < belief.size(); ++j) {
    order[j] = static_cast<std::uint32_t>(j);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return belief[x] > belief[y];
                   });
  return order;
}

}  // namespace

std::vector<std::uint32_t> EstimateResult::ranking() const {
  return ranking_of(log_odds.size() == belief.size() && !belief.empty()
                        ? log_odds
                        : belief);
}

std::vector<double> vote_prior_from_support(std::vector<double> support) {
  const std::size_t m = support.size();
  if (m == 0) return support;
  // Tree-shaped like every other global fold (bit-exact no-op here:
  // support counts are integer-valued doubles, so the tree's regrouped
  // partial sums are exact at any shape).
  double mean_support = kernels::tree_sum(nullptr, support.data(), m);
  mean_support /= static_cast<double>(m);
  if (mean_support <= 0.0) {
    std::fill(support.begin(), support.end(), 0.5);
    return support;
  }
  for (double& s : support) {
    s = std::clamp(s / (s + mean_support), 0.05, 0.95);
  }
  return support;
}

EmExtEstimator::EmExtEstimator(EmExtConfig config)
    : config_(std::move(config)) {}

EstimateResult EmExtEstimator::run(const Dataset& dataset,
                                   std::uint64_t seed) const {
  return run_detailed(dataset, seed).estimate;
}

EmExtResult EmExtEstimator::run_detailed(const Dataset& dataset,
                                         std::uint64_t seed) const {
  ThreadPool* pool =
      config_.pool != nullptr ? config_.pool : &global_pool();
  // Auto cap: inputs up to 1024 assertions are one shard. build()
  // validates the dataset.
  ShardedDataset sharded = ShardedDataset::build(dataset, {0, pool});
  return ShardedEmEstimator(config_).run_detailed(sharded, seed);
}

}  // namespace ss
