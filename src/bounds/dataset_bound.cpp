#include "bounds/dataset_bound.h"

#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bounds/exact_bound.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// The walk every overload shares. `exposed(j)` is column j's exposed-
// source list; `bound_of(model, j)` is the bound of the pattern whose
// first occurrence is column j.
//  1. Serially, in assertion order, map each column to its distinct
//     exposure pattern, represented by its first-occurrence column.
//  2. Compute one bound per pattern on the pool (grain 1) into
//     pattern-indexed slots; nested pool use inside bound_of is safe
//     because pool callers take part in the work.
//  3. Serially, in assertion order, accumulate the average.
// Representatives and the addition order depend only on the data, so
// the result is bit-identical for every pool size.
template <typename ExposedFn, typename BoundFn>
DatasetBoundResult average_over_patterns(std::size_t columns,
                                         std::size_t sources,
                                         const ModelParams& params,
                                         ExposedFn&& exposed,
                                         BoundFn&& bound_of,
                                         ThreadPool* pool) {
  if (params.source_count() != sources) {
    throw std::invalid_argument(
        "dataset bound: params have " +
        std::to_string(params.source_count()) +
        " sources, the dataset has " + std::to_string(sources));
  }
  if (pool == nullptr) pool = &global_pool();

  std::unordered_map<std::uint64_t, std::uint32_t> pattern_of_key;
  std::vector<std::uint32_t> pattern_of(columns);
  std::vector<std::uint32_t> first_column;
  for (std::size_t j = 0; j < columns; ++j) {
    auto [it, inserted] = pattern_of_key.emplace(
        exposure_pattern_key(exposed(j)),
        static_cast<std::uint32_t>(first_column.size()));
    if (inserted) first_column.push_back(static_cast<std::uint32_t>(j));
    pattern_of[j] = it->second;
  }

  std::vector<BoundResult> results(first_column.size());
  pool->parallel_for_chunks(
      first_column.size(), 1,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          std::size_t j = first_column[p];
          results[p] = bound_of(make_column_model(params, exposed(j)), j);
        }
      });

  DatasetBoundResult out;
  out.columns = columns;
  out.distinct_patterns = first_column.size();
  for (std::size_t j = 0; j < columns; ++j) {
    const BoundResult& b = results[pattern_of[j]];
    out.bound.error += b.error;
    out.bound.false_positive += b.false_positive;
    out.bound.false_negative += b.false_negative;
  }
  if (columns > 0) {
    double inv = 1.0 / static_cast<double>(columns);
    out.bound.error *= inv;
    out.bound.false_positive *= inv;
    out.bound.false_negative *= inv;
  }
  return out;
}

auto flat_exposed(const Dataset& dataset) {
  return [&dataset](std::size_t j) -> std::span<const std::uint32_t> {
    return dataset.dependency.exposed_sources(j);
  };
}

// The Gibbs run of the pattern first seen at column j: the chain seed
// and the checkpoint file are both keyed by j.
auto gibbs_at_column(std::uint64_t seed, const GibbsBoundConfig& config) {
  return [seed, &config](const ColumnModel& model, std::size_t j) {
    GibbsBoundConfig own = config;
    if (!own.checkpoint_path.empty()) {
      own.checkpoint_path.append(".").append(std::to_string(j));
    }
    return gibbs_bound(model, seed ^ (0x9e3779b97f4a7c15ULL * (j + 1)),
                       own)
        .bound;
  };
}

}  // namespace

DatasetBoundResult exact_dataset_bound(const Dataset& dataset,
                                       const ModelParams& params,
                                       ThreadPool* pool) {
  if (params.source_count() > kExactBoundMaxSources) {
    throw std::invalid_argument(
        "exact_dataset_bound: too many sources for exact enumeration; "
        "use the Gibbs approximation");
  }
  return average_over_patterns(
      dataset.assertion_count(), dataset.dependency.source_count(), params,
      flat_exposed(dataset),
      [](const ColumnModel& model, std::size_t) {
        return exact_bound(model);
      },
      pool);
}

DatasetBoundResult gibbs_dataset_bound(const Dataset& dataset,
                                       const ModelParams& params,
                                       std::uint64_t seed,
                                       const GibbsBoundConfig& config,
                                       ThreadPool* pool) {
  return average_over_patterns(
      dataset.assertion_count(), dataset.dependency.source_count(), params,
      flat_exposed(dataset), gibbs_at_column(seed, config), pool);
}

DatasetBoundResult gibbs_dataset_bound(const ShardedDataset& sharded,
                                       const ModelParams& params,
                                       std::uint64_t seed,
                                       const GibbsBoundConfig& config,
                                       ThreadPool* pool) {
  return average_over_patterns(
      sharded.assertion_count(), sharded.source_count(), params,
      [&sharded](std::size_t j) { return sharded.exposed_sources(j); },
      gibbs_at_column(seed, config), pool);
}

}  // namespace ss
