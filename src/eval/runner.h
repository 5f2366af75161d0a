// Parallel experiment runner.
//
// The paper averages 20 (bound) or 300 (estimator) independent
// repetitions per plotted point. Each repetition gets its own derived RNG
// stream so results are reproducible regardless of thread count or
// scheduling, and metric values stream into named StreamingStats
// accumulators merged deterministically after the parallel section.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "math/stats.h"
#include "util/rng.h"

namespace ss {

class ThreadPool;

// One repetition's named metric values.
using MetricRow = std::map<std::string, double>;

// Aggregated metrics after all repetitions.
using MetricSummary = std::map<std::string, StreamingStats>;

// Runs `reps` repetitions of `body` (given the repetition index and a
// repetition-specific Rng) on `pool` (nullptr = global_pool(), the pool
// the estimators and bounds inside `body` use by default; the caller
// takes part in the work, so that nesting is safe). Exceptions from
// repetitions propagate after all repetitions finish.
MetricSummary run_repetitions(
    std::size_t reps, std::uint64_t seed,
    const std::function<MetricRow(std::size_t, Rng&)>& body,
    ThreadPool* pool = nullptr);

// Number of repetitions a bench should run: the SS_REPS env override,
// else `paper_default` scaled down by SS_FAST=1 to `fast_default`.
std::size_t bench_repetitions(std::size_t paper_default,
                              std::size_t fast_default);

}  // namespace ss
