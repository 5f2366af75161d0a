#include "eval/runner.h"

#include <vector>

#include "util/env.h"
#include "util/thread_pool.h"

namespace ss {

MetricSummary run_repetitions(
    std::size_t reps, std::uint64_t seed,
    const std::function<MetricRow(std::size_t, Rng&)>& body,
    ThreadPool* pool) {
  if (pool == nullptr) pool = &global_pool();
  Rng master(seed, /*stream=*/0xe);

  std::vector<MetricRow> rows(reps);
  pool->parallel_for(reps, [&](std::size_t rep) {
    Rng rep_rng = master.split(rep);
    rows[rep] = body(rep, rep_rng);
  });
  // Deterministic merge order regardless of completion order.
  MetricSummary summary;
  for (const MetricRow& row : rows) {
    for (const auto& [name, value] : row) {
      summary[name].add(value);
    }
  }
  return summary;
}

std::size_t bench_repetitions(std::size_t paper_default,
                              std::size_t fast_default) {
  long long reps = env_int("SS_REPS", 0);
  if (reps > 0) return static_cast<std::size_t>(reps);
  if (env_flag("SS_FAST")) return fast_default;
  return paper_default;
}

}  // namespace ss
