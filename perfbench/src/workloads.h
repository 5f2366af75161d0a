// The four benchmark workloads. README.md says why each exists and which
// layers it loads.
#pragma once

#include <array>
#include <memory>

#include "data/dataset.h"
#include "harness.h"

namespace ss {
class ThreadPool;
}

namespace perfbench {

// `pool` serves every parallel call the workload makes; the caller
// participates, so pool.size() + 1 threads are busy at most.
std::unique_ptr<Workload> make_tweets_workload(const Options& options,
                                               ss::ThreadPool& pool);
std::unique_ptr<Workload> make_scale_workload(const Options& options,
                                              ss::ThreadPool& pool);
std::unique_ptr<Workload> make_live_workload(const Options& options,
                                             ss::ThreadPool& pool);
std::unique_ptr<Workload> make_bounds_workload(const Options& options);

// Hidden-label votes of one cluster's tweets, indexed by ss::Label.
using LabelVotes = std::array<std::size_t, 4>;
// The majority hidden label of each cluster, the Fig. 11 grading
// (kUnknown for a cluster without votes).
std::vector<ss::Label> majority_labels(const std::vector<LabelVotes>& votes);

}  // namespace perfbench
