// Ingestion: raw tweet stream -> fact-finding Dataset.
//
// Maps active users to source ids and tweet clusters to assertion ids,
// builds the source-claim matrix (earliest claim per user/assertion
// cell), restricts the follower graph to active users, and derives the
// dependency indicators from follow edges + timestamps exactly as the
// paper defines them: a claim is dependent iff a followed user asserted
// the same thing earlier.
#pragma once

#include "data/dataset.h"
#include "twitter/clustering.h"
#include "twitter/simulator.h"

namespace ss {

struct BuiltDataset {
  Dataset dataset;
  // source id -> original user id (sources are active users only).
  std::vector<std::uint32_t> user_of_source;
  // The follow graph restricted to active sources (the graph the
  // dependency indicators were derived from).
  Digraph follows;
  ClusteringResult clustering;
};

BuiltDataset build_dataset(const TwitterSimulation& sim);

// End-to-end convenience: simulate + cluster + build.
BuiltDataset make_twitter_dataset(const TwitterScenario& scenario,
                                  std::uint64_t seed);

// Ingestion for *external* tweet streams (e.g. loaded from JSONL): no
// parent pointers and no follower graph are assumed. Retweet parents
// are resolved from the "RT @name: body" convention and the dependency
// network is inferred from retweet behaviour, exactly as the paper's
// empirical pipeline does. `user_count` bounds user ids (0 = derive
// from the stream). Tweets are re-sorted by time.
BuiltDataset build_dataset_from_stream(std::vector<Tweet> tweets,
                                       std::size_t user_count = 0);

}  // namespace ss
