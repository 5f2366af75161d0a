#include "twitter/builder.h"

#include <algorithm>
#include <unordered_map>

#include "twitter/retweet_detect.h"

namespace ss {

BuiltDataset build_dataset(const TwitterSimulation& sim) {
  BuiltDataset out;
  out.clustering = cluster_tweets(sim.tweets);

  // Active users -> dense source ids (Table III counts sources that
  // actually tweeted, not the full user universe).
  std::unordered_map<std::uint32_t, std::uint32_t> source_of_user;
  for (const Tweet& t : sim.tweets) {
    if (source_of_user.emplace(t.user, 0).second) {
      out.user_of_source.push_back(t.user);
    }
  }
  std::sort(out.user_of_source.begin(), out.user_of_source.end());
  for (std::size_t s = 0; s < out.user_of_source.size(); ++s) {
    source_of_user[out.user_of_source[s]] = static_cast<std::uint32_t>(s);
  }

  std::size_t n = out.user_of_source.size();
  std::size_t m = out.clustering.cluster_count;

  // Claims: earliest tweet per (source, cluster) — SourceClaimMatrix
  // deduplicates keeping the smallest timestamp.
  std::vector<Claim> claims;
  claims.reserve(sim.tweets.size());
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    const Tweet& tweet = sim.tweets[t];
    claims.push_back({source_of_user.at(tweet.user),
                      out.clustering.cluster_of[t], tweet.time});
  }

  // Follower graph restricted to active users.
  out.follows = Digraph(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::uint32_t user = out.user_of_source[s];
    for (std::size_t followee : sim.follows.following(user)) {
      auto it = source_of_user.find(static_cast<std::uint32_t>(followee));
      if (it != source_of_user.end()) {
        out.follows.add_edge(s, it->second);
      }
    }
  }

  out.dataset.name = sim.scenario.name;
  out.dataset.claims = SourceClaimMatrix(n, m, claims);
  out.dataset.dependency =
      DependencyIndicators::from_graph(out.dataset.claims, out.follows);
  out.dataset.truth = out.clustering.cluster_labels;
  out.dataset.validate();
  return out;
}

BuiltDataset make_twitter_dataset(const TwitterScenario& scenario,
                                  std::uint64_t seed) {
  TwitterSimulation sim = simulate_twitter(scenario, seed);
  return build_dataset(sim);
}

BuiltDataset build_dataset_from_stream(std::vector<Tweet> tweets,
                                       std::size_t user_count) {
  // Deterministic (time, id) order so callers can reproduce the
  // tweet-index alignment of the returned clustering.
  std::sort(tweets.begin(), tweets.end(),
            [](const Tweet& a, const Tweet& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.id < b.id;
            });
  if (user_count == 0) {
    for (const Tweet& t : tweets) {
      user_count = std::max<std::size_t>(user_count, t.user + 1);
    }
  }
  detect_retweet_parents(tweets);
  TwitterSimulation sim;
  sim.scenario.name = "external-stream";
  sim.scenario.users = user_count;
  sim.follows = infer_dependency_network(tweets, user_count);
  sim.tweets = std::move(tweets);
  return build_dataset(sim);
}

}  // namespace ss
