#include "apollo/live.h"

#include <algorithm>
#include <string>

#include "util/checkpoint.h"
#include "util/status.h"

namespace ss {

LiveApollo::LiveApollo(Digraph follows, LiveApolloConfig config)
    : config_(config),
      follows_(std::move(follows)),
      em_(follows_.node_count(), config.em) {}

std::uint32_t LiveApollo::ingest(const Tweet& tweet) {
  if (tweet.user >= follows_.node_count()) {
    if (!config_.drop_unknown_users) {
      throw TaxonomyError(
          ErrorCode::kIndexOutOfRange,
          "LiveApollo::ingest: user " + std::to_string(tweet.user) +
              " outside follower graph of " +
              std::to_string(follows_.node_count()) + " nodes");
    }
    ++dropped_tweets_;
    return kDroppedTweet;
  }
  std::uint32_t cluster = clusterer_.add(tweet);
  auto [it, inserted] = claims_of_cluster_.emplace(
      cluster, std::vector<Claim>{});
  it->second.push_back({tweet.user, /*assertion=*/0, tweet.time});
  if (it->second.size() == 1 || inserted ||
      std::find(active_.begin(), active_.end(), cluster) ==
          active_.end()) {
    active_.push_back(cluster);
  }
  ++window_claims_;
  return cluster;
}

LiveRefreshResult LiveApollo::refresh() {
  LiveRefreshResult result;
  if (active_.empty()) return result;
  result.window_claims = window_claims_;

  // Dense assertion space over the clusters touched this window; each
  // brings its full claim history.
  std::sort(active_.begin(), active_.end());
  active_.erase(std::unique(active_.begin(), active_.end()),
                active_.end());
  result.clusters = active_;
  std::vector<Claim> claims;
  for (std::size_t d = 0; d < active_.size(); ++d) {
    for (Claim c : claims_of_cluster_.at(active_[d])) {
      c.assertion = static_cast<std::uint32_t>(d);
      claims.push_back(c);
    }
  }

  Dataset batch;
  batch.name = "live-window";
  batch.claims =
      SourceClaimMatrix(follows_.node_count(), active_.size(), claims);
  batch.dependency =
      DependencyIndicators::from_graph(batch.claims, follows_);

  StreamingBatchResult em_result = em_.observe(batch);
  result.belief = em_result.belief;
  result.log_odds = em_result.log_odds;
  for (std::size_t d = 0; d < result.clusters.size(); ++d) {
    belief_of_cluster_[result.clusters[d]] = result.belief[d];
    log_odds_of_cluster_[result.clusters[d]] = result.log_odds[d];
  }
  active_.clear();
  window_claims_ = 0;
  return result;
}

namespace {

void save_belief_map(BinWriter& writer,
                     const std::unordered_map<std::uint32_t, double>& map) {
  std::vector<std::pair<std::uint32_t, double>> entries(map.begin(),
                                                        map.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer.u64(entries.size());
  for (const auto& [k, v] : entries) {
    writer.u64(k);
    writer.f64(v);
  }
}

void load_belief_map(BinReader& reader,
                     std::unordered_map<std::uint32_t, double>& map) {
  map.clear();
  std::size_t n = reader.count(16);  // u64 key + f64 value
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t k = reader.u64();
    double v = reader.f64();
    map.emplace(static_cast<std::uint32_t>(k), v);
  }
}

}  // namespace

void LiveApollo::save_state(BinWriter& writer) const {
  clusterer_.save_state(writer);
  em_.save_state(writer);
  std::vector<std::uint32_t> keys;
  keys.reserve(claims_of_cluster_.size());
  for (const auto& [k, v] : claims_of_cluster_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  writer.u64(keys.size());
  for (std::uint32_t k : keys) {
    const std::vector<Claim>& claims = claims_of_cluster_.at(k);
    writer.u64(k);
    writer.u64(claims.size());
    for (const Claim& c : claims) {
      writer.u64(c.source);
      writer.u64(c.assertion);
      writer.f64(c.time);
    }
  }
  writer.u64(active_.size());
  for (std::uint32_t c : active_) writer.u64(c);
  writer.u64(window_claims_);
  writer.u64(dropped_tweets_);
  save_belief_map(writer, belief_of_cluster_);
  save_belief_map(writer, log_odds_of_cluster_);
}

void LiveApollo::load_state(BinReader& reader) {
  clusterer_.load_state(reader);
  em_.load_state(reader);
  claims_of_cluster_.clear();
  std::size_t clusters = reader.count(16);  // u64 key + u64 count
  for (std::size_t i = 0; i < clusters; ++i) {
    std::uint32_t k = static_cast<std::uint32_t>(reader.u64());
    std::size_t count = reader.count(24);  // source, assertion, time
    std::vector<Claim> claims;
    claims.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      Claim c;
      c.source = static_cast<std::uint32_t>(reader.u64());
      c.assertion = static_cast<std::uint32_t>(reader.u64());
      c.time = reader.f64();
      claims.push_back(c);
    }
    claims_of_cluster_.emplace(k, std::move(claims));
  }
  std::size_t actives = reader.count(8);
  active_.clear();
  active_.reserve(actives);
  for (std::size_t i = 0; i < actives; ++i) {
    active_.push_back(static_cast<std::uint32_t>(reader.u64()));
  }
  window_claims_ = reader.u64();
  dropped_tweets_ = reader.u64();
  load_belief_map(reader, belief_of_cluster_);
  load_belief_map(reader, log_odds_of_cluster_);
}

std::vector<std::pair<std::uint32_t, double>> LiveApollo::top(
    std::size_t k) const {
  std::vector<std::pair<std::uint32_t, double>> entries(
      log_odds_of_cluster_.begin(), log_odds_of_cluster_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

}  // namespace ss
