#include "twitter/clustering.h"

#include <algorithm>
#include <unordered_map>

#include "twitter/text.h"
#include "util/checkpoint.h"
#include "util/log.h"

namespace ss {
namespace {

double jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  // Inputs are sorted unique token lists.
  std::size_t inter = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  std::size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) /
                              static_cast<double>(uni);
}

std::vector<std::string> sorted_tokens(const std::string& text) {
  auto tokens = tokenize_tweet(text);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

}  // namespace

IncrementalClusterer::IncrementalClusterer(ClusteringConfig config)
    : config_(config) {}

std::uint32_t IncrementalClusterer::assign_by_text(const Tweet& tweet) {
  auto tokens = sorted_tokens(tweet.text);

  // Candidate clusters ranked by shared-token count; very common tokens
  // are skipped (see ClusteringConfig::max_token_fanout).
  std::unordered_map<std::uint32_t, std::size_t> overlap;
  for (const auto& tok : tokens) {
    auto it = index_.find(tok);
    if (it == index_.end()) continue;
    if (it->second.size() > config_.max_token_fanout) continue;
    for (std::uint32_t c : it->second) ++overlap[c];
  }
  std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
  ranked.reserve(overlap.size());
  for (const auto& [c, count] : overlap) ranked.emplace_back(count, c);
  std::sort(ranked.rbegin(), ranked.rend());

  std::uint32_t best_cluster = 0;
  double best_sim = 0.0;
  std::size_t examined = 0;
  for (const auto& [count, c] : ranked) {
    if (examined++ >= config_.max_candidates) break;
    double sim = jaccard(tokens, cluster_tokens_[c]);
    if (sim > best_sim) {
      best_sim = sim;
      best_cluster = c;
    }
  }
  if (best_sim >= config_.jaccard_threshold) return best_cluster;

  // New cluster keyed by this tweet's token set.
  auto c = static_cast<std::uint32_t>(cluster_tokens_.size());
  for (const auto& tok : tokens) index_[tok].push_back(c);
  cluster_tokens_.push_back(std::move(tokens));
  return c;
}

std::uint32_t IncrementalClusterer::add(const Tweet& tweet) {
  std::uint32_t cluster;
  auto parent_pos = tweet.is_retweet()
                        ? cluster_of_id_.find(tweet.parent)
                        : cluster_of_id_.end();
  if (parent_pos != cluster_of_id_.end()) {
    cluster = parent_pos->second;
  } else {
    // Original, or orphaned retweet: fall back to the text path.
    cluster = assign_by_text(tweet);
  }
  position_of_.emplace(tweet.id, position_of_.size());
  cluster_of_id_[tweet.id] = cluster;
  return cluster;
}

namespace {

// Canonical (sorted-key) serialization of an unordered u32 -> u64 map.
template <typename Map>
void save_u32_map(BinWriter& writer, const Map& map) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  entries.reserve(map.size());
  for (const auto& [k, v] : map) {
    entries.emplace_back(k, static_cast<std::uint64_t>(v));
  }
  std::sort(entries.begin(), entries.end());
  writer.u64(entries.size());
  for (const auto& [k, v] : entries) {
    writer.u64(k);
    writer.u64(v);
  }
}

template <typename Map>
void load_u32_map(BinReader& reader, Map& map) {
  map.clear();
  std::size_t n = reader.count(16);  // u64 key + u64 value
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t k = reader.u64();
    std::uint64_t v = reader.u64();
    map.emplace(static_cast<std::uint32_t>(k),
                static_cast<typename Map::mapped_type>(v));
  }
}

}  // namespace

void IncrementalClusterer::save_state(BinWriter& writer) const {
  writer.u64(cluster_tokens_.size());
  for (const auto& tokens : cluster_tokens_) {
    writer.u64(tokens.size());
    for (const auto& tok : tokens) writer.str(tok);
  }
  save_u32_map(writer, cluster_of_id_);
  save_u32_map(writer, position_of_);
}

void IncrementalClusterer::load_state(BinReader& reader) {
  // Every cluster and every token carries at least a u64 length.
  std::size_t clusters = reader.count(8);
  cluster_tokens_.clear();
  cluster_tokens_.reserve(clusters);
  index_.clear();
  for (std::size_t c = 0; c < clusters; ++c) {
    std::size_t count = reader.count(8);
    std::vector<std::string> tokens;
    tokens.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      tokens.push_back(reader.str());
    }
    // Replaying clusters in id order rebuilds every postings list in
    // its original order.
    for (const auto& tok : tokens) {
      index_[tok].push_back(static_cast<std::uint32_t>(c));
    }
    cluster_tokens_.push_back(std::move(tokens));
  }
  load_u32_map(reader, cluster_of_id_);
  load_u32_map(reader, position_of_);
}

ClusteringResult cluster_tweets(const std::vector<Tweet>& tweets,
                                const ClusteringConfig& config) {
  ClusteringResult result;
  result.cluster_of.resize(tweets.size());

  IncrementalClusterer clusterer(config);
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    result.cluster_of[t] = clusterer.add(tweets[t]);
  }
  result.cluster_count = clusterer.cluster_count();

  // Majority hidden assertion / label per cluster, plus purity.
  std::vector<std::unordered_map<std::uint32_t, std::size_t>> votes(
      result.cluster_count);
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    ++votes[result.cluster_of[t]][tweets[t].hidden_assertion];
  }
  std::vector<std::uint32_t> majority(result.cluster_count, 0);
  result.cluster_labels.assign(result.cluster_count, Label::kUnknown);
  std::size_t agree = 0;
  for (std::size_t c = 0; c < result.cluster_count; ++c) {
    std::size_t best = 0;
    for (const auto& [assertion, count] : votes[c]) {
      if (count > best) {
        best = count;
        majority[c] = assertion;
      }
    }
  }
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    std::uint32_t c = result.cluster_of[t];
    if (tweets[t].hidden_assertion == majority[c]) {
      ++agree;
      result.cluster_labels[c] = tweets[t].hidden_label;
    }
  }
  result.purity = tweets.empty()
                      ? 1.0
                      : static_cast<double>(agree) /
                            static_cast<double>(tweets.size());
  SS_DEBUG << "cluster_tweets: " << tweets.size() << " tweets -> "
           << result.cluster_count << " clusters, purity "
           << result.purity;
  return result;
}

}  // namespace ss
