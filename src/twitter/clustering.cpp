#include "twitter/clustering.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "twitter/text.h"
#include "util/checkpoint.h"
#include "util/log.h"

namespace ss {
namespace {

// Minimum Jaccard similarity to join an existing cluster.
constexpr double kJaccardThreshold = 0.5;
// Candidate clusters examined per tweet (most-overlapping first).
constexpr std::size_t kMaxCandidates = 8;
// Postings lists longer than this are skipped during candidate lookup
// (see the header).
constexpr std::uint32_t kMaxTokenFanout = 64;

double jaccard(std::span<const std::uint32_t> a,
               std::span<const std::uint32_t> b) {
  // Inputs are sorted unique token ids.
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

}  // namespace

std::uint32_t TokenDictionary::intern(std::string_view bytes) {
  auto next = static_cast<std::uint32_t>(size());
  std::uint32_t id = index_.find_or_insert(
      text_hash(bytes), next,
      [&](std::uint32_t known) { return token(known) == bytes; });
  if (id == next) {
    arena_.append(bytes);
    offsets_.push_back(arena_.size());
  }
  return id;
}

std::uint32_t IncrementalClusterer::intern(std::string_view token) {
  std::uint32_t id = dictionary_.intern(token);
  if (id == postings_.size()) postings_.emplace_back();
  return id;
}

std::span<const std::uint32_t> IncrementalClusterer::tokens_of(
    std::size_t cluster) const {
  return std::span<const std::uint32_t>(cluster_tokens_)
      .subspan(cluster_begin_[cluster],
               cluster_begin_[cluster + 1] - cluster_begin_[cluster]);
}

std::uint32_t IncrementalClusterer::found_cluster(
    const std::vector<std::uint32_t>& tokens) {
  auto c = static_cast<std::uint32_t>(cluster_count());
  for (std::uint32_t token : tokens) {
    // A list past the cap is never read again, so it stops growing.
    if (postings_[token].size() <= kMaxTokenFanout) {
      postings_[token].push_back(c);
    }
  }
  cluster_tokens_.insert(cluster_tokens_.end(), tokens.begin(), tokens.end());
  cluster_begin_.push_back(cluster_tokens_.size());
  overlap_.push_back(0);
  return c;
}

std::uint32_t IncrementalClusterer::assign_by_text(const Tweet& tweet) {
  tweet_tokens_.clear();
  scan_tokens(tweet.text, scan_buffer_, [&](std::string_view token) {
    tweet_tokens_.push_back(intern(token));
  });
  std::sort(tweet_tokens_.begin(), tweet_tokens_.end());
  tweet_tokens_.erase(std::unique(tweet_tokens_.begin(), tweet_tokens_.end()),
                      tweet_tokens_.end());

  // Shared-token counts of the clusters on the tweet's live postings
  // lists.
  for (std::uint32_t token : tweet_tokens_) {
    if (postings_[token].size() > kMaxTokenFanout) continue;
    for (std::uint32_t c : postings_[token]) {
      if (overlap_[c]++ == 0) touched_.push_back(c);
    }
  }
  ranked_.clear();
  for (std::uint32_t c : touched_) {
    ranked_.emplace_back(overlap_[c], c);
    overlap_[c] = 0;
  }
  touched_.clear();
  // (count, cluster id) pairs are distinct, so the head of a partial
  // sort is the head of the full descending sort.
  auto head = ranked_.begin() + static_cast<std::ptrdiff_t>(std::min(
                                    ranked_.size(), kMaxCandidates));
  std::partial_sort(ranked_.begin(), head, ranked_.end(), std::greater<>());

  std::uint32_t best_cluster = 0;
  double best_sim = 0.0;
  for (auto it = ranked_.begin(); it != head; ++it) {
    std::uint32_t c = it->second;
    double sim = jaccard(tweet_tokens_, tokens_of(c));
    if (sim > best_sim) {
      best_sim = sim;
      best_cluster = c;
    }
  }
  if (best_sim >= kJaccardThreshold) return best_cluster;
  return found_cluster(tweet_tokens_);
}

std::uint32_t IncrementalClusterer::find_tweet(std::uint32_t id) const {
  return tweet_index_.find(
      id_hash(id), [&](std::uint32_t at) { return tweets_[at].id == id; });
}

std::uint32_t IncrementalClusterer::insert_tweet(std::uint32_t id,
                                                 std::uint32_t cluster) {
  auto next = static_cast<std::uint32_t>(tweets_.size());
  std::uint32_t at = tweet_index_.find_or_insert(
      id_hash(id), next,
      [&](std::uint32_t known) { return tweets_[known].id == id; });
  if (at == next) tweets_.push_back(TweetEntry{id, cluster, next});
  return at;
}

std::uint32_t IncrementalClusterer::add(const Tweet& tweet) {
  std::uint32_t parent =
      tweet.is_retweet() ? find_tweet(tweet.parent) : FlatIndex::kMissing;
  // An original, or an orphaned retweet, takes the text path.
  std::uint32_t cluster = parent != FlatIndex::kMissing
                              ? tweets_[parent].cluster
                              : assign_by_text(tweet);
  tweets_[insert_tweet(tweet.id, cluster)].cluster = cluster;
  return cluster;
}

void IncrementalClusterer::reserve(std::size_t tweets) {
  tweets_.reserve(tweets_.size() + tweets);
  tweet_index_.reserve(tweets_.size() + tweets);
}

void IncrementalClusterer::save_state(BinWriter& writer) const {
  writer.u64(cluster_count());
  std::vector<std::string_view> tokens;
  for (std::size_t c = 0; c < cluster_count(); ++c) {
    tokens.clear();
    for (std::uint32_t id : tokens_of(c)) {
      tokens.push_back(dictionary_.token(id));
    }
    std::sort(tokens.begin(), tokens.end());
    writer.u64(tokens.size());
    for (std::string_view token : tokens) writer.str(token);
  }
  std::vector<TweetEntry> entries = tweets_;
  std::sort(entries.begin(), entries.end(),
            [](const TweetEntry& a, const TweetEntry& b) {
              return a.id < b.id;
            });
  writer.u64(entries.size());
  for (const TweetEntry& entry : entries) {
    writer.u64(entry.id);
    writer.u64(entry.cluster);
  }
  writer.u64(entries.size());
  for (const TweetEntry& entry : entries) {
    writer.u64(entry.id);
    writer.u64(entry.position);
  }
}

namespace {

std::uint32_t read_u32(BinReader& reader, const char* what) {
  std::uint64_t v = reader.u64();
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error(std::string("clusterer state: ") + what + " " +
                             std::to_string(v) + " exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void IncrementalClusterer::load_state(BinReader& reader) {
  *this = IncrementalClusterer();
  // Every cluster and every token carries at least a u64 length.
  std::size_t clusters = reader.count(8);
  for (std::size_t c = 0; c < clusters; ++c) {
    std::size_t count = reader.count(8);
    tweet_tokens_.clear();
    for (std::size_t t = 0; t < count; ++t) {
      std::string token = reader.str();
      if (t > 0 && !(dictionary_.token(tweet_tokens_.back()) < token)) {
        throw std::runtime_error("clusterer state: cluster " +
                                 std::to_string(c) +
                                 " tokens are not strictly ascending");
      }
      tweet_tokens_.push_back(intern(token));
    }
    std::sort(tweet_tokens_.begin(), tweet_tokens_.end());
    found_cluster(tweet_tokens_);
  }

  std::size_t n = reader.count(16);  // u64 key + u64 value
  reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t id = read_u32(reader, "tweet id");
    std::uint32_t cluster = read_u32(reader, "cluster id");
    if (cluster >= clusters) {
      throw std::runtime_error("clusterer state: tweet " +
                               std::to_string(id) + " names cluster " +
                               std::to_string(cluster) + " of " +
                               std::to_string(clusters));
    }
    if (insert_tweet(id, cluster) != i) {
      throw std::runtime_error("clusterer state: tweet " +
                               std::to_string(id) + " listed twice");
    }
  }
  if (reader.count(16) != n) {
    throw std::runtime_error(
        "clusterer state: the cluster and position maps differ in size");
  }
  for (TweetEntry& entry : tweets_) {
    if (read_u32(reader, "tweet id") != entry.id) {
      throw std::runtime_error(
          "clusterer state: the cluster and position maps list different "
          "tweet ids");
    }
    entry.position = read_u32(reader, "position");
  }
}

namespace {

// The majority hidden assertion of one cluster, whose tweet positions
// `members` are in arrival order (see the header): the first maximum in
// the iteration order of a map filled in that order.
std::uint32_t majority_of(const std::vector<Tweet>& tweets,
                           std::span<const std::uint32_t> members) {
  std::unordered_map<std::uint32_t, std::size_t> votes;
  for (std::uint32_t t : members) ++votes[tweets[t].hidden_assertion];
  std::uint32_t majority = 0;
  std::size_t best = 0;
  for (const auto& [assertion, count] : votes) {
    if (count > best) {
      best = count;
      majority = assertion;
    }
  }
  return majority;
}

}  // namespace

ClusteringResult cluster_tweets(const std::vector<Tweet>& tweets) {
  ClusteringResult result;
  result.cluster_of.resize(tweets.size());

  IncrementalClusterer clusterer;
  clusterer.reserve(tweets.size());
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    result.cluster_of[t] = clusterer.add(tweets[t]);
  }
  result.cluster_count = clusterer.cluster_count();

  // Tweet positions grouped by cluster in arrival order (counting sort).
  std::vector<std::size_t> begin(result.cluster_count + 1, 0);
  for (std::uint32_t c : result.cluster_of) ++begin[c + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<std::uint32_t> members(tweets.size());
  std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    members[next[result.cluster_of[t]]++] = static_cast<std::uint32_t>(t);
  }

  // Majority hidden assertion / label per cluster, plus purity.
  std::vector<std::uint32_t> majority(result.cluster_count, 0);
  for (std::size_t c = 0; c < result.cluster_count; ++c) {
    majority[c] = majority_of(
        tweets, std::span<const std::uint32_t>(members).subspan(
                    begin[c], begin[c + 1] - begin[c]));
  }
  result.cluster_labels.assign(result.cluster_count, Label::kUnknown);
  std::size_t agree = 0;
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
