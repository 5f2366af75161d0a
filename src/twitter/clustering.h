// Assertion extraction: clustering near-duplicate tweets.
//
// The Apollo pipeline turns free-text tweets into assertion columns by
// grouping tweets that say the same thing. Retweets join their parent's
// cluster directly (the text is verbatim); original tweets are clustered
// by token-set Jaccard similarity using a greedy single-pass scheme with
// an inverted token index for candidate generation, so the pass stays
// near-linear in total token count even at Paris-Attack scale.
//
// The index is interned. Each distinct token (twitter/text.h's
// scan_tokens rule) is stored once and gets a dense id in first-seen
// order; a cluster's token set is a sorted run of unique ids in one flat
// array, and Jaccard is a merge over ids. Intersection and union sizes
// do not depend on the sort key, so the similarity is the one a
// string-sorted merge gives. Postings are kept per token id; a postings
// list longer than the fan-out cap (64) is skipped, since a token shared
// by that many clusters (a topic word) carries no discriminating signal
// and walking it per tweet would make the pass quadratic. Rare tokens —
// each assertion's entity tokens in particular — stay below the cap.
//
// Candidates are the clusters that share a live postings list with the
// tweet, counted in one reused per-cluster counter. They are ranked by
// (shared-token count, cluster id), both descending; the first 8 are
// examined, and a strict > keeps the first best. The tweet joins it when
// the Jaccard similarity is at least 0.5, and founds a new cluster
// otherwise.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "twitter/simulator.h"

namespace ss {

class BinReader;
class BinWriter;

struct ClusteringResult {
  // cluster id per tweet, aligned with the input tweet vector.
  std::vector<std::uint32_t> cluster_of;
  std::size_t cluster_count = 0;

  // Majority hidden label per cluster — the "ground truth" a human
  // grader would assign to the assertion.
  std::vector<Label> cluster_labels;
  // Fraction of tweets whose hidden assertion agrees with their
  // cluster's majority hidden assertion (clustering quality diagnostic).
  double purity = 0.0;
};

// The majority assertion of a cluster is its most frequent hidden
// assertion. A tie goes to the first maximum in the iteration order of
// a std::unordered_map filled in arrival order; cluster labels depend
// on that order, so a portable tie rule would move them.
ClusteringResult cluster_tweets(const std::vector<Tweet>& tweets);

// Online form of the same algorithm: feed tweets in arrival order (live
// pipelines); cluster ids are stable once assigned. cluster_tweets is a
// thin wrapper over this class.
class IncrementalClusterer {
 public:
  IncrementalClusterer() = default;
  // The id -> token table points into the dictionary's nodes, which a
  // move carries over and a copy would not.
  IncrementalClusterer(const IncrementalClusterer&) = delete;
  IncrementalClusterer& operator=(const IncrementalClusterer&) = delete;
  IncrementalClusterer(IncrementalClusterer&&) = default;
  IncrementalClusterer& operator=(IncrementalClusterer&&) = default;

  // Assigns the tweet to an existing or fresh cluster and returns its
  // cluster id. Retweets (parent set and previously seen) join their
  // parent's cluster directly. A repeated tweet id keeps its first
  // arrival position and takes the latest cluster.
  std::uint32_t add(const Tweet& tweet);

  // Sizes the tweet-id map for `tweets` more arrivals, so a batch of
  // known size never rehashes it.
  void reserve(std::size_t tweets);

  std::size_t cluster_count() const { return cluster_begin_.size() - 1; }
  std::size_t tweets_seen() const { return tweets_.size(); }

  // Bit-exact state round-trip via the checkpoint binary codec: each
  // cluster's tokens as strings in lexicographic order (not id order),
  // then the tweet-id -> cluster and tweet-id -> arrival position maps,
  // each in ascending key order (canonical bytes: two clusterers with
  // equal state serialize identically). load_state re-interns the
  // tokens in stored order, which rebuilds every postings list in its
  // original order. It rejects what save_state cannot write: a cluster
  // whose tokens are not strictly ascending, a tweet id listed twice, a
  // cluster id out of range, a position beyond 32 bits, and two maps
  // that do not list the same keys in the same order.
  void save_state(BinWriter& writer) const;
  void load_state(BinReader& reader);

 private:
  // Heterogeneous lookup: the dictionary is probed with views of the
  // scanner's buffer and stores each token's bytes once, as a node key,
  // which stays put when the table grows.
  struct TokenHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view token) const {
      return std::hash<std::string_view>{}(token);
    }
  };
  struct TweetEntry {
    std::uint32_t cluster;
    std::uint32_t position;
  };

  std::uint32_t intern(std::string_view token);
  // Cluster `cluster`'s sorted unique token ids.
  std::span<const std::uint32_t> tokens_of(std::size_t cluster) const;
  // Appends the cluster whose token set is `tokens` (sorted unique ids).
  std::uint32_t found_cluster(const std::vector<std::uint32_t>& tokens);
  std::uint32_t assign_by_text(const Tweet& tweet);

  // Dictionary: token bytes -> dense id, and id -> those bytes.
  std::unordered_map<std::string, std::uint32_t, TokenHash, std::equal_to<>>
      id_of_token_;
  std::vector<const std::string*> token_of_id_;
  // Postings by token id: the clusters founded with the token, in id
  // order. A list stops growing one entry past the fan-out cap.
  std::vector<std::vector<std::uint32_t>> postings_;
  // Cluster c's sorted unique token ids are
  // cluster_tokens_[cluster_begin_[c] .. cluster_begin_[c + 1]).
  std::vector<std::size_t> cluster_begin_{0};
  std::vector<std::uint32_t> cluster_tokens_;
  std::unordered_map<std::uint32_t, TweetEntry> tweets_;  // by tweet id

  // Per-tweet scratch, reused: the scanner's buffer, the tweet's token
  // ids, the overlap counter (one slot per cluster, zero between
  // tweets), the clusters it touched, and their ranking.
  std::string scan_buffer_;
  std::vector<std::uint32_t> tweet_tokens_;
  std::vector<std::uint32_t> overlap_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranked_;
};

}  // namespace ss
