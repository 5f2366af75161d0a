// Live (incremental) Apollo pipeline.
//
// The batch pipeline re-ingests and re-estimates from scratch; during a
// breaking event the stream never stops. LiveApollo maintains
//   * an IncrementalClusterer assigning each arriving tweet to a stable
//     assertion cluster,
//   * a per-window claim buffer, and
//   * a StreamingEmExt whose per-source sufficient statistics persist
//     across refreshes,
// so each refresh() re-estimates the clusters its window touched, never
// the whole history. A refresh is still O(sources) per inner EM
// iteration, by design: under EM-Ext silence is evidence (Table II), so
// every user of the follower graph enters the log table and the M-step,
// not only the window's claimants. Those per-source passes run on
// StreamingEmConfig::pool, only the sources with a claim or an exposure
// in the window gather batch statistics, and the update is the EM-Ext
// engine's M-step tail on the decayed history (docs/MODEL.md §6).
// Beliefs are tracked per global cluster id and updated by the latest
// refresh that touched the cluster.
#pragma once

#include <unordered_map>

#include "core/streaming_em.h"
#include "graph/digraph.h"
#include "twitter/clustering.h"

namespace ss {

struct LiveApolloConfig {
  StreamingEmConfig em;
  // A tweet from a user id outside the follower graph has no dependency
  // information and previously blew up deep inside refresh() (matrix
  // construction rejects the out-of-range source). Default: drop it at
  // ingest, count it, and return LiveApollo::kDroppedTweet. Set false
  // to throw TaxonomyError(kIndexOutOfRange) at ingest instead.
  bool drop_unknown_users = true;
};

struct LiveRefreshResult {
  // Global cluster ids active in the refreshed window, with posteriors.
  std::vector<std::uint32_t> clusters;
  std::vector<double> belief;
  std::vector<double> log_odds;
  std::size_t window_claims = 0;
};

class LiveApollo {
 public:
  // Returned by ingest() for a tweet dropped because its user is not a
  // node of the follower graph.
  static constexpr std::uint32_t kDroppedTweet = 0xffffffffu;

  // `follows` must cover all user ids that will ever tweet (edge u -> v
  // means u follows v); it drives the dependency indicators.
  LiveApollo(Digraph follows, LiveApolloConfig config = {});

  // Feeds one tweet (arrival order). Returns its cluster id, or
  // kDroppedTweet when the tweet's user is outside the follower graph
  // (see LiveApolloConfig::drop_unknown_users).
  std::uint32_t ingest(const Tweet& tweet);

  // Folds the buffered window into the streaming estimator and clears
  // the buffer. No-op result when the window is empty. If the
  // estimator throws, it is left unchanged and the window stays
  // buffered, so the refresh can be retried.
  LiveRefreshResult refresh();

  // Latest belief per cluster (clusters never refreshed are absent).
  const std::unordered_map<std::uint32_t, double>& beliefs() const {
    return belief_of_cluster_;
  }
  // Top-k clusters by latest log-odds.
  std::vector<std::pair<std::uint32_t, double>> top(std::size_t k) const;

  const ModelParams& params() const { return em_.params(); }
  std::size_t clusters_seen() const { return clusterer_.cluster_count(); }
  std::size_t refreshes() const { return em_.batches_seen(); }
  // Tweets dropped at ingest because their user was unknown.
  std::size_t dropped_tweets() const { return dropped_tweets_; }

  // Bit-exact serialization of the full pipeline state (clusterer,
  // estimator, claim history, window buffer, beliefs). The bytes are
  // canonical — unordered-map iteration order never leaks in — so two
  // pipelines that processed the same tweets serialize identically and
  // the storm harness can compare crash/resume state by byte equality.
  // The follower graph and config are not serialized; the resuming
  // caller reconstructs with the same ones (graph mismatch surfaces as
  // a source-universe error from StreamingEmExt::load_state).
  void save_state(BinWriter& writer) const;
  void load_state(BinReader& reader);

 private:
  LiveApolloConfig config_;
  Digraph follows_;
  IncrementalClusterer clusterer_;
  StreamingEmExt em_;
  // Full claim history per cluster: a refresh re-presents every claim of
  // the clusters its window touched, so an assertion's belief always
  // reflects its accumulated evidence (the window only decides *which*
  // assertions are re-evaluated).
  std::unordered_map<std::uint32_t, std::vector<Claim>>
      claims_of_cluster_;
  std::vector<std::uint32_t> active_;  // clusters touched this window
  std::size_t window_claims_ = 0;
  std::size_t dropped_tweets_ = 0;
  std::unordered_map<std::uint32_t, double> belief_of_cluster_;
  std::unordered_map<std::uint32_t, double> log_odds_of_cluster_;
};

}  // namespace ss
