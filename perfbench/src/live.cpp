// live: incremental Apollo on a live stream. Tweets are ingested in
// arrival order with a refresh() at every event hour, then top(100). Each
// refresh is one operation; its latency is the workload's result.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apollo/live.h"
#include "twitter/scenario.h"
#include "twitter/simulator.h"
#include "twitter/tweet_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ss;

constexpr double kToyScale = 0.05;
constexpr std::size_t kTop = 100;

class LiveWorkload : public Workload {
 public:
  LiveWorkload(const Options& options, ThreadPool& pool)
      : options_(options) {
    config_.em.pool = &pool;
  }

  std::string name() const override { return "live"; }

  std::string scale_description() const override {
    return "Paris Attack x" + std::to_string(options_.toy ? kToyScale : 1.0) +
           ", " + std::to_string(sim_.tweets.size()) + " tweets, " +
           std::to_string(sim_.follows.node_count()) + "-user follower graph";
  }

  void setup() override {
    live_.reset();
    TwitterScenario scenario = scenario_by_name("Paris Attack");
    if (options_.toy) scenario = scenario.scaled(kToyScale);
    sim_ = simulate_twitter(scenario, mix_seed(options_.seed, 0));
    live_ = std::make_unique<LiveApollo>(sim_.follows, config_);
  }

  std::uint64_t input_digest() const override {
    Fnv1a h;
    h.str(tweets_to_jsonl(sim_.tweets));
    for (std::size_t u = 0; u < sim_.follows.node_count(); ++u) {
      for (std::size_t v : sim_.follows.following(u)) {
        h.pod(static_cast<std::uint64_t>(u));
        h.pod(static_cast<std::uint64_t>(v));
      }
    }
    return h.value();
  }

  PassOutcome pass(Tracer& tracer, Ledger& ledger) override {
    // The constructor belongs to setup; a pass after the first gets a
    // fresh pipeline outside the timed region.
    std::unique_ptr<LiveApollo> live =
        live_ ? std::move(live_)
              : std::make_unique<LiveApollo>(sim_.follows, config_);
    PassOutcome out;
    Fnv1a outputs;
    window_claims_.clear();
    replayed_claims_.clear();
    std::vector<std::size_t> history;  // claims ingested per cluster
    std::vector<LabelVotes> votes;  // hidden labels per cluster
    std::vector<std::uint32_t> window;  // clusters touched since the refresh
    std::size_t window_tweets = 0;

    auto refresh = [&](std::uint64_t op) {
      ledger.attempt();
      OpCheck check;
      std::sort(window.begin(), window.end());
      window.erase(std::unique(window.begin(), window.end()), window.end());
      std::size_t replayed = 0;
      for (std::uint32_t c : window) replayed += history[c];
      try {
        Clock::time_point t0 = Clock::now();
        LiveRefreshResult result = [&] {
          Span span(tracer, "apollo.refresh", op);
          return live->refresh();
        }();
        double seconds = seconds_between(t0, Clock::now());
        out.seconds += seconds;
        out.op_ms.push_back(seconds * 1e3);
        plant_nonfinite_once(options_, result.belief);
        check.require(result.clusters == window,
                      "refresh clusters differ from the touched clusters");
        check.require(result.belief.size() == window.size() &&
                          result.log_odds.size() == window.size(),
                      "belief count differs from touched clusters");
        check.require(all_finite(result.belief) &&
                          all_finite(result.log_odds),
                      "non-finite belief or log-odds");
        check.require(result.window_claims == window_tweets,
                      "window claim count differs from tweets ingested");
        check.require(live->dropped_tweets() == 0, "tweets dropped");
        outputs.bytes(result.clusters.data(),
                      result.clusters.size() * sizeof(std::uint32_t));
        outputs.doubles(result.belief);
      } catch (const std::exception& e) {
        check.require(false, std::string("exception: ") + e.what());
      }
      if (!check.ok()) {
        ledger.fail("refresh " + std::to_string(op) + ": " + check.problem);
      }
      window_claims_.push_back(window_tweets);
      replayed_claims_.push_back(replayed);
      window.clear();
      window_tweets = 0;
    };

    std::uint64_t refreshes = 0;
    double next_hour = sim_.tweets.empty()
                           ? 0.0
                           : std::floor(sim_.tweets.front().time) + 1.0;
    for (const Tweet& tweet : sim_.tweets) {
      if (tweet.time >= next_hour) {
        if (!window.empty()) refresh(refreshes++);
        next_hour = std::floor(tweet.time) + 1.0;
      }
      Clock::time_point t0 = Clock::now();
      std::uint32_t cluster = [&] {
        Span span(tracer, "apollo.ingest", refreshes);
        return live->ingest(tweet);
      }();
      out.seconds += seconds_between(t0, Clock::now());
      if (cluster == LiveApollo::kDroppedTweet) continue;
      if (cluster >= history.size()) {
        history.resize(cluster + 1, 0);
        votes.resize(cluster + 1, LabelVotes{});
      }
      ++history[cluster];
      ++votes[cluster][static_cast<std::size_t>(tweet.hidden_label)];
      window.push_back(cluster);
      ++window_tweets;
    }
    if (!window.empty()) refresh(refreshes++);

    Clock::time_point t0 = Clock::now();
    auto top = [&] {
      Span span(tracer, "apollo.rank", refreshes);
      return live->top(kTop);
    }();
    out.seconds += seconds_between(t0, Clock::now());

    std::vector<Label> truth = majority_labels(votes);
    // top(100) must rank distinct refreshed clusters by descending
    // log-odds.
    ledger.attempt();
    bool ranked = top.size() == std::min(kTop, live->beliefs().size());
    std::vector<std::uint32_t> ids;
    for (std::size_t r = 0; r < top.size(); ++r) {
      ranked = ranked && std::isfinite(top[r].second) &&
               top[r].first < truth.size() &&
               (r == 0 || top[r - 1].second >= top[r].second);
      ids.push_back(top[r].first);
    }
    std::sort(ids.begin(), ids.end());
    ranked = ranked && std::adjacent_find(ids.begin(), ids.end()) == ids.end();
    if (!ranked) ledger.fail("top(100) is not a ranking of refreshed clusters");

    for (const auto& [cluster, log_odds] : top) {
      out.top_true += cluster < truth.size() && truth[cluster] == Label::kTrue;
    }
    out.top_slots = kTop;
    for (const auto& [cluster, belief] : live->beliefs()) {
      out.agree += cluster < truth.size() &&
                   (belief > 0.5) == (truth[cluster] == Label::kTrue);
    }
    out.graded = live->beliefs().size();
    out.output_hash = outputs.value();
    return out;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    double window = 0.0, replayed = 0.0;
    for (std::size_t w : window_claims_) window += static_cast<double>(w);
    for (std::size_t r : replayed_claims_) replayed += static_cast<double>(r);
    double refreshes =
        static_cast<double>(std::max<std::size_t>(1, window_claims_.size()));
    std::vector<double> ingests = tracer.durations("apollo.ingest");
    out.set("apollo.ingest_us",
            ingests.empty() ? 0.0
                            : tracer.total("apollo.ingest") * 1e6 /
                                  static_cast<double>(ingests.size()),
            "us");
    std::vector<double> refresh = tracer.durations("apollo.refresh");
    out.set("apollo.refresh_p50_ms", quantile(refresh, 0.5) * 1e3, "ms");
    out.set("apollo.refresh_p95_ms", quantile(refresh, 0.95) * 1e3, "ms");
    out.set("apollo.window_claims", window / refreshes, "count");
    out.set("apollo.replayed_claims", replayed / refreshes, "count");
    out.set("apollo.window_share", replayed > 0.0 ? window / replayed : 0.0,
            "ratio");
    out.set("apollo.sources", static_cast<double>(sim_.follows.node_count()),
            "count");
    out.set("apollo.rank_ms", tracer.total("apollo.rank") * 1e3, "ms");
  }

 private:
  const Options& options_;
  LiveApolloConfig config_;
  TwitterSimulation sim_;
  std::unique_ptr<LiveApollo> live_;
  // Per refresh of the last pass.
  std::vector<std::size_t> window_claims_;
  std::vector<std::size_t> replayed_claims_;
};

}  // namespace

std::unique_ptr<Workload> make_live_workload(const Options& options,
                                             ThreadPool& pool) {
  return std::make_unique<LiveWorkload>(options, pool);
}

}  // namespace perfbench
