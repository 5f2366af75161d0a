// tweets: raw JSONL tweets -> ranked assertions, the path crawled data
// takes (parse, retweet detection, dependency-network inference,
// clustering, matrix + D, EM-Ext, ranking), over the five Table III
// scenarios.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "twitter/builder.h"
#include "twitter/clustering.h"
#include "twitter/retweet_detect.h"
#include "twitter/scenario.h"
#include "twitter/tweet_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ss;

constexpr double kScale = 10.0;
constexpr double kToyScale = 0.05;
constexpr std::size_t kTop = 100;
// Repetitions of the single-call table and E-step timings.
constexpr int kCoreReps = 3;

bool time_id_less(const Tweet& a, const Tweet& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.id < b.id;
}

struct Scenario {
  std::string name;
  std::string jsonl;
  std::size_t tweets = 0;
  // Hidden label of each tweet, in the (time, id) order
  // build_dataset_from_stream aligns its clustering with. Generator side
  // only: the library never sees it.
  std::vector<Label> sorted_labels;
};

struct FitStats {
  std::size_t iterations = 0;  // E-steps, warm-up included
  bool converged = true;
  std::size_t clusters = 0;
  std::size_t claims = 0;
  std::size_t dependent_claims = 0;
  double em_seconds = 0.0;
};

class TweetsWorkload : public Workload {
 public:
  TweetsWorkload(const Options& options, ThreadPool& pool)
      : options_(options), pool_(pool) {
    em_config_.pool = &pool_;
  }

  std::string name() const override { return "tweets"; }

  std::string scale_description() const override {
    std::size_t tweets = 0;
    for (const Scenario& s : scenarios_) tweets += s.tweets;
    return "5 Table III scenarios x" +
           std::to_string(options_.toy ? kToyScale : kScale) + ", " +
           std::to_string(tweets) + " tweets";
  }

  void setup() override {
    scenarios_.clear();
    std::vector<TwitterScenario> presets = paper_scenarios();
    for (std::size_t i = 0; i < presets.size(); ++i) {
      TwitterScenario preset =
          presets[i].scaled(options_.toy ? kToyScale : kScale);
      TwitterSimulation sim =
          simulate_twitter(preset, mix_seed(options_.seed, i));
      Scenario s;
      s.name = preset.name;
      s.tweets = sim.tweets.size();
      s.jsonl = tweets_to_jsonl(sim.tweets);
      std::sort(sim.tweets.begin(), sim.tweets.end(), time_id_less);
      s.sorted_labels.reserve(sim.tweets.size());
      for (const Tweet& t : sim.tweets) {
        s.sorted_labels.push_back(t.hidden_label);
      }
      scenarios_.push_back(std::move(s));
    }
  }

  std::uint64_t input_digest() const override {
    Fnv1a h;
    for (const Scenario& s : scenarios_) h.str(s.jsonl);
    return h.value();
  }

  PassOutcome pass(Tracer& tracer, Ledger& ledger) override {
    PassOutcome out;
    Fnv1a outputs;
    fits_.assign(scenarios_.size(), FitStats{});
    std::size_t unconverged = 0;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const Scenario& s = scenarios_[i];
      ledger.attempt();
      OpCheck check;
      try {
        BuiltDataset built;
        EmExtResult fit;
        std::vector<std::uint32_t> order;
        Clock::time_point t0 = Clock::now();
        {
          Span op(tracer, "tweets.scenario", i);
          auto parsed = [&] {
            Span span(tracer, "twitter.parse", i);
            return parse_tweets_jsonl(s.jsonl, s.name);
          }();
          if (!parsed.ok()) throw std::runtime_error(parsed.error().message);
          {
            Span span(tracer, "twitter.ingest", i);
            built = build_dataset_from_stream(std::move(parsed).value());
          }
          {
            Span span(tracer, "core.em", i);
            Clock::time_point em0 = Clock::now();
            fit = EmExtEstimator(em_config_).run_detailed(built.dataset,
                                                          options_.seed);
            fits_[i].em_seconds = seconds_between(em0, Clock::now());
          }
          Span span(tracer, "apollo.rank", i);
          order = fit.estimate.ranking();
        }
        double seconds = seconds_between(t0, Clock::now());
        out.seconds += seconds;
        out.op_ms.push_back(seconds * 1e3);

        std::size_t m = built.dataset.assertion_count();
        plant_nonfinite_once(options_, fit.estimate.belief);
        check.require(fit.estimate.belief.size() == m &&
                          fit.estimate.log_odds.size() == m,
                      "belief count differs from assertion count");
        check.require(all_finite(fit.estimate.belief) &&
                          all_finite(fit.estimate.log_odds),
                      "non-finite belief or log-odds");
        check.require(is_permutation_of_range(order, m),
                      "ranking is not a permutation");
        check.require(built.clustering.cluster_of.size() ==
                          s.sorted_labels.size(),
                      "clustering does not cover every tweet");
        if (!fit.estimate.converged) ++unconverged;
        if (check.ok()) {
          std::vector<Label> truth = grade_clusters(s, built.clustering);
          for (std::size_t r = 0; r < std::min(kTop, m); ++r) {
            out.top_true += truth[order[r]] == Label::kTrue;
          }
          out.top_slots += kTop;
          for (std::size_t j = 0; j < m; ++j) {
            out.agree += (fit.estimate.belief[j] > 0.5) ==
                         (truth[j] == Label::kTrue);
          }
          out.graded += m;
        }
        outputs.doubles(fit.estimate.belief);
        outputs.doubles(fit.estimate.log_odds);

        FitStats& f = fits_[i];
        f.iterations = fit.likelihood_trace.size();
        f.converged = fit.estimate.converged;
        f.clusters = m;
        f.claims = built.dataset.claims.claim_count();
        if (tracer.enabled()) decompose(i, built, fit.params, tracer, check);
      } catch (const std::exception& e) {
        check.require(false, std::string("exception: ") + e.what());
      }
      if (!check.ok()) ledger.fail(s.name + ": " + check.problem);
    }
    out.output_hash = outputs.value();
    out.extra.set("unconverged", static_cast<double>(unconverged), "count");
    std::size_t iterations = 0;
    for (const FitStats& f : fits_) iterations += f.iterations;
    out.extra.set("em_iterations", static_cast<double>(iterations), "count");
    return out;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    std::size_t tweets = 0, clusters = 0, claims = 0, dependent = 0;
    std::size_t iterations = 0, unconverged = 0;
    double ms_per_iter = 0.0;
    for (std::size_t i = 0; i < fits_.size(); ++i) {
      tweets += scenarios_[i].tweets;
      clusters += fits_[i].clusters;
      claims += fits_[i].claims;
      dependent += fits_[i].dependent_claims;
      iterations += fits_[i].iterations;
      unconverged += !fits_[i].converged;
      if (fits_[i].iterations > 0) {
        ms_per_iter += fits_[i].em_seconds * 1e3 /
                       static_cast<double>(fits_[i].iterations);
      }
    }
    double ingest = tracer.total("twitter.ingest");
    double pieces = tracer.total("twitter.retweet") +
                    tracer.total("twitter.depnet") +
                    tracer.total("twitter.cluster") +
                    tracer.total("data.matrix") +
                    tracer.total("data.dependency");
    out.set("twitter.parse_s", tracer.total("twitter.parse"), "s");
    out.set("twitter.retweet_s", tracer.total("twitter.retweet"), "s");
    out.set("twitter.depnet_s", tracer.total("twitter.depnet"), "s");
    out.set("twitter.cluster_s", tracer.total("twitter.cluster"), "s");
    out.set("twitter.ingest_s", ingest, "s");
    out.set("twitter.ingest_other_s", ingest - pieces, "s");
    out.set("twitter.tweets", static_cast<double>(tweets), "count");
    out.set("twitter.clusters", static_cast<double>(clusters), "count");
    out.set("data.matrix_s", tracer.total("data.matrix"), "s");
    out.set("data.dependency_s", tracer.total("data.dependency"), "s");
    out.set("data.claims", static_cast<double>(claims), "count");
    out.set("data.dependent_frac",
            claims == 0 ? 0.0
                        : static_cast<double>(dependent) /
                              static_cast<double>(claims),
            "ratio");
    out.set("core.em_s", tracer.total("core.em"), "s");
    out.set("core.em_iters", static_cast<double>(iterations), "count");
    out.set("core.em_ms_per_iter", ms_per_iter, "ms");
    out.set("core.unconverged", static_cast<double>(unconverged), "count");
    out.set("core.table_bind_ms",
            tracer.total("core.table_bind") * 1e3 / kCoreReps, "ms");
    out.set("core.table_ms", tracer.total("core.table") * 1e3 / kCoreReps,
            "ms");
    out.set("core.estep_ms", tracer.total("core.estep") * 1e3 / kCoreReps,
            "ms");
    out.set("apollo.rank_ms", tracer.total("apollo.rank") * 1e3, "ms");
    out.set("trace.remainder_s", tracer.self_total("tweets.scenario"), "s");
  }

 private:
  static std::vector<Label> grade_clusters(const Scenario& s,
                                           const ClusteringResult& c) {
    std::vector<LabelVotes> votes(c.cluster_count, LabelVotes{});
    for (std::size_t t = 0; t < s.sorted_labels.size(); ++t) {
      ++votes[c.cluster_of[t]][static_cast<std::size_t>(s.sorted_labels[t])];
    }
    return majority_labels(votes);
  }

  // Traced run only: times each public piece of build_dataset_from_stream
  // on the same tweets, outside the composite's span, then the likelihood
  // table and one fused E-step at the fitted parameters.
  void decompose(std::size_t i, const BuiltDataset& built,
                 const ModelParams& params, Tracer& tracer, OpCheck& check) {
    Span root(tracer, "tweets.decompose", i);
    auto parsed = parse_tweets_jsonl(scenarios_[i].jsonl, scenarios_[i].name);
    if (!parsed.ok()) throw std::runtime_error(parsed.error().message);
    std::vector<Tweet> tweets = std::move(parsed).value();
    std::sort(tweets.begin(), tweets.end(), time_id_less);
    std::size_t user_count = 0;
    for (const Tweet& t : tweets) {
      user_count = std::max<std::size_t>(user_count, t.user + 1);
    }
    {
      Span span(tracer, "twitter.retweet", i);
      detect_retweet_parents(tweets);
    }
    Digraph network = [&] {
      Span span(tracer, "twitter.depnet", i);
      return infer_dependency_network(tweets, user_count);
    }();
    // The composite keeps the edges between active users only.
    check.require(network.edge_count() >= built.follows.edge_count(),
                  "dependency network smaller than the composite's");
    ClusteringResult clustering = [&] {
      Span span(tracer, "twitter.cluster", i);
      return cluster_tweets(tweets);
    }();
    check.require(clustering.cluster_count == built.clustering.cluster_count,
                  "separate clustering differs from the composite's");

    // The claim list build_dataset hands to the matrix: one claim per
    // tweet, sources numbered by ascending user id.
    const std::vector<std::uint32_t>& users = built.user_of_source;
    std::vector<Claim> claims;
    claims.reserve(tweets.size());
    for (std::size_t t = 0; t < tweets.size(); ++t) {
      auto it = std::lower_bound(users.begin(), users.end(), tweets[t].user);
      claims.push_back({static_cast<std::uint32_t>(it - users.begin()),
                        clustering.cluster_of[t], tweets[t].time});
    }
    SourceClaimMatrix matrix = [&] {
      Span span(tracer, "data.matrix", i);
      return SourceClaimMatrix(users.size(), clustering.cluster_count,
                               claims);
    }();
    DependencyIndicators dependency = [&] {
      Span span(tracer, "data.dependency", i);
      return DependencyIndicators::from_graph(matrix, built.follows);
    }();
    check.require(matrix.claim_count() == built.dataset.claims.claim_count() &&
                      dependency.exposed_cell_count() ==
                          built.dataset.dependency.exposed_cell_count(),
                  "separate matrix or D differs from the composite's");
    fits_[i].dependent_claims =
        matrix.claim_count() - count_original_claims(matrix, dependency);

    for (int rep = 0; rep < kCoreReps; ++rep) {
      std::optional<LikelihoodTable> table;
      {
        Span span(tracer, "core.table_bind", i);
        table.emplace(built.dataset);
      }
      {
        Span span(tracer, "core.table", i);
        table->set_params(params);
      }
      Span span(tracer, "core.estep", i);
      EStepResult e = fused_e_step(*table, &pool_);
      check.require(all_finite(e.posterior), "non-finite E-step posterior");
    }
  }

  const Options& options_;
  ThreadPool& pool_;
  EmExtConfig em_config_;
  std::vector<Scenario> scenarios_;
  std::vector<FitStats> fits_;  // of the last pass
};

}  // namespace

std::vector<Label> majority_labels(const std::vector<LabelVotes>& votes) {
  std::vector<Label> labels(votes.size(), Label::kUnknown);
  for (std::size_t c = 0; c < votes.size(); ++c) {
    std::size_t best = 0;
    for (std::size_t l = 0; l < votes[c].size(); ++l) {
      if (votes[c][l] > best) {
        best = votes[c][l];
        labels[c] = static_cast<Label>(l);
      }
    }
  }
  return labels;
}

std::unique_ptr<Workload> make_tweets_workload(const Options& options,
                                               ThreadPool& pool) {
  return std::make_unique<TweetsWorkload>(options, pool);
}

}  // namespace perfbench
