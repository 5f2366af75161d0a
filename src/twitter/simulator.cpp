#include "twitter/simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "math/discrete_sampler.h"
#include "twitter/retweet_detect.h"
#include "twitter/text.h"
#include "util/log.h"

namespace ss {
namespace {

struct AssertionInfo {
  Label label;
  std::string canonical;
  double popularity;  // unnormalized sampling weight
};

}  // namespace

TwitterSimulation simulate_twitter(const TwitterScenario& scenario,
                                   std::uint64_t seed) {
  Rng rng(seed, /*stream=*/0x712);
  TwitterSimulation sim;
  sim.scenario = scenario;
  sim.follows = make_preferential_attachment(scenario.graph, rng);

  // Hidden assertion inventory with Zipf popularity.
  std::size_t total_assertions =
      scenario.true_facts + scenario.false_rumours + scenario.opinions;
  TweetTextGenerator text_gen(scenario.topic_words, seed ^ 0x7357);
  std::vector<AssertionInfo> assertions;
  assertions.reserve(total_assertions);
  sim.assertion_labels.reserve(total_assertions);
  for (std::size_t k = 0; k < total_assertions; ++k) {
    Label label = k < scenario.true_facts ? Label::kTrue
                  : k < scenario.true_facts + scenario.false_rumours
                      ? Label::kFalse
                      : Label::kOpinion;
    AssertionInfo info;
    info.label = label;
    info.canonical = text_gen.make_canonical(k, label == Label::kOpinion);
    assertions.push_back(std::move(info));
    sim.assertion_labels.push_back(label);
  }
  // Popularity ranks are shuffled so label blocks don't correlate with
  // popularity; rumour virality is modelled separately.
  {
    std::vector<std::size_t> rank(total_assertions);
    for (std::size_t k = 0; k < total_assertions; ++k) rank[k] = k;
    rng.shuffle(rank);
    for (std::size_t k = 0; k < total_assertions; ++k) {
      assertions[k].popularity = 1.0 / std::pow(
          static_cast<double>(rank[k] + 1), scenario.popularity_exponent);
    }
  }
  // Cumulative weights for popularity sampling.
  std::vector<double> cum(total_assertions);
  double acc = 0.0;
  for (std::size_t k = 0; k < total_assertions; ++k) {
    acc += assertions[k].popularity;
    cum[k] = acc;
  }
  // Unclaimed false assertions, for rumour invention: a fresh rumour has
  // exactly one originator; its support can then only grow by echoes.
  std::vector<std::size_t> fresh_rumours;
  for (std::size_t k = 0; k < total_assertions; ++k) {
    if (assertions[k].label == Label::kFalse) fresh_rumours.push_back(k);
  }
  rng.shuffle(fresh_rumours);

  auto sample_assertion_with_label = [&](bool want_true,
                                         bool want_opinion) -> std::size_t {
    // Rejection-sample popularity-weighted assertions until the label
    // class matches; class frequencies make this terminate quickly.
    for (std::size_t tries = 0; tries < 256; ++tries) {
      double r = rng.uniform() * acc;
      std::size_t k = static_cast<std::size_t>(
          std::lower_bound(cum.begin(), cum.end(), r) - cum.begin());
      if (k >= total_assertions) k = total_assertions - 1;
      Label l = assertions[k].label;
      if (want_opinion) {
        if (l == Label::kOpinion) return k;
      } else if (want_true) {
        if (l == Label::kTrue) return k;
      } else {
        if (l == Label::kFalse) return k;
      }
    }
    // Degenerate scenario (e.g. zero rumours): fall back to any index of
    // the wanted class by linear scan.
    for (std::size_t k = 0; k < total_assertions; ++k) {
      Label l = assertions[k].label;
      if ((want_opinion && l == Label::kOpinion) ||
          (!want_opinion && want_true && l == Label::kTrue) ||
          (!want_opinion && !want_true && l == Label::kFalse)) {
        return k;
      }
    }
    return 0;
  };

  // Per-user hidden reliability: bimodal mixture (see scenario docs).
  std::vector<double> reliability(scenario.users);
  for (double& r : reliability) {
    bool unreliable = rng.bernoulli(scenario.unreliable_fraction);
    double mean = unreliable ? scenario.unreliable_mean
                             : scenario.reliability_mean;
    double stddev = unreliable ? scenario.unreliable_stddev
                               : scenario.reliability_stddev;
    r = std::clamp(rng.normal(mean, stddev), 0.02, 0.98);
  }

  // Original tweets: authors drawn Zipf over users (heavy-tailed
  // activity), timestamps uniform over the event window, then sorted.
  struct Seed {
    std::uint32_t user;
    double time;
  };
  DiscreteSampler author_sampler = DiscreteSampler::zipf(
      scenario.users, scenario.activity_exponent);
  std::vector<Seed> seeds(scenario.seed_tweets);
  for (auto& s : seeds) {
    s.user = static_cast<std::uint32_t>(author_sampler.sample(rng));
    s.time = rng.uniform(0.0, scenario.duration_hours);
  }
  std::sort(seeds.begin(), seeds.end(),
            [](const Seed& x, const Seed& y) { return x.time < y.time; });

  // Emit originals and breadth-first retweet cascades.
  std::uint32_t next_id = 0;
  std::deque<std::uint32_t> cascade;  // tweet ids pending propagation
  auto propagate = [&](std::uint32_t tweet_id) {
    cascade.push_back(tweet_id);
    while (!cascade.empty()) {
      std::uint32_t cur_id = cascade.front();
      cascade.pop_front();
      // Copy the fields needed before push_back can reallocate.
      const Tweet cur = sim.tweets[cur_id];
      const AssertionInfo& info = assertions[cur.hidden_assertion];
      double rate = scenario.retweet_rate;
      if (info.label == Label::kFalse) rate *= scenario.rumour_virality;
      for (std::size_t follower : sim.follows.followers(cur.user)) {
        if (!rng.bernoulli(rate)) continue;
        Tweet rt;
        rt.id = next_id++;
        rt.user = static_cast<std::uint32_t>(follower);
        rt.time = cur.time + rng.uniform(0.02, 1.5);  // minutes to ~1.5h
        rt.text =
            TweetTextGenerator::make_retweet(cur.text, username_of(cur.user));
        rt.parent = cur.id;
        rt.hidden_assertion = cur.hidden_assertion;
        rt.hidden_label = cur.hidden_label;
        sim.tweets.push_back(rt);
        cascade.push_back(rt.id);
      }
    }
  };

  for (const Seed& s : seeds) {
    bool opinion = rng.bernoulli(scenario.opinion_rate);
    bool truthful = rng.bernoulli(reliability[s.user]);
    std::size_t k;
    if (!opinion && !truthful && !fresh_rumours.empty() &&
        rng.bernoulli(scenario.rumour_invention)) {
      k = fresh_rumours.back();
      fresh_rumours.pop_back();
    } else {
      k = sample_assertion_with_label(truthful, opinion);
    }
    Tweet t;
    t.id = next_id++;
    t.user = s.user;
    t.time = s.time;
    t.text = text_gen.make_variant(assertions[k].canonical, rng);
    t.hidden_assertion = static_cast<std::uint32_t>(k);
    t.hidden_label = assertions[k].label;
    sim.tweets.push_back(t);
    propagate(t.id);
  }

  std::stable_sort(sim.tweets.begin(), sim.tweets.end(),
                   [](const Tweet& x, const Tweet& y) {
                     return x.time < y.time;
                   });
  SS_DEBUG << "simulate_twitter(" << scenario.name << "): "
           << sim.tweets.size() << " tweets over " << scenario.users
           << " users";
  return sim;
}

}  // namespace ss
