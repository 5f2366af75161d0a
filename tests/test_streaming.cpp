// Tests for the recursive (streaming) dependency-aware estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/em_ext.h"
#include "core/streaming_em.h"
#include "eval/metrics.h"
#include "math/stats.h"
#include "simgen/parametric_gen.h"

namespace ss {
namespace {

struct Stream {
  SimInstance population;
  Rng rng{1};
};

Stream make_stream(std::uint64_t seed, std::size_t n = 40,
                   double rel_lo = 0.35, double rel_hi = 0.95) {
  Stream s;
  s.rng = Rng(seed);
  SimKnobs knobs = SimKnobs::paper_defaults(n, 20);
  knobs.p_indep_true = {rel_lo, rel_hi};
  knobs.p_dep_true = {0.3, 0.9};
  s.population = generate_parametric(knobs, s.rng);
  return s;
}

EstimateResult to_estimate(const StreamingBatchResult& r) {
  EstimateResult est;
  est.belief = r.belief;
  est.log_odds = r.log_odds;
  est.probabilistic = true;
  return est;
}

TEST(StreamingEm, BatchShapesAndRanges) {
  Stream s = make_stream(3);
  StreamingEmExt streaming(40);
  SimInstance batch = generate_parametric_batch(
      s.population.true_params, s.population.forest, 15, s.rng);
  StreamingBatchResult r = streaming.observe(batch.dataset);
  ASSERT_EQ(r.belief.size(), 15u);
  ASSERT_EQ(r.log_odds.size(), 15u);
  for (double b : r.belief) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
  EXPECT_EQ(streaming.batches_seen(), 1u);
  EXPECT_TRUE(streaming.params().valid());
}

TEST(StreamingEm, RejectsSourceMismatch) {
  StreamingEmExt streaming(10);
  Rng rng(4);
  SimKnobs knobs = SimKnobs::paper_defaults(12, 10);
  SimInstance inst = generate_parametric(knobs, rng);
  EXPECT_THROW(streaming.observe(inst.dataset), std::invalid_argument);
  // The rejected batch used up nothing: its sequence number is still
  // free, so a retry with a well-shaped batch is accepted, not dropped
  // as a stale duplicate.
  EXPECT_EQ(streaming.next_sequence(), 0u);
  EXPECT_EQ(streaming.batches_seen(), 0u);
  SimInstance good = generate_parametric(SimKnobs::paper_defaults(10, 10),
                                         rng);
  StreamingBatchResult r = streaming.observe(good.dataset, 0);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.belief.size(), good.dataset.assertion_count());
  EXPECT_EQ(streaming.next_sequence(), 1u);
}

TEST(StreamingEm, ParameterEstimatesSharpenOverBatches) {
  Stream s = make_stream(5);
  StreamingEmExt streaming(40);
  auto param_error = [&](const ModelParams& est) {
    double err = 0.0;
    for (std::size_t i = 0; i < 40; ++i) {
      err += std::fabs(est.source[i].a -
                       s.population.true_params.source[i].a);
    }
    return err / 40.0;
  };
  double early_error = 0.0;
  double late_error = 0.0;
  for (int w = 0; w < 12; ++w) {
    SimInstance batch = generate_parametric_batch(
        s.population.true_params, s.population.forest, 20, s.rng);
    streaming.observe(batch.dataset);
    if (w == 0) early_error = param_error(streaming.params());
  }
  late_error = param_error(streaming.params());
  EXPECT_LT(late_error, early_error);
}

TEST(StreamingEm, BeatsIsolatedOnSmallWindows) {
  // Averaged over several windows and two populations, carrying source
  // statistics across windows must beat re-learning from each tiny
  // window alone.
  StreamingStats stream_acc;
  StreamingStats isolated_acc;
  for (std::uint64_t seed : {11ULL, 13ULL}) {
    Stream s = make_stream(seed);
    StreamingEmExt streaming(40);
    for (int w = 0; w < 10; ++w) {
      SimInstance batch = generate_parametric_batch(
          s.population.true_params, s.population.forest, 10, s.rng);
      StreamingBatchResult r = streaming.observe(batch.dataset);
      if (w < 2) continue;  // warm-up windows
      stream_acc.add(
          classify(batch.dataset, to_estimate(r)).accuracy());
      isolated_acc.add(
          classify(batch.dataset, EmExtEstimator().run(batch.dataset, 1))
              .accuracy());
    }
  }
  EXPECT_GT(stream_acc.mean(), isolated_acc.mean() - 1e-9);
}

TEST(StreamingEm, ForgettingTracksDrift) {
  // After the population's reliabilities flip, a forgetful stream
  // (lambda < 1) recovers; we check its post-drift accuracy is well
  // above chance.
  Stream s = make_stream(17);
  StreamingEmConfig config;
  config.forgetting = 0.6;
  StreamingEmExt streaming(40, config);
  for (int w = 0; w < 6; ++w) {
    SimInstance batch = generate_parametric_batch(
        s.population.true_params, s.population.forest, 20, s.rng);
    streaming.observe(batch.dataset);
  }
  // Drift: every source's reliabilities are redrawn (the population
  // churns) while the overall "sources are better than chance"
  // convention persists. (A *total* symmetric flip a<->b, z<->1-z is the
  // model's label-switching twin and is unidentifiable by any estimator,
  // so that is not what we test.)
  ModelParams drifted = s.population.true_params;
  Rng drift_rng(99);
  for (auto& sp : drifted.source) {
    double p_on = drift_rng.uniform(0.5, 0.7);
    double p_it = drift_rng.uniform(0.55, 0.95);
    double p_dt = drift_rng.uniform(0.4, 0.9);
    sp.a = p_on * p_it;
    sp.b = p_on * (1.0 - p_it);
    sp.f = p_on * p_dt;
    sp.g = p_on * (1.0 - p_dt);
  }
  StreamingStats post;
  for (int w = 0; w < 8; ++w) {
    SimInstance batch = generate_parametric_batch(
        drifted, s.population.forest, 20, s.rng);
    StreamingBatchResult r = streaming.observe(batch.dataset);
    if (w >= 4) {
      post.add(classify(batch.dataset, to_estimate(r)).accuracy());
    }
  }
  EXPECT_GT(post.mean(), 0.6);
}

TEST(StreamingEm, DeterministicGivenSameStream) {
  Stream s1 = make_stream(23);
  Stream s2 = make_stream(23);
  StreamingEmExt a(40);
  StreamingEmExt b(40);
  for (int w = 0; w < 3; ++w) {
    SimInstance batch1 = generate_parametric_batch(
        s1.population.true_params, s1.population.forest, 15, s1.rng);
    SimInstance batch2 = generate_parametric_batch(
        s2.population.true_params, s2.population.forest, 15, s2.rng);
    auto r1 = a.observe(batch1.dataset);
    auto r2 = b.observe(batch2.dataset);
    EXPECT_EQ(r1.belief, r2.belief);
  }
}

}  // namespace
}  // namespace ss
