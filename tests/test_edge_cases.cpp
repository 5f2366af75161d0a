// Edge-case hardening across modules: single-element inputs, extreme
// parameters, and boundary conditions the main suites don't reach.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "bounds/confidence.h"
#include "bounds/convolution_bound.h"
#include "bounds/exact_bound.h"
#include "bounds/gibbs_bound.h"
#include "core/em_ext.h"
#include "core/posterior.h"
#include "data/io.h"
#include "eval/json.h"
#include "eval/metrics.h"
#include "simgen/parametric_gen.h"
#include "temp_dir.h"

namespace ss {
namespace {

TEST(EdgeCases, SingleSourceSingleAssertion) {
  std::vector<Claim> claims = {{0, 0, 0.0}};
  Dataset d;
  d.claims = SourceClaimMatrix(1, 1, claims);
  d.dependency = DependencyIndicators::from_cells(1, 1, {});
  d.truth = {Label::kTrue};
  EmExtResult r = EmExtEstimator().run_detailed(d, 1);
  ASSERT_EQ(r.estimate.belief.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.estimate.belief[0]));
  EXPECT_TRUE(r.params.valid());
}

TEST(EdgeCases, GibbsBoundSingleSource) {
  ColumnModel model;
  model.z = 0.5;
  model.p_claim_true = {0.9};
  model.p_claim_false = {0.1};
  GibbsBoundConfig config;
  config.min_sweeps = 500;
  config.max_sweeps = 1500;
  GibbsBoundResult r = gibbs_bound(model, 1, config);
  BoundResult exact = exact_bound(model);
  EXPECT_NEAR(r.bound.error, exact.error, 0.03);
}

TEST(EdgeCases, ExactBoundExtremePrior) {
  ColumnModel model;
  model.z = 0.999;
  model.p_claim_true = {0.6, 0.7};
  model.p_claim_false = {0.3, 0.2};
  BoundResult bound = exact_bound(model);
  // The optimal estimator can always answer "true": error <= 1 - z.
  EXPECT_LE(bound.error, 0.001 + 1e-12);
}

TEST(EdgeCases, ConvolutionBoundIdenticalSources) {
  // Many identical sources: the LLR support collapses onto few points —
  // a stress case for the grid accumulation.
  ColumnModel model;
  model.z = 0.5;
  for (int i = 0; i < 25; ++i) {
    model.p_claim_true.push_back(0.55);
    model.p_claim_false.push_back(0.45);
  }
  BoundResult conv = convolution_bound(model);
  BoundResult exact = exact_bound(model);
  EXPECT_NEAR(conv.error, exact.error, 0.01);
}

TEST(EdgeCases, PosteriorWithExtremeParams) {
  std::vector<Claim> claims = {{0, 0, 0.0}, {1, 1, 0.0}};
  Dataset d;
  d.claims = SourceClaimMatrix(2, 2, claims);
  d.dependency = DependencyIndicators::from_cells(2, 2, {});
  ModelParams params;
  params.source = {{1.0, 0.0, 0.5, 0.5}, {0.0, 1.0, 0.5, 0.5}};
  params.z = 0.5;
  // Extreme rates are clamped internally; posteriors stay finite.
  auto post = all_posteriors(d, params);
  for (double p : post) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_GT(post[0], 0.99);  // perfectly reliable claimant
  EXPECT_LT(post[1], 0.01);  // perfectly contrarian claimant
}

TEST(EdgeCases, TopKZeroAndMetricsEmptyTruth) {
  Dataset d;
  d.claims = SourceClaimMatrix(2, 2, {});
  d.dependency = DependencyIndicators::from_cells(2, 2, {});
  d.truth = {Label::kUnknown, Label::kUnknown};
  EstimateResult est;
  est.belief = {0.6, 0.4};
  EXPECT_DOUBLE_EQ(top_k_true_fraction(d, est, 0), 0.0);
  ClassificationMetrics m = classify(d, est);
  EXPECT_EQ(m.evaluated, 0u);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);
}

TEST(EdgeCases, ConfidenceWithCollapsedPosterior) {
  Rng rng(81);
  SimKnobs knobs = SimKnobs::paper_defaults(10, 15);
  SimInstance inst = generate_parametric(knobs, rng);
  // All-true posterior drains the b/g denominators entirely.
  std::vector<double> ones(15, 1.0);
  auto conf = estimate_confidence(inst.dataset, inst.true_params, ones);
  for (const auto& c : conf) {
    EXPECT_DOUBLE_EQ(c.b.n_effective, 0.0);
    EXPECT_DOUBLE_EQ(c.b.stderr_asymptotic, 0.0);
    EXPECT_GE(c.a.n_effective, 0.0);
  }
}

TEST(EdgeCases, JsonDeepNestingAndFileWrite) {
  JsonValue root = JsonValue::object();
  JsonValue* cur = &root;
  for (int depth = 0; depth < 20; ++depth) {
    (*cur)["level"] = static_cast<long long>(depth);
    (*cur)["child"] = JsonValue::object();
    cur = &(*cur)["child"];
  }
  test::TempDir tmp("edge_deep_json");
  std::string path = tmp.file("deep.json");
  root.write_file(path, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"level\":19"), std::string::npos);
}

TEST(EdgeCases, DatasetIoEmptyDataset) {
  Dataset d;
  d.name = "empty";
  d.claims = SourceClaimMatrix(3, 2, {});
  d.dependency = DependencyIndicators::from_cells(3, 2, {});
  d.truth = {Label::kUnknown, Label::kUnknown};
  test::TempDir tmp("edge_empty_dataset");
  std::string dir = tmp.file("dataset");
  save_dataset(d, dir);
  Dataset r = load_dataset(dir);
  EXPECT_EQ(r.claims.claim_count(), 0u);
  EXPECT_EQ(r.source_count(), 3u);
  EXPECT_EQ(r.assertion_count(), 2u);
}

TEST(EdgeCases, WarmupDisabledStillConverges) {
  Rng rng(83);
  SimKnobs knobs = SimKnobs::paper_defaults(30, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  EmExtConfig config;
  config.warmup_iters = 0;
  EmExtResult r = EmExtEstimator(config).run_detailed(inst.dataset, 1);
  EXPECT_TRUE(r.estimate.converged);
  EXPECT_TRUE(r.params.valid());
}

}  // namespace
}  // namespace ss
