// Unit and property tests for the core model: Table-II likelihoods, the
// baseline+correction column likelihood against a naive reference, the
// Eq.-9 posterior, and the EM-Ext estimator's invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "simgen/parametric_gen.h"

namespace ss {
namespace {

// O(n) per-cell reference implementation of Eq. 4/5.
ColumnLogLikelihood naive_column(const Dataset& dataset,
                                 const ModelParams& params,
                                 std::size_t assertion) {
  ColumnLogLikelihood out;
  for (std::size_t i = 0; i < dataset.source_count(); ++i) {
    bool claimed = dataset.claims.has_claim(i, assertion);
    bool dependent = dataset.dependency.dependent(i, assertion);
    out.log_given_true += std::log(
        cell_probability(params.source[i], claimed, true, dependent));
    out.log_given_false += std::log(
        cell_probability(params.source[i], claimed, false, dependent));
  }
  return out;
}

Dataset tiny_dataset() {
  // 3 sources, 2 assertions; source 1 exposed to assertion 0.
  std::vector<Claim> claims = {{0, 0, 0.0}, {1, 0, 1.0}, {2, 1, 0.0}};
  Dataset d;
  d.name = "tiny";
  d.claims = SourceClaimMatrix(3, 2, claims);
  d.dependency = DependencyIndicators::from_cells(3, 2, {{1, 0}});
  d.truth = {Label::kTrue, Label::kFalse};
  return d;
}

ModelParams tiny_params() {
  ModelParams p;
  p.source = {{0.7, 0.2, 0.6, 0.3},
              {0.5, 0.4, 0.8, 0.1},
              {0.9, 0.3, 0.5, 0.5}};
  p.z = 0.6;
  return p;
}

TEST(CellProbability, MatchesTableII) {
  SourceParams p{0.7, 0.2, 0.6, 0.3};
  // (C, D, SC) -> probability, all eight rows of Table II.
  EXPECT_DOUBLE_EQ(cell_probability(p, true, true, false), 0.7);    // a
  EXPECT_DOUBLE_EQ(cell_probability(p, false, true, false), 0.3);   // 1-a
  EXPECT_DOUBLE_EQ(cell_probability(p, true, false, false), 0.2);   // b
  EXPECT_DOUBLE_EQ(cell_probability(p, false, false, false), 0.8);  // 1-b
  EXPECT_DOUBLE_EQ(cell_probability(p, true, true, true), 0.6);     // f
  EXPECT_DOUBLE_EQ(cell_probability(p, false, true, true), 0.4);    // 1-f
  EXPECT_DOUBLE_EQ(cell_probability(p, true, false, true), 0.3);    // g
  EXPECT_DOUBLE_EQ(cell_probability(p, false, false, true), 0.7);   // 1-g
}

TEST(LikelihoodTable, MatchesNaiveOnTiny) {
  Dataset d = tiny_dataset();
  ModelParams p = tiny_params();
  LikelihoodTable table(d, p);
  for (std::size_t j = 0; j < d.assertion_count(); ++j) {
    ColumnLogLikelihood fast = table.column(j);
    ColumnLogLikelihood ref = naive_column(d, p, j);
    EXPECT_NEAR(fast.log_given_true, ref.log_given_true, 1e-10) << j;
    EXPECT_NEAR(fast.log_given_false, ref.log_given_false, 1e-10) << j;
  }
}

class LikelihoodRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LikelihoodRandomTest, MatchesNaiveOnGeneratedInstances) {
  Rng rng(GetParam());
  SimKnobs knobs = SimKnobs::paper_defaults(25, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  ModelParams random = random_init_params(25, rng);
  for (const ModelParams& p : {inst.true_params, random}) {
    LikelihoodTable table(inst.dataset, p);
    for (std::size_t j = 0; j < inst.dataset.assertion_count(); ++j) {
      ColumnLogLikelihood fast = table.column(j);
      ColumnLogLikelihood ref = naive_column(inst.dataset, p, j);
      ASSERT_NEAR(fast.log_given_true, ref.log_given_true, 1e-8);
      ASSERT_NEAR(fast.log_given_false, ref.log_given_false, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikelihoodRandomTest,
                         ::testing::Range(1, 9));

TEST(LikelihoodTable, ParamSizeMismatchThrows) {
  Dataset d = tiny_dataset();
  ModelParams p = tiny_params();
  p.source.pop_back();
  EXPECT_THROW(LikelihoodTable(d, p), std::invalid_argument);
}

TEST(LikelihoodTable, DataLogLikelihoodIsSumOfColumns) {
  Dataset d = tiny_dataset();
  ModelParams p = tiny_params();
  LikelihoodTable table(d, p);
  double manual = 0.0;
  for (std::size_t j = 0; j < d.assertion_count(); ++j) {
    ColumnLogLikelihood c = table.column(j);
    manual += std::log(std::exp(c.log_given_true) * p.z +
                       std::exp(c.log_given_false) * (1 - p.z));
  }
  EXPECT_NEAR(table.data_log_likelihood(), manual, 1e-9);
}

TEST(Posterior, MatchesBayesRuleByHand) {
  Dataset d = tiny_dataset();
  ModelParams p = tiny_params();
  LikelihoodTable table(d, p);
  for (std::size_t j = 0; j < 2; ++j) {
    ColumnLogLikelihood c = table.column(j);
    double w1 = std::exp(c.log_given_true) * p.z;
    double w0 = std::exp(c.log_given_false) * (1 - p.z);
    EXPECT_NEAR(assertion_posterior(table, j), w1 / (w1 + w0), 1e-12);
  }
}

TEST(Posterior, InUnitIntervalOnRandomInstances) {
  Rng rng(77);
  SimKnobs knobs = SimKnobs::paper_defaults(40, 40);
  SimInstance inst = generate_parametric(knobs, rng);
  auto post = all_posteriors(inst.dataset, inst.true_params);
  ASSERT_EQ(post.size(), 40u);
  for (double p : post) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Posterior, MoreSupportRaisesBelief) {
  // Two assertions; assertion 0 claimed by 3 reliable sources,
  // assertion 1 by none.
  std::vector<Claim> claims = {{0, 0, 0.0}, {1, 0, 0.0}, {2, 0, 0.0}};
  Dataset d;
  d.claims = SourceClaimMatrix(3, 2, claims);
  d.dependency = DependencyIndicators::from_cells(3, 2, {});
  ModelParams p;
  p.source.assign(3, SourceParams{0.6, 0.2, 0.5, 0.5});
  p.z = 0.5;
  auto post = all_posteriors(d, p);
  EXPECT_GT(post[0], 0.9);
  EXPECT_LT(post[1], 0.5);
}

TEST(Params, ValidAndClamp) {
  ModelParams p = tiny_params();
  EXPECT_TRUE(p.valid());
  p.source[0].a = 1.5;
  EXPECT_FALSE(p.valid());
  clamp_params(p);
  EXPECT_TRUE(p.valid());
  p.z = -0.1;
  EXPECT_FALSE(p.valid());
}

TEST(Params, MaxAbsDiff) {
  ModelParams p = tiny_params();
  ModelParams q = p;
  q.source[1].f += 0.125;
  EXPECT_DOUBLE_EQ(p.max_abs_diff(q), 0.125);
  q.z = p.z + 0.3;
  EXPECT_DOUBLE_EQ(p.max_abs_diff(q), 0.3);
  ModelParams r;
  EXPECT_THROW(p.max_abs_diff(r), std::invalid_argument);
}

TEST(Params, RandomInitOrdered) {
  Rng rng(5);
  ModelParams p = random_init_params(20, rng);
  EXPECT_TRUE(p.valid());
  for (const SourceParams& s : p.source) {
    EXPECT_GE(s.a, s.b);
    EXPECT_GE(s.f, s.g);
  }
}

TEST(VotePrior, ReflectsSupport) {
  Dataset d = tiny_dataset();  // supports: assertion 0 -> 2, 1 -> 1
  auto prior = vote_prior_from_support(
      {static_cast<double>(d.claims.support(0)),
       static_cast<double>(d.claims.support(1))});
  ASSERT_EQ(prior.size(), 2u);
  EXPECT_GT(prior[0], prior[1]);
  EXPECT_GE(prior[1], 0.05);
  EXPECT_LE(prior[0], 0.95);
  // No support anywhere: every assertion starts undecided.
  EXPECT_EQ(vote_prior_from_support({0.0, 0.0}),
            std::vector<double>({0.5, 0.5}));
}

TEST(EmExt, LikelihoodIsMonotone) {
  Rng rng(11);
  SimKnobs knobs = SimKnobs::paper_defaults(30, 40);
  SimInstance inst = generate_parametric(knobs, rng);
  EmExtEstimator em;
  EmExtResult r = em.run_detailed(inst.dataset, 1);
  for (std::size_t t = 1; t < r.likelihood_trace.size(); ++t) {
    // EM guarantees non-decreasing observed-data likelihood; the small
    // epsilon absorbs the parameter clamp and MAP shrinkage.
    EXPECT_GE(r.likelihood_trace[t], r.likelihood_trace[t - 1] - 0.5)
        << "iteration " << t;
  }
}

TEST(EmExt, RecoversParametersOnLargeInstance) {
  Rng rng(13);
  SimKnobs knobs = SimKnobs::paper_defaults(40, 600);
  knobs.p_dep_true = {0.65, 0.75};  // informative dependent claims
  SimInstance inst = generate_parametric(knobs, rng);
  EmExtConfig config;
  config.init = inst.true_params;  // isolate estimation consistency
  EmExtEstimator em(config);
  EmExtResult r = em.run_detailed(inst.dataset, 1);
  // With 600 assertions the per-source rates are estimated from hundreds
  // of cells; MLE should land near the generating parameters.
  double err_a = 0.0;
  double err_b = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    err_a += std::fabs(r.params.source[i].a - inst.true_params.source[i].a);
    err_b += std::fabs(r.params.source[i].b - inst.true_params.source[i].b);
  }
  EXPECT_LT(err_a / 40, 0.06);
  EXPECT_LT(err_b / 40, 0.06);
  EXPECT_NEAR(r.params.z, inst.true_params.z, 0.08);
}

TEST(EmExt, BeatsPriorBaselineAccuracy) {
  Rng rng(17);
  SimKnobs knobs = SimKnobs::paper_defaults(50, 50);
  SimInstance inst = generate_parametric(knobs, rng);
  EmExtEstimator em;
  EstimateResult est = em.run(inst.dataset, 1);
  std::size_t correct = 0;
  for (std::size_t j = 0; j < 50; ++j) {
    bool predicted = est.belief[j] > 0.5;
    bool actual = inst.dataset.truth[j] == Label::kTrue;
    correct += predicted == actual ? 1 : 0;
  }
  // Majority-class guessing caps at ~d (= 0.55-0.75); EM-Ext must do
  // clearly better on this informative instance.
  EXPECT_GT(static_cast<double>(correct) / 50.0, 0.72);
}

TEST(EmExt, DeterministicForSameSeed) {
  Rng rng(19);
  SimKnobs knobs = SimKnobs::paper_defaults(25, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  EmExtEstimator em;
  auto r1 = em.run(inst.dataset, 123);
  auto r2 = em.run(inst.dataset, 123);
  EXPECT_EQ(r1.belief, r2.belief);
}

TEST(EmExt, ExplicitInitIsUsed) {
  Dataset d = tiny_dataset();
  EmExtConfig config;
  config.init = tiny_params();
  config.max_iters = 0;  // forbid updates: posterior must reflect init
  // max_iters = 0 still runs one E-step loop guard; use 1 iteration and
  // a huge tol so the first M-step is accepted but iteration stops.
  config.max_iters = 1;
  EmExtEstimator em(config);
  EmExtResult r = em.run_detailed(d, 1);
  EXPECT_EQ(r.estimate.iterations, 1u);
}

TEST(EmExt, ConvergedFlagAndIterationCap) {
  Rng rng(23);
  SimKnobs knobs = SimKnobs::paper_defaults(20, 25);
  SimInstance inst = generate_parametric(knobs, rng);
  EmExtConfig config;
  config.max_iters = 2;
  config.tol = 0.0;  // unreachable tolerance
  EmExtEstimator em(config);
  EmExtResult r = em.run_detailed(inst.dataset, 1);
  EXPECT_EQ(r.estimate.iterations, 2u);
  EXPECT_FALSE(r.estimate.converged);
}

TEST(EmExt, ConvergedWhenToleranceMetOnLastAllowedIteration) {
  // Capping max_iters at the iteration count a free run converges in
  // must return the same fit, still flagged converged.
  Rng rng(1);
  SimInstance inst =
      generate_parametric(SimKnobs::paper_defaults(30, 60), rng);
  EmExtResult free_run = EmExtEstimator().run_detailed(inst.dataset, 1);
  ASSERT_TRUE(free_run.estimate.converged);
  EmExtConfig config;
  config.max_iters = free_run.estimate.iterations;
  EmExtResult capped =
      EmExtEstimator(config).run_detailed(inst.dataset, 1);
  EXPECT_EQ(capped.estimate.iterations, free_run.estimate.iterations);
  EXPECT_EQ(capped.estimate.belief, free_run.estimate.belief);
  EXPECT_TRUE(capped.estimate.converged);
}

TEST(EmExt, RankingSortedByBelief) {
  Rng rng(29);
  SimKnobs knobs = SimKnobs::paper_defaults(30, 40);
  SimInstance inst = generate_parametric(knobs, rng);
  EstimateResult est = EmExtEstimator().run(inst.dataset, 1);
  auto order = est.ranking();
  ASSERT_EQ(order.size(), est.belief.size());
  for (std::size_t r = 1; r < order.size(); ++r) {
    EXPECT_GE(est.belief[order[r - 1]], est.belief[order[r]]);
  }
}

TEST(EmExt, LabelsThreshold) {
  EstimateResult est;
  est.belief = {0.2, 0.8, 0.5};
  auto labels = est.labels(0.5);
  EXPECT_FALSE(labels[0]);
  EXPECT_TRUE(labels[1]);
  EXPECT_FALSE(labels[2]);  // strict threshold
}

}  // namespace
}  // namespace ss
