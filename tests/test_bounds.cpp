// Tests for the error-bound machinery: the Table-I walkthrough from the
// paper, exact enumeration against a brute-force reference, analytic
// sanity properties, and the Gibbs approximation's agreement with the
// exact bound.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bounds/confidence.h"
#include "bounds/convolution_bound.h"
#include "bounds/dataset_bound.h"
#include "bounds/exact_bound.h"
#include "bounds/gibbs_bound.h"
#include "core/em_ext.h"
#include "simgen/parametric_gen.h"

namespace ss {
namespace {

// Brute force over explicit bit masks — an independent implementation of
// Eq. 3 to check the meet-in-the-middle enumeration against. It works
// in long double: summing 2^n terms one after another in double drifts
// by ~1e-12 at n = 20, more than the tolerance it is checked to.
BoundResult brute_force_bound(const ColumnModel& model) {
  using Real = long double;
  std::size_t n = model.source_count();
  Real fp = 0.0L;
  Real fn = 0.0L;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    Real p1 = 1.0L;
    Real p0 = 1.0L;
    for (std::size_t i = 0; i < n; ++i) {
      bool claimed = (mask >> i) & 1u;
      Real a = model.p_claim_true[i];
      Real b = model.p_claim_false[i];
      p1 *= claimed ? a : 1.0L - a;
      p0 *= claimed ? b : 1.0L - b;
    }
    Real w1 = model.z * p1;
    Real w0 = (1.0L - model.z) * p0;
    if (w1 >= w0) {
      fp += w0;
    } else {
      fn += w1;
    }
  }
  BoundResult result;
  result.false_positive = static_cast<double>(fp);
  result.false_negative = static_cast<double>(fn);
  result.error = static_cast<double>(fp + fn);
  return result;
}

ColumnModel random_model(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ColumnModel model;
  model.z = rng.uniform(0.2, 0.8);
  for (std::size_t i = 0; i < n; ++i) {
    model.p_claim_true.push_back(rng.uniform(0.05, 0.95));
    model.p_claim_false.push_back(rng.uniform(0.05, 0.95));
  }
  return model;
}

// random_model with about 30% of its rates set to exactly 0 or 1.
ColumnModel degenerate_model(std::size_t n, std::uint64_t seed) {
  ColumnModel model = random_model(n, seed);
  Rng rng(seed + 7919);
  for (std::vector<double>* rates :
       {&model.p_claim_true, &model.p_claim_false}) {
    for (double& p : *rates) {
      if (rng.bernoulli(0.3)) p = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
  }
  return model;
}

void expect_matches_brute_force(const ColumnModel& model,
                                const std::string& what) {
  BoundResult fast = exact_bound(model);
  BoundResult ref = brute_force_bound(model);
  EXPECT_NEAR(fast.error, ref.error, 1e-12) << what;
  EXPECT_NEAR(fast.false_positive, ref.false_positive, 1e-12) << what;
  EXPECT_NEAR(fast.false_negative, ref.false_negative, 1e-12) << what;
}

TEST(ExactBound, ReproducesPaperTable1) {
  // The paper's Table-I walkthrough gives the joint claim-combination
  // likelihoods for three sources (rows 000..111) and states
  // Err = 0.26980433 at z = 0.5. The joint does not factor into
  // independent per-source rates, so Eq. 3 is applied to the joint
  // directly via bound_from_joint.
  const std::vector<double> p1_rows = {0.18546216, 0.17606773, 0.00033244,
                                       0.01971855, 0.24427898, 0.19063986,
                                       0.02321803, 0.16028224};
  const std::vector<double> p0_rows = {0.05851677, 0.05300123, 0.12803859,
                                       0.16032756, 0.14231588, 0.08222352,
                                       0.18716734, 0.18840910};
  BoundResult bound = bound_from_joint(p1_rows, p0_rows, 0.5);
  EXPECT_NEAR(bound.error, 0.26980433, 1e-8);
  EXPECT_NEAR(bound.false_positive + bound.false_negative, bound.error,
              1e-14);
}

TEST(ExactBound, JointTableSizeMismatchThrows) {
  EXPECT_THROW(bound_from_joint({0.5, 0.5}, {1.0}, 0.5),
               std::invalid_argument);
}

TEST(ExactBound, JointAgreesWithEnumerationOnProductModel) {
  // When the joint *is* a product model, bound_from_joint must agree
  // with the enumeration.
  ColumnModel model = random_model(3, 123);
  std::vector<double> j1(8);
  std::vector<double> j0(8);
  for (int row = 0; row < 8; ++row) {
    double p1 = 1.0;
    double p0 = 1.0;
    for (int i = 0; i < 3; ++i) {
      bool claimed = (row >> (2 - i)) & 1;
      p1 *= claimed ? model.p_claim_true[i] : 1 - model.p_claim_true[i];
      p0 *= claimed ? model.p_claim_false[i] : 1 - model.p_claim_false[i];
    }
    j1[row] = p1;
    j0[row] = p0;
  }
  EXPECT_NEAR(bound_from_joint(j1, j0, model.z).error,
              exact_bound(model).error, 1e-12);
}

class ExactBoundRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactBoundRandomTest, MatchesBruteForce) {
  // Odd sizes give the two halves different lengths.
  for (std::size_t n : {0u, 1u, 2u, 3u, 5u, 10u, 11u, 16u, 17u, 20u}) {
    expect_matches_brute_force(random_model(n, GetParam() * 1000 + n),
                               "n = " + std::to_string(n));
  }
}

TEST_P(ExactBoundRandomTest, DegenerateRatesAndPriorsMatchBruteForce) {
  // Rates of 0 and 1 in both halves, and the priors z = 0 and z = 1:
  // the claim vectors they zero out must add nothing.
  for (std::size_t n : {7u, 16u}) {
    ColumnModel model = degenerate_model(n, GetParam() * 1000 + n);
    for (double z : {model.z, 0.0, 1.0}) {
      model.z = z;
      expect_matches_brute_force(
          model, "n = " + std::to_string(n) + ", z = " + std::to_string(z));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactBoundRandomTest,
                         ::testing::Range(1, 11));

TEST(ExactBound, ErrorSplitsIntoFpFn) {
  ColumnModel model = random_model(8, 99);
  BoundResult bound = exact_bound(model);
  EXPECT_NEAR(bound.error, bound.false_positive + bound.false_negative,
              1e-14);
  EXPECT_GE(bound.false_positive, 0.0);
  EXPECT_GE(bound.false_negative, 0.0);
}

TEST(ExactBound, NeverExceedsPriorGuess) {
  // The optimal estimator can always ignore the data and answer with the
  // prior majority, erring min(z, 1-z).
  for (int seed = 1; seed <= 20; ++seed) {
    ColumnModel model = random_model(6, seed);
    BoundResult bound = exact_bound(model);
    EXPECT_LE(bound.error,
              std::min(model.z, 1.0 - model.z) + 1e-12);
  }
}

TEST(ExactBound, UninformativeSourcesHitPriorExactly) {
  ColumnModel model;
  model.z = 0.3;
  model.p_claim_true = {0.4, 0.6};
  model.p_claim_false = {0.4, 0.6};  // p1 == p0: claims say nothing
  BoundResult bound = exact_bound(model);
  EXPECT_NEAR(bound.error, 0.3, 1e-12);
}

TEST(ExactBound, PerfectSourceZeroError) {
  ColumnModel model;
  model.z = 0.5;
  model.p_claim_true = {1.0};
  model.p_claim_false = {0.0};
  BoundResult bound = exact_bound(model);
  EXPECT_NEAR(bound.error, 0.0, 1e-12);
}

TEST(ExactBound, AddingInformativeSourceNeverHurts) {
  ColumnModel small = random_model(6, 7);
  ColumnModel big = small;
  big.p_claim_true.push_back(0.8);
  big.p_claim_false.push_back(0.2);
  EXPECT_LE(exact_bound(big).error, exact_bound(small).error + 1e-12);
}

TEST(ExactBound, ZeroSourcesIsPrior) {
  ColumnModel model;
  model.z = 0.4;
  EXPECT_NEAR(exact_bound(model).error, 0.4, 1e-15);
}

TEST(ExactBound, MirroredPairsTieOnlyMovesTheSplit) {
  // Source i and source n-1-i have swapped rates, so at z = 0.5 every
  // claim vector symmetric across the two halves is an exact tie.
  // Rounding picks the side of a tie, so only the error is compared.
  ColumnModel model = random_model(8, 4242);
  model.z = 0.5;
  for (std::size_t i = 0; i < 8; ++i) {
    model.p_claim_true.push_back(model.p_claim_false[7 - i]);
    model.p_claim_false.push_back(model.p_claim_true[7 - i]);
  }
  BoundResult fast = exact_bound(model);
  EXPECT_NEAR(fast.error, brute_force_bound(model).error, 1e-12);
  EXPECT_EQ(fast.false_positive + fast.false_negative, fast.error);
}

TEST(ExactBound, RefusesHugeN) {
  ColumnModel model = random_model(kExactBoundMaxSources + 1, 1);
  EXPECT_THROW(exact_bound(model), std::invalid_argument);
}

TEST(ExactBound, FortySourcesAgreeWithGibbs) {
  // The largest column exact_bound accepts: the most-exposed column of a
  // paper-default instance, against the Gibbs approximation.
  Rng rng(40);
  SimInstance inst = generate_parametric(SimKnobs::paper_defaults(40, 30),
                                         rng);
  std::size_t column = 0;
  for (std::size_t j = 1; j < 30; ++j) {
    if (inst.dataset.dependency.exposed_sources(j).size() >
        inst.dataset.dependency.exposed_sources(column).size()) {
      column = j;
    }
  }
  ColumnModel model = make_column_model(inst.true_params,
                                        inst.dataset.dependency, column);
  BoundResult exact = exact_bound(model);
  GibbsBoundConfig config;
  config.min_sweeps = 2000;
  config.max_sweeps = 8000;
  GibbsBoundResult approx = gibbs_bound(model, 40, config);
  EXPECT_NEAR(approx.bound.error, exact.error, 0.02);
  EXPECT_EQ(exact.false_positive + exact.false_negative, exact.error);
}

TEST(ExactBound, InvalidModelsThrow) {
  // A short p_claim_false would be read past its end, and NaN fails
  // every < and > test, so valid() has to be written to reject it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ColumnModel> bad(4, random_model(6, 77));
  bad[0].p_claim_false.pop_back();
  bad[1].p_claim_true[3] = nan;
  bad[2].p_claim_false[5] = 1.5;
  bad[3].z = nan;
  for (std::size_t k = 0; k < bad.size(); ++k) {
    EXPECT_FALSE(bad[k].valid()) << k;
    EXPECT_THROW(exact_bound(bad[k]), std::invalid_argument) << k;
    EXPECT_THROW(convolution_bound(bad[k]), std::invalid_argument) << k;
  }
}

class GibbsBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(GibbsBoundTest, ApproachesExactBound) {
  ColumnModel model = random_model(12, GetParam() * 31 + 3);
  BoundResult exact = exact_bound(model);
  GibbsBoundConfig config;
  config.min_sweeps = 2000;
  config.max_sweeps = 8000;
  GibbsBoundResult approx = gibbs_bound(model, GetParam(), config);
  // The paper reports gaps of ~0.01; allow modest Monte-Carlo noise.
  EXPECT_NEAR(approx.bound.error, exact.error, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GibbsBoundTest, ::testing::Range(1, 7));

TEST(GibbsBound, FpFnDecompositionConsistent) {
  ColumnModel model = random_model(10, 55);
  GibbsBoundResult r = gibbs_bound(model, 1);
  EXPECT_NEAR(r.bound.error,
              r.bound.false_positive + r.bound.false_negative, 1e-12);
  EXPECT_GT(r.sweeps, 0u);
}

TEST(GibbsBound, Algorithm1VariantRuns) {
  ColumnModel model = random_model(10, 56);
  GibbsBoundConfig config;
  config.kind = GibbsEstimatorKind::kAlgorithm1;
  GibbsBoundResult r = gibbs_bound(model, 2, config);
  EXPECT_GE(r.bound.error, 0.0);
  EXPECT_LE(r.bound.error, 1.0);
}

TEST(GibbsBound, ReportsChainDiagnostics) {
  ColumnModel model = random_model(10, 58);
  GibbsBoundConfig config;
  config.min_sweeps = 1000;
  config.max_sweeps = 1000;
  GibbsBoundResult r = gibbs_bound(model, 3, config);
  EXPECT_GT(r.effective_sample_size, 0.0);
  EXPECT_LE(r.effective_sample_size,
            static_cast<double>(r.sweeps) + 1e-9);
  EXPECT_GE(r.autocorr_lag1, -1.0);
  EXPECT_LE(r.autocorr_lag1, 1.0);
  // This chain mixes well: a healthy fraction of i.i.d. efficiency.
  EXPECT_GT(r.effective_sample_size, static_cast<double>(r.sweeps) / 50);
}

TEST(GibbsBound, DeterministicForSeed) {
  ColumnModel model = random_model(10, 57);
  GibbsBoundConfig config;
  config.min_sweeps = 200;
  config.max_sweeps = 400;
  auto a = gibbs_bound(model, 9, config);
  auto b = gibbs_bound(model, 9, config);
  EXPECT_DOUBLE_EQ(a.bound.error, b.bound.error);
  EXPECT_EQ(a.sweeps, b.sweeps);
}

TEST(ColumnModelBuilder, SelectsRatesByExposure) {
  ModelParams params;
  params.source = {{0.7, 0.2, 0.6, 0.3}, {0.8, 0.1, 0.5, 0.4}};
  params.z = 0.55;
  auto dep = DependencyIndicators::from_cells(2, 2, {{1, 0}});
  ColumnModel exposed_col = make_column_model(params, dep, 0);
  EXPECT_DOUBLE_EQ(exposed_col.p_claim_true[0], 0.7);   // a_0
  EXPECT_DOUBLE_EQ(exposed_col.p_claim_true[1], 0.5);   // f_1 (exposed)
  EXPECT_DOUBLE_EQ(exposed_col.p_claim_false[1], 0.4);  // g_1
  ColumnModel clean_col = make_column_model(params, dep, 1);
  EXPECT_DOUBLE_EQ(clean_col.p_claim_true[1], 0.8);  // a_1
  EXPECT_DOUBLE_EQ(clean_col.z, 0.55);
}

TEST(ColumnModelBuilder, MaskVariantAndKey) {
  ModelParams params;
  params.source = {{0.7, 0.2, 0.6, 0.3}, {0.8, 0.1, 0.5, 0.4}};
  params.z = 0.5;
  ColumnModel by_mask =
      make_column_model(params, std::vector<bool>{false, true});
  auto dep = DependencyIndicators::from_cells(2, 3, {{1, 0}, {1, 2}});
  ColumnModel by_dep = make_column_model(params, dep, 0);
  EXPECT_EQ(by_mask.p_claim_true, by_dep.p_claim_true);
  // Columns 0 and 2 share the exposure pattern {source 1}; column 1 is
  // all-clear.
  EXPECT_EQ(exposure_pattern_key(dep, 0), exposure_pattern_key(dep, 2));
  EXPECT_NE(exposure_pattern_key(dep, 0), exposure_pattern_key(dep, 1));
}

TEST(DatasetBound, ExactMemoizationMatchesDirect) {
  Rng rng(31);
  SimKnobs knobs = SimKnobs::paper_defaults(12, 20);
  SimInstance inst = generate_parametric(knobs, rng);
  DatasetBoundResult ds = exact_dataset_bound(inst.dataset,
                                              inst.true_params);
  double direct = 0.0;
  for (std::size_t j = 0; j < 20; ++j) {
    direct += exact_bound(make_column_model(inst.true_params,
                                            inst.dataset.dependency, j))
                  .error;
  }
  EXPECT_NEAR(ds.bound.error, direct / 20.0, 1e-12);
  EXPECT_LE(ds.distinct_patterns, 20u);
  EXPECT_EQ(ds.columns, 20u);
}

class ConvolutionBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvolutionBoundTest, MatchesExactEnumeration) {
  for (std::size_t n : {1u, 3u, 8u, 15u, 20u}) {
    ColumnModel model = random_model(n, GetParam() * 77 + n);
    BoundResult exact = exact_bound(model);
    BoundResult conv = convolution_bound(model);
    EXPECT_NEAR(conv.error, exact.error, 0.01)
        << "n = " << n << " seed " << GetParam();
    EXPECT_NEAR(conv.false_positive + conv.false_negative, conv.error,
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvolutionBoundTest,
                         ::testing::Range(1, 9));

TEST(ConvolutionBound, ZeroSourcesIsPrior) {
  ColumnModel model;
  model.z = 0.35;
  EXPECT_NEAR(convolution_bound(model).error, 0.35, 1e-12);
}

TEST(ConvolutionBound, UninformativeHitsPrior) {
  ColumnModel model;
  model.z = 0.3;
  model.p_claim_true = {0.5, 0.2};
  model.p_claim_false = {0.5, 0.2};
  EXPECT_NEAR(convolution_bound(model).error, 0.3, 1e-9);
}

TEST(ConvolutionBound, FinerGridIsCloser) {
  ColumnModel model = random_model(12, 1234);
  BoundResult exact = exact_bound(model);
  ConvolutionBoundConfig coarse;
  coarse.grid_cells = 256;
  ConvolutionBoundConfig fine;
  fine.grid_cells = 16384;
  double coarse_gap =
      std::fabs(convolution_bound(model, coarse).error - exact.error);
  double fine_gap =
      std::fabs(convolution_bound(model, fine).error - exact.error);
  EXPECT_LE(fine_gap, coarse_gap + 1e-6);
}

TEST(ConvolutionBound, ScalesToLargeN) {
  // Far beyond exact enumeration's reach; just verify sane output.
  ColumnModel model = random_model(200, 9);
  BoundResult bound = convolution_bound(model);
  EXPECT_GE(bound.error, 0.0);
  EXPECT_LE(bound.error, std::min(model.z, 1.0 - model.z) + 0.02);
}

TEST(Confidence, ShrinksWithMoreData) {
  // Same theta, two dataset sizes: the asymptotic interval on a_i must
  // narrow roughly as 1/sqrt(m).
  auto width_at = [](std::size_t m) {
    Rng rng(61);
    SimKnobs knobs = SimKnobs::paper_defaults(20, m);
    SimInstance inst = generate_parametric(knobs, rng);
    EmExtEstimator em;
    EmExtResult r = em.run_detailed(inst.dataset, 1);
    auto conf = estimate_confidence(inst.dataset, r.params,
                                    r.estimate.belief);
    double mean_width = 0.0;
    for (const auto& c : conf) mean_width += c.a.half_width();
    return mean_width / static_cast<double>(conf.size());
  };
  double small = width_at(40);
  double large = width_at(400);
  EXPECT_LT(large, small);
  EXPECT_GT(small, 0.0);
}

TEST(Confidence, CoversTrueParameters) {
  // With oracle labels (posterior = ground truth) the 95% interval on
  // a_i should cover the generating value for the vast majority of
  // sources.
  Rng rng(67);
  SimKnobs knobs = SimKnobs::paper_defaults(30, 300);
  SimInstance inst = generate_parametric(knobs, rng);
  std::vector<double> oracle(inst.dataset.assertion_count());
  for (std::size_t j = 0; j < oracle.size(); ++j) {
    oracle[j] = inst.dataset.truth[j] == Label::kTrue ? 1.0 : 0.0;
  }
  // MLE under oracle labels, no shrinkage (intervals assume the
  // unpenalized estimator).
  EmExtConfig config;
  config.shrinkage = 0.0;
  config.init = inst.true_params;
  config.max_iters = 50;
  EmExtEstimator em(config);
  EmExtResult r = em.run_detailed(inst.dataset, 1);
  auto conf = estimate_confidence(inst.dataset, r.params, oracle);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    double truth = inst.true_params.source[i].a;
    if (truth >= conf[i].a.lower() && truth <= conf[i].a.upper()) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 24u);  // ~95% nominal, allow slack
}

TEST(Confidence, BoundsClampedToUnitInterval) {
  RateConfidence rc;
  rc.estimate = 0.02;
  rc.stderr_asymptotic = 0.05;
  EXPECT_DOUBLE_EQ(rc.lower(), 0.0);
  EXPECT_GT(rc.upper(), rc.estimate);
  rc.estimate = 0.99;
  EXPECT_DOUBLE_EQ(rc.upper(), 1.0);
}

TEST(Confidence, ShapeValidation) {
  Rng rng(71);
  SimKnobs knobs = SimKnobs::paper_defaults(10, 20);
  SimInstance inst = generate_parametric(knobs, rng);
  std::vector<double> wrong_posterior(5, 0.5);
  EXPECT_THROW(estimate_confidence(inst.dataset, inst.true_params,
                                   wrong_posterior),
               std::invalid_argument);
  ModelParams wrong_params;
  EXPECT_THROW(
      estimate_confidence(inst.dataset, wrong_params,
                          std::vector<double>(20, 0.5)),
      std::invalid_argument);
}

TEST(DatasetBound, GibbsTracksExact) {
  Rng rng(37);
  SimKnobs knobs = SimKnobs::paper_defaults(15, 25);
  SimInstance inst = generate_parametric(knobs, rng);
  auto exact = exact_dataset_bound(inst.dataset, inst.true_params);
  GibbsBoundConfig config;
  config.min_sweeps = 1500;
  config.max_sweeps = 5000;
  auto approx =
      gibbs_dataset_bound(inst.dataset, inst.true_params, 5, config);
  EXPECT_NEAR(approx.bound.error, exact.bound.error, 0.02);
  EXPECT_NEAR(approx.bound.optimal_accuracy(),
              1.0 - approx.bound.error, 1e-12);
}

}  // namespace
}  // namespace ss
