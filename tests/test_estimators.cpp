// Tests for the baseline fact-finders: Voting, Sums, Average.Log,
// Truth-Finder, EM (IPSN'12), EM-Social (IPSN'14), and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/em_ext.h"
#include "estimators/average_log.h"
#include "estimators/em_ipsn12.h"
#include "estimators/em_social.h"
#include "estimators/registry.h"
#include "estimators/sums.h"
#include "estimators/truth_finder.h"
#include "estimators/voting.h"
#include "eval/metrics.h"
#include "simgen/parametric_gen.h"

namespace ss {
namespace {

Dataset support_dataset() {
  // Assertion supports: 0 -> 3 claimants, 1 -> 1, 2 -> 0.
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {1, 0, 0.0}, {2, 0, 0.0}, {3, 1, 0.0},
  };
  Dataset d;
  d.claims = SourceClaimMatrix(4, 3, claims);
  d.dependency = DependencyIndicators::from_cells(4, 3, {});
  d.truth = {Label::kTrue, Label::kFalse, Label::kFalse};
  return d;
}

TEST(Voting, RanksBySupport) {
  Dataset d = support_dataset();
  EstimateResult r = VotingEstimator().run(d, 0);
  EXPECT_GT(r.belief[0], r.belief[1]);
  EXPECT_GT(r.belief[1], r.belief[2]);
  EXPECT_DOUBLE_EQ(r.belief[0], 1.0);  // max-normalized
  EXPECT_DOUBLE_EQ(r.belief[2], 0.0);
  auto order = r.ranking();
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(Voting, CountsDependentClaimsToo) {
  // Voting is dependency-blind: a retweeted rumour outranks a
  // less-supported truth.
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {1, 0, 1.0}, {2, 0, 1.0},  // rumour + 2 echoes
      {3, 1, 0.0},                            // lone independent truth
  };
  Dataset d;
  d.claims = SourceClaimMatrix(4, 2, claims);
  d.dependency =
      DependencyIndicators::from_cells(4, 2, {{1, 0}, {2, 0}});
  EstimateResult r = VotingEstimator().run(d, 0);
  EXPECT_GT(r.belief[0], r.belief[1]);
}

TEST(Sums, ConvergesToHubsAuthorities) {
  Dataset d = support_dataset();
  EstimateResult r = SumsEstimator().run(d, 0);
  EXPECT_GT(r.belief[0], r.belief[1]);
  EXPECT_DOUBLE_EQ(r.belief[2], 0.0);
  EXPECT_LE(*std::max_element(r.belief.begin(), r.belief.end()), 1.0);
}

TEST(Sums, MutualReinforcement) {
  // Source 0 claims both a popular and an unpopular assertion; the
  // unpopular one inherits credibility through source 0's hub score.
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {1, 0, 0.0}, {2, 0, 0.0},
      {0, 1, 0.0},              // backed by the strong source 0
      {3, 2, 0.0},              // backed by a weak singleton source
  };
  Dataset d;
  d.claims = SourceClaimMatrix(4, 3, claims);
  d.dependency = DependencyIndicators::from_cells(4, 3, {});
  EstimateResult r = SumsEstimator().run(d, 0);
  EXPECT_GT(r.belief[1], r.belief[2]);
}

TEST(AverageLog, ZeroTrustForSingleClaimSources) {
  // Every source has exactly one claim: log(1) = 0 kills all trust and
  // the estimator must fall back instead of returning all-zero scores.
  std::vector<Claim> claims = {{0, 0, 0.0}, {1, 1, 0.0}, {2, 0, 0.0}};
  Dataset d;
  d.claims = SourceClaimMatrix(3, 2, claims);
  d.dependency = DependencyIndicators::from_cells(3, 2, {});
  EstimateResult r = AverageLogEstimator().run(d, 0);
  EXPECT_GT(r.belief[0], 0.0);
  EXPECT_GT(r.belief[0], r.belief[1]);
}

TEST(AverageLog, ProlificSourcesCarryWeight) {
  // Source 0 makes 4 claims, sources 1-2 make one each. An assertion
  // backed only by source 0 should outrank one backed only by source 1.
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {0, 1, 0.0}, {0, 2, 0.0}, {0, 3, 0.0},
      {1, 4, 0.0}, {2, 0, 0.0},
  };
  Dataset d;
  d.claims = SourceClaimMatrix(3, 5, claims);
  d.dependency = DependencyIndicators::from_cells(3, 5, {});
  EstimateResult r = AverageLogEstimator().run(d, 0);
  EXPECT_GT(r.belief[1], r.belief[4]);
}

TEST(TruthFinder, MoreSupportHigherConfidence) {
  Dataset d = support_dataset();
  EstimateResult r = TruthFinderEstimator().run(d, 0);
  EXPECT_GT(r.belief[0], r.belief[1]);
  EXPECT_GT(r.belief[1], r.belief[2]);
  for (double b : r.belief) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

TEST(TruthFinder, ConvergesQuickly) {
  Dataset d = support_dataset();
  TruthFinderConfig config;
  config.max_iters = 50;
  EstimateResult r = TruthFinderEstimator(config).run(d, 0);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 50u);
}

TEST(TruthFinder, HandlesUnanimousTrustWithoutInfs) {
  // All sources share every claim -> trust saturates; tau must stay
  // finite through the max_trust clamp.
  std::vector<Claim> claims = {{0, 0, 0.0}, {1, 0, 0.0}, {2, 0, 0.0}};
  Dataset d;
  d.claims = SourceClaimMatrix(3, 1, claims);
  d.dependency = DependencyIndicators::from_cells(3, 1, {});
  EstimateResult r = TruthFinderEstimator().run(d, 0);
  EXPECT_TRUE(std::isfinite(r.belief[0]));
  EXPECT_GT(r.belief[0], 0.5);
}

TEST(EmIpsn12, LearnsSourceQualityOnSyntheticData) {
  Rng rng(101);
  SimKnobs knobs = SimKnobs::paper_defaults(40, 60);
  knobs.tau_lo = knobs.tau_hi = 40;  // fully independent sources
  SimInstance inst = generate_parametric(knobs, rng);
  EmIpsn12Estimator em;
  EmIpsn12Result r = em.run_detailed(inst.dataset, 1);
  ClassificationMetrics m = classify(inst.dataset, r.estimate);
  // With no dependencies the independent-source model is well-specified
  // and should perform strongly.
  EXPECT_GT(m.accuracy(), 0.75);
  // Learned reliabilities should correlate with the generating ones:
  // a_i near p_on * p_indepT in [0.29, 0.53].
  double mean_a = 0.0;
  for (double a : r.a) mean_a += a;
  mean_a /= static_cast<double>(r.a.size());
  EXPECT_GT(mean_a, 0.2);
  EXPECT_LT(mean_a, 0.6);
}

TEST(EmIpsn12, ProbabilisticOutput) {
  Rng rng(102);
  SimKnobs knobs = SimKnobs::paper_defaults(20, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  EstimateResult r = EmIpsn12Estimator().run(inst.dataset, 1);
  EXPECT_TRUE(r.probabilistic);
  for (double b : r.belief) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

TEST(EmSocial, IgnoresDependentClaims) {
  // Two datasets with identical exposure but extra *dependent* claims on
  // a false assertion in the second. EM-Social deletes every exposed
  // cell (claimed or silent), so its output must be unchanged by the
  // echoes.
  std::vector<Claim> base_claims = {
      {0, 0, 0.0}, {1, 0, 0.0},  // assertion 0: two originals
      {0, 1, 0.0},               // assertion 1: one original
      {2, 2, 0.0}, {3, 2, 0.0},  // assertion 2
  };
  Dataset base;
  base.claims = SourceClaimMatrix(6, 3, base_claims);
  base.dependency =
      DependencyIndicators::from_cells(6, 3, {{4, 1}, {5, 1}});

  auto echo_claims = base_claims;
  echo_claims.push_back({4, 1, 1.0});
  echo_claims.push_back({5, 1, 1.0});
  Dataset echoed;
  echoed.claims = SourceClaimMatrix(6, 3, echo_claims);
  echoed.dependency =
      DependencyIndicators::from_cells(6, 3, {{4, 1}, {5, 1}});

  EmSocialEstimator em;
  auto r_base = em.run(base, 1);
  auto r_echo = em.run(echoed, 1);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(r_base.belief[j], r_echo.belief[j], 1e-9) << j;
  }
}

TEST(EmSocial, EmExtUsesDependentClaimsWhereSocialCannot) {
  // Make dependent claims *highly* informative; EM-Ext should separate
  // true/false better than EM-Social on average.
  Rng rng(103);
  SimKnobs knobs = SimKnobs::paper_defaults(50, 50);
  knobs.p_dep_true = {0.75, 0.85};
  double ext_acc = 0.0;
  double social_acc = 0.0;
  const int kReps = 8;
  for (int rep = 0; rep < kReps; ++rep) {
    SimInstance inst = generate_parametric(knobs, rng);
    ext_acc +=
        classify(inst.dataset, EmExtEstimator().run(inst.dataset, 1))
            .accuracy();
    social_acc +=
        classify(inst.dataset, EmSocialEstimator().run(inst.dataset, 1))
            .accuracy();
  }
  EXPECT_GT(ext_acc / kReps, social_acc / kReps);
}

TEST(Registry, ProvidesAllSevenAlgorithms) {
  auto names = estimator_names();
  ASSERT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    auto est = make_estimator(name);
    ASSERT_NE(est, nullptr);
    EXPECT_EQ(est->name(), name);
  }
  EXPECT_EQ(make_all_estimators().size(), 7u);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_estimator("PageRank"), std::invalid_argument);
}

TEST(Registry, AllEstimatorsHandleEmptyDataset) {
  Dataset empty;
  empty.claims = SourceClaimMatrix(4, 0, {});
  empty.dependency = DependencyIndicators::from_cells(4, 0, {});
  for (const auto& est : make_all_estimators()) {
    EstimateResult r = est->run(empty, 1);
    EXPECT_TRUE(r.belief.empty()) << est->name();
  }
}

TEST(Registry, AllEstimatorsHandleClaimlessAssertions) {
  // Assertions exist but nobody claimed anything.
  Dataset silent;
  silent.claims = SourceClaimMatrix(4, 5, {});
  silent.dependency = DependencyIndicators::from_cells(4, 5, {});
  for (const auto& est : make_all_estimators()) {
    EstimateResult r = est->run(silent, 1);
    ASSERT_EQ(r.belief.size(), 5u) << est->name();
    for (double b : r.belief) {
      EXPECT_TRUE(std::isfinite(b)) << est->name();
    }
  }
}

TEST(Registry, AllEstimatorsRunOnCommonInstance) {
  Rng rng(104);
  SimKnobs knobs = SimKnobs::paper_defaults(25, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  for (const auto& est : make_all_estimators()) {
    EstimateResult r = est->run(inst.dataset, 7);
    ASSERT_EQ(r.belief.size(), 30u) << est->name();
    for (double b : r.belief) {
      EXPECT_TRUE(std::isfinite(b)) << est->name();
    }
  }
}

}  // namespace
}  // namespace ss
