// Metamorphic and model-consistency properties spanning modules:
// relabeling invariances, model degeneracies (EM-Ext vs EM when no cell
// is exposed; EM-Ext vs EM-Social when dependent claims are deleted),
// and monotonicity of evidence.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "bounds/convolution_bound.h"
#include "bounds/exact_bound.h"
#include "core/em_ext.h"
#include "core/posterior.h"
#include "estimators/em_ipsn12.h"
#include "estimators/em_social.h"
#include "eval/metrics.h"
#include "simgen/parametric_gen.h"

namespace ss {
namespace {

// The dataset with every dependent (D_ij = 1) claim removed and the
// exposure kept, so each removed claim stays an exposed silent cell.
Dataset delete_dependent_claims(const Dataset& d) {
  std::vector<Claim> kept;
  for (const Claim& c : d.claims.to_claims()) {
    if (!d.dependency.dependent(c.source, c.assertion)) kept.push_back(c);
  }
  Dataset out;
  out.claims =
      SourceClaimMatrix(d.source_count(), d.assertion_count(), kept);
  out.dependency = d.dependency;
  out.truth = d.truth;
  return out;
}

// Applies a source permutation to a dataset (claims + exposure).
Dataset permute_sources(const Dataset& d,
                        const std::vector<std::uint32_t>& perm) {
  std::vector<Claim> claims;
  for (const Claim& c : d.claims.to_claims()) {
    claims.push_back({perm[c.source], c.assertion, c.time});
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> exposed;
  for (std::size_t i = 0; i < d.source_count(); ++i) {
    for (std::uint32_t j : d.dependency.exposed_assertions(i)) {
      exposed.emplace_back(perm[i], j);
    }
  }
  Dataset out;
  out.name = d.name + "-perm";
  out.claims = SourceClaimMatrix(d.source_count(), d.assertion_count(),
                                 claims);
  out.dependency = DependencyIndicators::from_cells(
      d.source_count(), d.assertion_count(), exposed);
  out.truth = d.truth;
  return out;
}

// Applies an assertion permutation.
Dataset permute_assertions(const Dataset& d,
                           const std::vector<std::uint32_t>& perm) {
  std::vector<Claim> claims;
  for (const Claim& c : d.claims.to_claims()) {
    claims.push_back({c.source, perm[c.assertion], c.time});
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> exposed;
  for (std::size_t i = 0; i < d.source_count(); ++i) {
    for (std::uint32_t j : d.dependency.exposed_assertions(i)) {
      exposed.emplace_back(static_cast<std::uint32_t>(i), perm[j]);
    }
  }
  Dataset out;
  out.name = d.name + "-aperm";
  out.claims = SourceClaimMatrix(d.source_count(), d.assertion_count(),
                                 claims);
  out.dependency = DependencyIndicators::from_cells(
      d.source_count(), d.assertion_count(), exposed);
  out.truth.resize(d.truth.size());
  for (std::size_t j = 0; j < d.truth.size(); ++j) {
    out.truth[perm[j]] = d.truth[j];
  }
  return out;
}

class MetamorphicTest : public ::testing::TestWithParam<int> {};

TEST_P(MetamorphicTest, SourcePermutationInvariance) {
  Rng rng(GetParam() * 13 + 1);
  SimKnobs knobs = SimKnobs::paper_defaults(25, 30);
  SimInstance inst = generate_parametric(knobs, rng);

  std::vector<std::uint32_t> perm(25);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::uint32_t> shuffled = perm;
  Rng prng(GetParam());
  prng.shuffle(shuffled);
  std::vector<std::uint32_t> mapping(25);
  for (std::size_t i = 0; i < 25; ++i) mapping[i] = shuffled[i];

  Dataset permuted = permute_sources(inst.dataset, mapping);
  auto original = EmExtEstimator().run(inst.dataset, 1);
  auto renamed = EmExtEstimator().run(permuted, 1);
  // Source identity is arbitrary; beliefs must be identical.
  for (std::size_t j = 0; j < 30; ++j) {
    ASSERT_NEAR(original.belief[j], renamed.belief[j], 1e-9) << j;
  }
}

TEST_P(MetamorphicTest, AssertionPermutationEquivariance) {
  Rng rng(GetParam() * 17 + 2);
  SimKnobs knobs = SimKnobs::paper_defaults(25, 30);
  SimInstance inst = generate_parametric(knobs, rng);

  std::vector<std::uint32_t> mapping(30);
  std::iota(mapping.begin(), mapping.end(), 0);
  Rng prng(GetParam() + 100);
  prng.shuffle(mapping);

  Dataset permuted = permute_assertions(inst.dataset, mapping);
  auto original = EmExtEstimator().run(inst.dataset, 1);
  auto renamed = EmExtEstimator().run(permuted, 1);
  for (std::size_t j = 0; j < 30; ++j) {
    ASSERT_NEAR(original.belief[j], renamed.belief[mapping[j]], 1e-9)
        << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest, ::testing::Range(1, 6));

TEST(ModelDegeneracy, EmExtEqualsEmWithoutExposure) {
  // With D == 0 everywhere the dependency-aware model *is* the
  // independent-source model: f, g never touch the likelihood. Beliefs
  // from EM-Ext and EM (IPSN'12) must agree to numerical tolerance
  // (identical init, shrinkage and updates).
  Rng rng(31);
  SimKnobs knobs = SimKnobs::paper_defaults(30, 40);
  knobs.tau_lo = knobs.tau_hi = 30;  // all roots: nobody is exposed
  SimInstance inst = generate_parametric(knobs, rng);
  ASSERT_EQ(inst.dataset.dependency.exposed_cell_count(), 0u);

  auto ext = EmExtEstimator().run(inst.dataset, 1);
  auto em = EmIpsn12Estimator().run(inst.dataset, 1);
  // The two implementations converge along slightly different numeric
  // paths; agreement to ~1e-4 in belief demonstrates the degeneracy.
  for (std::size_t j = 0; j < 40; ++j) {
    ASSERT_NEAR(ext.belief[j], em.belief[j], 1e-4) << j;
  }
}

TEST(ModelDegeneracy, TiedDependentRatesIgnoreDependentClaims) {
  // With f == g every dependent-branch factor is common to both
  // hypotheses and cancels from the posterior: flipping a dependent
  // claim to silence (keeping the cell's exposure) must not move any
  // posterior — dependent observations carry zero information, exactly
  // EM-Social's modelling premise.
  Rng rng(37);
  SimKnobs knobs = SimKnobs::paper_defaults(20, 25);
  SimInstance inst = generate_parametric(knobs, rng);
  ModelParams params = inst.true_params;
  for (auto& s : params.source) {
    s.f = 0.41;
    s.g = 0.41;
  }
  auto posterior_full = all_posteriors(inst.dataset, params);

  // Drop the dependent claims; exposure is unchanged, so the affected
  // cells stay in the (cancelling) dependent branch.
  Dataset deleted = delete_dependent_claims(inst.dataset);
  auto posterior_deleted = all_posteriors(deleted, params);
  for (std::size_t j = 0; j < 25; ++j) {
    ASSERT_NEAR(posterior_full[j], posterior_deleted[j], 1e-9) << j;
  }
}

TEST(ModelDegeneracy, DeletedDependentClaimsFitTiedRatesAtClampEps) {
  // The invariant EM-Social's view on the EM-Ext engine relies on
  // (estimators/em_social.h): without the warm-up, on a dataset whose
  // dependent claims are deleted, every f and g numerator is 0, so both
  // rates of every exposed source fit to exactly kEmClampEps, with and
  // without shrinkage. With f == g the previous test's cancellation
  // applies, which is the deletion.
  Rng rng(41);
  SimInstance inst =
      generate_parametric(SimKnobs::paper_defaults(30, 40), rng);
  Dataset deleted = delete_dependent_claims(inst.dataset);
  ASSERT_LT(deleted.claims.claim_count(),
            inst.dataset.claims.claim_count());
  for (double shrinkage : {8.0, 0.0}) {
    EmExtConfig config;
    config.warmup_iters = 0;
    config.shrinkage = shrinkage;
    EmExtResult r = EmExtEstimator(config).run_detailed(deleted, 1);
    std::size_t exposed = 0;
    for (std::size_t i = 0; i < deleted.source_count(); ++i) {
      if (deleted.dependency.exposed_assertions(i).empty()) continue;
      ++exposed;
      const SourceParams& s = r.params.source[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.f),
                std::bit_cast<std::uint64_t>(kEmClampEps))
          << "shrinkage " << shrinkage << " source " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.g),
                std::bit_cast<std::uint64_t>(kEmClampEps))
          << "shrinkage " << shrinkage << " source " << i;
    }
    EXPECT_GT(exposed, 0u);
    if (shrinkage == EmExtConfig{}.shrinkage) {
      // At the defaults this run is EM-Social itself.
      EXPECT_EQ(EmSocialEstimator().run(inst.dataset, 1).belief,
                r.estimate.belief);
    }
  }
}

TEST(EchoChamber, WarmupLearnsDependentSemanticsCorrectly) {
  // A crafted event where the loudest cascade is a rumour: 1 original +
  // many echoes on a false assertion, while true assertions have
  // moderate independent corroboration plus a few echoes. The two-phase
  // fit must rank the corroborated truths above the echo cascade.
  std::size_t n = 40;
  std::size_t m = 12;
  std::vector<Claim> claims;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> exposed;
  // Assertions 0..9: true, each independently claimed by 3 sources,
  // with a wide but mostly *silent* audience (10 exposed, 1 echo) —
  // truths spread by independent witnessing, not repetition.
  for (std::uint32_t j = 0; j < 10; ++j) {
    for (std::uint32_t k = 0; k < 3; ++k) {
      claims.push_back({static_cast<std::uint32_t>((j * 3 + k) % 30), j,
                        0.0});
    }
    for (std::uint32_t e = 0; e < 10; ++e) {
      exposed.emplace_back(30 + ((j + e) % 10), j);
    }
    claims.push_back({30 + (j % 10), j, 1.0});  // the one echo
  }
  // Assertion 10: false viral rumour — 2 originals, and 8 of its 10
  // exposed followers repeat it (echo rate 0.8 vs the truths' 0.1).
  claims.push_back({35, 10, 0.0});
  claims.push_back({36, 10, 0.0});
  for (std::uint32_t e = 0; e < 10; ++e) {
    std::uint32_t follower = e < 5 ? e : 30 + (e - 5);
    exposed.emplace_back(follower, 10);
    if (e < 8) claims.push_back({follower, 10, 1.0});
  }
  // Assertion 11: quiet false assertion, one claim.
  claims.push_back({37, 11, 0.0});

  Dataset d;
  d.claims = SourceClaimMatrix(n, m, claims);
  d.dependency = DependencyIndicators::from_cells(n, m, exposed);
  d.truth.assign(m, Label::kTrue);
  d.truth[10] = Label::kFalse;
  d.truth[11] = Label::kFalse;

  EmExtResult r = EmExtEstimator().run_detailed(d, 1);
  // The rumour must not outrank the corroborated truths.
  auto order = r.estimate.ranking();
  for (std::size_t rank = 0; rank < 8; ++rank) {
    EXPECT_NE(order[rank], 10u) << "rumour ranked #" << rank;
  }
}

TEST(Monotonicity, ExtraIndependentSupportRaisesPosterior) {
  // Adding one more independent claim from a better-than-chance source
  // must not lower an assertion's posterior, for fixed parameters.
  Rng rng(41);
  SimKnobs knobs = SimKnobs::paper_defaults(20, 25);
  SimInstance inst = generate_parametric(knobs, rng);
  ModelParams params = inst.true_params;

  auto base = all_posteriors(inst.dataset, params);
  // Find an unclaimed independent cell of a discriminative source.
  for (std::size_t i = 0; i < 20; ++i) {
    if (params.source[i].a <= params.source[i].b) continue;
    for (std::size_t j = 0; j < 25; ++j) {
      if (inst.dataset.claims.has_claim(i, j)) continue;
      if (inst.dataset.dependency.dependent(i, j)) continue;
      auto claims = inst.dataset.claims.to_claims();
      claims.push_back({static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j), 5.0});
      Dataset more = inst.dataset;
      more.claims = SourceClaimMatrix(20, 25, claims);
      auto boosted = all_posteriors(more, params);
      EXPECT_GE(boosted[j], base[j] - 1e-12);
      return;  // one instance suffices
    }
  }
  FAIL() << "no free independent cell found";
}

TEST(Monotonicity, BoundImprovesWithDiscrimination) {
  // Increasing one source's discrimination (a up, b down) cannot raise
  // the optimal error.
  ColumnModel model;
  model.z = 0.5;
  model.p_claim_true = {0.5, 0.4, 0.6};
  model.p_claim_false = {0.4, 0.3, 0.5};
  double prev = exact_bound(model).error;
  for (double bump = 0.05; bump <= 0.3; bump += 0.05) {
    ColumnModel better = model;
    better.p_claim_true[0] = std::min(0.95, 0.5 + bump);
    better.p_claim_false[0] = std::max(0.05, 0.4 - bump);
    double err = exact_bound(better).error;
    EXPECT_LE(err, prev + 1e-12);
    prev = err;
  }
}

TEST(Consistency, ConvolutionAndExactAgreeOnColumnModels) {
  Rng rng(43);
  SimKnobs knobs = SimKnobs::paper_defaults(18, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  for (std::size_t j = 0; j < 5; ++j) {
    ColumnModel model =
        make_column_model(inst.true_params, inst.dataset.dependency, j);
    EXPECT_NEAR(convolution_bound(model).error, exact_bound(model).error,
                0.005)
        << j;
  }
}

}  // namespace
}  // namespace ss
