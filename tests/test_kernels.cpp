// Kernel-layer correctness (ctest label `kernels`).
//
// Two complementary guarantees:
//  1. Property tests: every optimized kernel in math/kernels.h equals
//     its *_reference / naive per-element counterpart BITWISE, across
//     randomized inputs and the degenerate clamped values the
//     estimators actually feed them (clamp_prob(0), clamp_prob(1),
//     -inf log-likelihoods).
//  2. Golden tests: every migrated estimator reproduces the hash of its
//     pre-kernel output (recorded at commit cbc8d85, see
//     kernel_golden.h) — at one worker and at several.
//
// Both guarantees are contracts of the SCALAR backend (it is the
// executable reference; docs/MODEL.md §12), so this whole binary pins
// dispatch to kScalar. The gathers and the Gibbs sweep-weight records
// have no vector arm, so their cases run under every backend the host
// supports and must be bitwise on each. The AVX2 backend's ULP contract
// is covered by tests/test_simd.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "backend_guard.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "kernel_golden.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "math/simd/dispatch.h"
#include "util/rng.h"

namespace {

using namespace ss;

class ScalarBackendEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
  }
};

const ::testing::Environment* const kPinScalar =
    ::testing::AddGlobalTestEnvironment(new ScalarBackendEnvironment);

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(bits_of(a), bits_of(b)) << what << ": " << a << " vs " << b;
}

// Random incidence list over [0, n) with random per-source terms.
struct GatherFixture {
  std::vector<std::uint32_t> idx;
  std::vector<char> flags;
  std::vector<kernels::LogPair> pairs_a;
  std::vector<kernels::LogPair> pairs_b;
  std::vector<double> at, af, bt, bf;  // split-array mirrors
  std::vector<double> values;

  GatherFixture(Rng& rng, std::size_t n, std::size_t len) {
    pairs_a.resize(n);
    pairs_b.resize(n);
    at.resize(n);
    af.resize(n);
    bt.resize(n);
    bf.resize(n);
    values.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pairs_a[i] = {rng.uniform(-30.0, 5.0), rng.uniform(-30.0, 5.0)};
      pairs_b[i] = {rng.uniform(-30.0, 5.0), rng.uniform(-30.0, 5.0)};
      at[i] = pairs_a[i].t;
      af[i] = pairs_a[i].f;
      bt[i] = pairs_b[i].t;
      bf[i] = pairs_b[i].f;
      values[i] = rng.uniform(0.0, 1.0);
    }
    for (std::size_t k = 0; k < len; ++k) {
      idx.push_back(
          static_cast<std::uint32_t>(rng.uniform(0.0, 1.0) * (n - 1)));
      flags.push_back(rng.bernoulli(0.4) ? 1 : 0);
    }
  }
};

TEST(KernelGathers, GatherAddMatchesReferenceBitwise) {
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    SCOPED_TRACE(simd::backend_name(backend));
    Rng rng(11);
    for (int round = 0; round < 50; ++round) {
      GatherFixture fx(rng, 64, 1 + round);
      kernels::LogPair seed{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
      kernels::LogPair opt =
          kernels::gather_add(seed, fx.idx, fx.pairs_a.data());
      double lt = seed.t;
      double lf = seed.f;
      kernels::gather_add_reference(lt, lf, fx.idx, fx.at.data(),
                                    fx.af.data());
      expect_same_bits(opt.t, lt, "gather_add.t");
      expect_same_bits(opt.f, lf, "gather_add.f");
    }
  }
}

TEST(KernelGathers, GatherAddSelectMatchesBranchyReferenceBitwise) {
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    SCOPED_TRACE(simd::backend_name(backend));
    Rng rng(13);
    for (int round = 0; round < 50; ++round) {
      GatherFixture fx(rng, 64, 1 + round);
      kernels::LogPair seed{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
      kernels::LogPair opt = kernels::gather_add_select(
          seed, fx.idx, fx.flags, fx.pairs_a.data(), fx.pairs_b.data());
      double lt = seed.t;
      double lf = seed.f;
      kernels::gather_add_select_reference(lt, lf, fx.idx, fx.flags,
                                           fx.at.data(), fx.af.data(),
                                           fx.bt.data(), fx.bf.data());
      expect_same_bits(opt.t, lt, "gather_add_select.t");
      expect_same_bits(opt.f, lf, "gather_add_select.f");
    }
  }
}

TEST(KernelGathers, GatherSumAndMassMatchNaiveBitwise) {
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    SCOPED_TRACE(simd::backend_name(backend));
    Rng rng(14);
    for (int round = 0; round < 50; ++round) {
      GatherFixture fx(rng, 32, 1 + round);
      double opt = kernels::gather_sum(fx.idx, fx.values.data());
      double naive = 0.0;
      for (std::uint32_t j : fx.idx) naive += fx.values[j];
      expect_same_bits(opt, naive, "gather_sum");

      kernels::MassPair mass =
          kernels::gather_mass(fx.idx, fx.values.data());
      double z = 0.0, y = 0.0;
      for (std::uint32_t j : fx.idx) {
        z += fx.values[j];
        y += 1.0 - fx.values[j];
      }
      expect_same_bits(mass.z, z, "gather_mass.z");
      expect_same_bits(mass.y, y, "gather_mass.y");
    }
  }
}

TEST(KernelEpilogues, FinalizeColumnMatchesReferenceBitwise) {
  Rng rng(15);
  for (int round = 0; round < 4000; ++round) {
    double la = rng.uniform(-700.0, 40.0);
    double lb = rng.uniform(-700.0, 40.0);
    if (round % 7 == 0) lb = la;              // exact tie
    if (round % 11 == 0) lb = la + 1e-14;     // near-tie
    kernels::ColumnStats opt = kernels::finalize_column(la, lb);
    kernels::ColumnStats ref = kernels::finalize_column_reference(la, lb);
    expect_same_bits(opt.posterior, ref.posterior, "posterior");
    expect_same_bits(opt.log_odds, ref.log_odds, "log_odds");
    expect_same_bits(opt.log_likelihood, ref.log_likelihood, "column_ll");

    kernels::PairStats popt = kernels::finalize_pair(la, lb);
    kernels::PairStats pref = kernels::finalize_pair_reference(la, lb);
    expect_same_bits(popt.posterior, pref.posterior, "pair.posterior");
    expect_same_bits(popt.log_odds, pref.log_odds, "pair.log_odds");
  }
}

TEST(KernelEpilogues, FinalizeHandlesInfinitiesLikeReference) {
  const double cases[][2] = {
      {kNegInf, 0.0}, {0.0, kNegInf}, {kNegInf, kNegInf},
      {kNegInf, -1e308}, {-1e308, kNegInf},
  };
  for (const auto& c : cases) {
    kernels::ColumnStats opt = kernels::finalize_column(c[0], c[1]);
    kernels::ColumnStats ref =
        kernels::finalize_column_reference(c[0], c[1]);
    expect_same_bits(opt.posterior, ref.posterior, "inf posterior");
    expect_same_bits(opt.log_likelihood, ref.log_likelihood, "inf ll");
    kernels::PairStats popt = kernels::finalize_pair(c[0], c[1]);
    kernels::PairStats pref = kernels::finalize_pair_reference(c[0], c[1]);
    expect_same_bits(popt.posterior, pref.posterior, "inf pair");
  }
}

// ExtLogTable::build must reproduce the pre-kernel constructor's per-
// source sequence exactly, including on fully degenerate clamped rates.
TEST(KernelTables, ExtLogTableMatchesNaiveHoistBitwise) {
  Rng rng(16);
  for (int round = 0; round < 20; ++round) {
    std::size_t n = 1 + static_cast<std::size_t>(round) * 3;
    std::vector<std::array<double, 4>> rates(n);
    for (auto& r : rates) {
      for (double& p : r) p = clamp_prob(rng.uniform(0.0, 1.0));
    }
    // Degenerate entries the estimators actually produce.
    rates[0] = {clamp_prob(0.0), clamp_prob(1.0), clamp_prob(0.0),
                clamp_prob(1.0)};
    double z = clamp_prob(round % 2 == 0 ? 0.37 : 0.0);

    kernels::ExtLogTable table;
    table.build(n, z, [&](std::size_t i) { return rates[i]; });

    expect_same_bits(table.log_z(), std::log(z), "log_z");
    expect_same_bits(table.log_1mz(), std::log1p(-z), "log_1mz");
    double base_t = 0.0;
    double base_f = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double log_na = std::log1p(-rates[i][0]);
      double log_nb = std::log1p(-rates[i][1]);
      double log_nf = std::log1p(-rates[i][2]);
      double log_ng = std::log1p(-rates[i][3]);
      base_t += log_na;
      base_f += log_nb;
      expect_same_bits(table.exposed_silent()[i].t, log_nf - log_na,
                       "exposed_silent.t");
      expect_same_bits(table.exposed_silent()[i].f, log_ng - log_nb,
                       "exposed_silent.f");
      expect_same_bits(table.claim_indep()[i].t,
                       std::log(rates[i][0]) - log_na, "claim_indep.t");
      expect_same_bits(table.claim_indep()[i].f,
                       std::log(rates[i][1]) - log_nb, "claim_indep.f");
      expect_same_bits(table.claim_dep()[i].t,
                       std::log(rates[i][2]) - log_nf, "claim_dep.t");
      expect_same_bits(table.claim_dep()[i].f,
                       std::log(rates[i][3]) - log_ng, "claim_dep.f");
    }
    expect_same_bits(table.base().t, base_t, "base.t");
    expect_same_bits(table.base().f, base_f, "base.f");

    // In-place rebuild with new values must fully overwrite the old.
    kernels::ExtLogTable rebuilt = table;
    rebuilt.build(n, clamp_prob(0.61),
                  [&](std::size_t) {
                    return std::array<double, 4>{0.2, 0.3, 0.4, 0.5};
                  });
    rebuilt.build(n, z, [&](std::size_t i) { return rates[i]; });
    expect_same_bits(rebuilt.base().t, table.base().t, "rebuild base.t");
    expect_same_bits(rebuilt.claim_dep()[n - 1].f,
                     table.claim_dep()[n - 1].f, "rebuild claim_dep");
  }
}

// build_from_rows over *raw* rate rows must equal build over
// clamp_prob-wrapped rates bitwise: the in-flight clamp is the same
// std::clamp branch chain (NaN propagating), and the row math is
// unchanged. Runs under whatever backend is active, so both the
// scalar and the avx2 in-register clamp paths are covered across the
// test matrix.
TEST(KernelTables, ExtLogTableBuildFromRowsMatchesClampedBuild) {
  Rng rng(18);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                        std::size_t{201}}) {
    std::vector<double> raw(4 * n);
    for (double& p : raw) p = rng.uniform(-0.2, 1.2);  // out-of-range too
    if (n >= 3) {
      raw[4 * 2 + 1] = kNan;  // NaN rate -> degenerate fallback row
      raw[4 * 2 + 3] = 2.0;
    }
    double z = clamp_prob(0.41);

    kernels::ExtLogTable via_lambda;
    via_lambda.build(n, z, [&](std::size_t i) {
      return std::array<double, 4>{
          clamp_prob(raw[4 * i]), clamp_prob(raw[4 * i + 1]),
          clamp_prob(raw[4 * i + 2]), clamp_prob(raw[4 * i + 3])};
    });
    kernels::ExtLogTable via_rows;
    via_rows.build_from_rows(n, z, raw.data());

    expect_same_bits(via_rows.base().t, via_lambda.base().t, "rows base.t");
    expect_same_bits(via_rows.base().f, via_lambda.base().f, "rows base.f");
    expect_same_bits(via_rows.log_z(), via_lambda.log_z(), "rows log_z");
    expect_same_bits(via_rows.log_1mz(), via_lambda.log_1mz(),
                     "rows log_1mz");
    for (std::size_t i = 0; i < n; ++i) {
      std::string tag = "rows i=" + std::to_string(i);
      expect_same_bits(via_rows.exposed_silent()[i].t,
                       via_lambda.exposed_silent()[i].t, (tag + " es.t").c_str());
      expect_same_bits(via_rows.exposed_silent()[i].f,
                       via_lambda.exposed_silent()[i].f, (tag + " es.f").c_str());
      expect_same_bits(via_rows.claim_indep()[i].t,
                       via_lambda.claim_indep()[i].t, (tag + " ci.t").c_str());
      expect_same_bits(via_rows.claim_indep()[i].f,
                       via_lambda.claim_indep()[i].f, (tag + " ci.f").c_str());
      expect_same_bits(via_rows.claim_dep()[i].t,
                       via_lambda.claim_dep()[i].t, (tag + " cd.t").c_str());
      expect_same_bits(via_rows.claim_dep()[i].f,
                       via_lambda.claim_dep()[i].f, (tag + " cd.f").c_str());
    }
  }
}

TEST(KernelTables, SweepWeightsMatchPerSweepLogsBitwise) {
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    SCOPED_TRACE(simd::backend_name(backend));
    Rng rng(18);
    std::size_t n = 53;
    std::vector<double> p1(n), p0(n);
    for (std::size_t i = 0; i < n; ++i) {
      p1[i] = std::clamp(rng.uniform(0.0, 1.0), 1e-12, 1.0 - 1e-12);
      p0[i] = std::clamp(rng.uniform(0.0, 1.0), 1e-12, 1.0 - 1e-12);
    }
    std::vector<kernels::SweepWeights> w;
    kernels::build_sweep_weights(p1, p0, w);
    ASSERT_EQ(w.size(), n);
    std::vector<char> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_same_bits(w[i].log_t1, std::log(p1[i]), "log_t1");
      expect_same_bits(w[i].log_t1n, std::log1p(-p1[i]), "log_t1n");
      expect_same_bits(w[i].log_f1, std::log(p0[i]), "log_f1");
      expect_same_bits(w[i].log_f1n, std::log1p(-p0[i]), "log_f1n");
      bits[i] = rng.bernoulli(0.5) ? 1 : 0;
    }
    // Full-state refresh == the pre-kernel per-source loop.
    kernels::LogPair sums = kernels::sum_state_logs(bits, w.data());
    double lt = 0.0;
    double lf = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      lt += bits[i] ? std::log(p1[i]) : std::log1p(-p1[i]);
      lf += bits[i] ? std::log(p0[i]) : std::log1p(-p0[i]);
    }
    expect_same_bits(sums.t, lt, "sum_state_logs.t");
    expect_same_bits(sums.f, lf, "sum_state_logs.f");

    EXPECT_THROW(
        kernels::build_sweep_weights(
            std::span<const double>(p1.data(), n - 1), p0, w),
        std::invalid_argument);
  }
}

// End-to-end column check: the kernel-backed LikelihoodTable equals a
// naive Table-II walk over every cell (the O(n)-per-column evaluation
// the hoisted form replaced, up to its documented summation order).
TEST(KernelTables, LikelihoodColumnMatchesHoistedWalk) {
  Dataset d = golden::golden_dataset(31, 40, 60);
  ModelParams params;
  Rng rng(19);
  params.z = 0.41;
  params.source.resize(d.source_count());
  for (SourceParams& s : params.source) {
    s.a = rng.uniform(0.05, 0.9);
    s.b = rng.uniform(0.05, 0.9);
    s.f = rng.uniform(0.05, 0.9);
    s.g = rng.uniform(0.05, 0.9);
  }
  LikelihoodTable table(d, params);

  // Pre-kernel walk: separate split arrays, branch per claimant.
  std::size_t n = d.source_count();
  std::vector<double> es_t(n), es_f(n), ci_t(n), ci_f(n), cd_t(n), cd_f(n);
  double base_t = 0.0;
  double base_f = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double a = clamp_prob(params.source[i].a);
    double b = clamp_prob(params.source[i].b);
    double f = clamp_prob(params.source[i].f);
    double g = clamp_prob(params.source[i].g);
    double log_na = std::log1p(-a);
    double log_nb = std::log1p(-b);
    double log_nf = std::log1p(-f);
    double log_ng = std::log1p(-g);
    base_t += log_na;
    base_f += log_nb;
    es_t[i] = log_nf - log_na;
    es_f[i] = log_ng - log_nb;
    ci_t[i] = std::log(a) - log_na;
    ci_f[i] = std::log(b) - log_nb;
    cd_t[i] = std::log(f) - log_nf;
    cd_f[i] = std::log(g) - log_ng;
  }
  for (std::size_t j = 0; j < d.assertion_count(); ++j) {
    double lt = base_t;
    double lf = base_f;
    kernels::gather_add_reference(lt, lf,
                                  d.dependency.exposed_sources(j),
                                  es_t.data(), es_f.data());
    std::vector<char> flags;
    for (std::uint32_t i : d.claims.claimants_of(j)) {
      flags.push_back(d.dependency.dependent(i, j) ? 1 : 0);
    }
    kernels::gather_add_select_reference(
        lt, lf, d.claims.claimants_of(j), flags, ci_t.data(), ci_f.data(),
        cd_t.data(), cd_f.data());
    ColumnLogLikelihood c = table.column(j);
    expect_same_bits(c.log_given_true, lt, "column.log_given_true");
    expect_same_bits(c.log_given_false, lf, "column.log_given_false");
  }

  // set_params on mismatched shape must throw, not corrupt the table.
  ModelParams bad;
  bad.source.resize(n + 1);
  EXPECT_THROW(table.set_params(bad), std::invalid_argument);
}

TEST(KernelTables, PriorColumnsMatchesPerColumnWalkBitwise) {
  // golden_dataset(·, 40, 61), checked over the whole range and over
  // ranges that start mid-array at both parities.
  Dataset d = golden::golden_dataset(33, 40, 61);
  ModelParams params;
  Rng rng(23);
  params.z = 0.37;
  params.source.resize(d.source_count());
  for (SourceParams& s : params.source) {
    s.a = rng.uniform(0.05, 0.9);
    s.b = rng.uniform(0.05, 0.9);
    s.f = rng.uniform(0.05, 0.9);
    s.g = rng.uniform(0.05, 0.9);
  }
  LikelihoodTable table(d, params);
  std::size_t m = d.assertion_count();
  std::vector<double> la(m, 0.0), lb(m, 0.0);
  const std::size_t ranges[][2] = {{0, m}, {1, m}, {5, 6}, {7, 7}};
  for (auto [begin, end] : ranges) {
    std::fill(la.begin(), la.end(), 0.0);
    std::fill(lb.begin(), lb.end(), 0.0);
    table.prior_columns(begin, end, la.data(), lb.data());
    for (std::size_t j = begin; j < end; ++j) {
      ColumnLogLikelihood c = table.column(j);
      expect_same_bits(la[j], c.log_given_true + table.log_prior_true(),
                       "prior_columns.la");
      expect_same_bits(lb[j], c.log_given_false + table.log_prior_false(),
                       "prior_columns.lb");
    }
  }
}

// ---------------------------------------------------------------------
// Golden bit-identity: hashes recorded against the pre-kernel code.
// ---------------------------------------------------------------------

constexpr std::uint64_t kGoldenEmExtVote = 0xbb95d36ec28d1561ull;
constexpr std::uint64_t kGoldenEmExtRandom = 0xd8bed8de1511a325ull;
// Re-pinned once; its decision hash predates the re-pin and holds on
// every backend (see kernel_golden.h).
constexpr std::uint64_t kGoldenStreaming = 0xb5609803909df2c0ull;
constexpr std::uint64_t kGoldenStreamingDecisions = 0x92d771440fc85515ull;
constexpr std::uint64_t kGoldenGibbs = 0xa309c27c21274f87ull;
// The two EM baselines were re-pinned once (see kernel_golden.h); their
// decision hashes were recorded before that re-pin.
constexpr std::uint64_t kGoldenEmSocial = 0xbdc0126ecb22c5a1ull;
constexpr std::uint64_t kGoldenEmIpsn12 = 0x9e51971a194502dfull;
constexpr std::uint64_t kGoldenEmSocialDecisions = 0x4b6515d82d96e51cull;
constexpr std::uint64_t kGoldenEmIpsn12Decisions = 0x2eca21cd23156c1eull;
constexpr std::uint64_t kGoldenTruthFinder = 0xf4bd952366a0c2b7ull;
constexpr std::uint64_t kGoldenAverageLog = 0x4b590fc19df3a427ull;

TEST(KernelGolden, EmExtVotePriorSerialAndParallel) {
  EXPECT_EQ(golden::golden_em_ext_vote(1), kGoldenEmExtVote);
  EXPECT_EQ(golden::golden_em_ext_vote(8), kGoldenEmExtVote);
}

TEST(KernelGolden, EmExtRandomRestartsSerialAndParallel) {
  EXPECT_EQ(golden::golden_em_ext_random(1), kGoldenEmExtRandom);
  EXPECT_EQ(golden::golden_em_ext_random(8), kGoldenEmExtRandom);
}

TEST(KernelGolden, StreamingEmExt) {
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    golden::StreamingHashes h = golden::golden_streaming();
    if (backend == simd::Backend::kScalar) {
      EXPECT_EQ(h.bits, kGoldenStreaming);
    }
    EXPECT_EQ(h.decisions, kGoldenStreamingDecisions);
  }
}

TEST(KernelGolden, GibbsBoundSerialAndParallel) {
  EXPECT_EQ(golden::golden_gibbs(1), kGoldenGibbs);
  EXPECT_EQ(golden::golden_gibbs(4), kGoldenGibbs);
}

TEST(KernelGolden, EmSocial) {
  EXPECT_EQ(golden::golden_em_social(), kGoldenEmSocial);
  EXPECT_EQ(golden::golden_em_social_decisions(), kGoldenEmSocialDecisions);
}

TEST(KernelGolden, EmIpsn12) {
  EXPECT_EQ(golden::golden_em_ipsn12(), kGoldenEmIpsn12);
  EXPECT_EQ(golden::golden_em_ipsn12_decisions(), kGoldenEmIpsn12Decisions);
}

TEST(KernelGolden, TruthFinder) {
  EXPECT_EQ(golden::golden_truth_finder(), kGoldenTruthFinder);
}

TEST(KernelGolden, AverageLog) {
  EXPECT_EQ(golden::golden_average_log(), kGoldenAverageLog);
}

// ---------------------------------------------------------------------
// Fixed-shape tree reduction (kernels::tree_reduce / tree_sum).

// Reference: the documented shape, written independently of the
// implementation — serial left-fold per block of kTreeReduceBlock,
// then pairwise combine rounds carrying an odd tail.
double tree_sum_reference(const std::vector<double>& xs) {
  const std::size_t block = kernels::kTreeReduceBlock;
  std::size_t blocks = (xs.size() + block - 1) / block;
  if (blocks == 0) return 0.0;
  std::vector<double> p(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    double acc = 0.0;
    std::size_t end = std::min(xs.size(), (b + 1) * block);
    for (std::size_t i = b * block; i < end; ++i) acc += xs[i];
    p[b] = acc;
  }
  while (p.size() > 1) {
    std::size_t half = p.size() / 2;
    std::vector<double> next(half + (p.size() % 2));
    for (std::size_t i = 0; i < half; ++i) {
      next[i] = p[2 * i] + p[2 * i + 1];
    }
    if (p.size() % 2 != 0) next[half] = p.back();
    p = std::move(next);
  }
  return p[0];
}

std::vector<double> random_terms(Rng& rng, std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Wildly mixed magnitudes so any regrouping of the additions is
    // actually visible in the low bits.
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-8.0, 8.0));
  }
  return xs;
}

TEST(TreeReduce, MatchesReferenceShapeForShape) {
  Rng rng(0x7ee5u);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        kernels::kTreeReduceBlock - 1,
                        kernels::kTreeReduceBlock,
                        kernels::kTreeReduceBlock + 1,
                        3 * kernels::kTreeReduceBlock + 17,
                        8 * kernels::kTreeReduceBlock + 5}) {
    std::vector<double> xs = random_terms(rng, n);
    expect_same_bits(kernels::tree_sum(nullptr, xs.data(), n),
                     tree_sum_reference(xs), "tree_sum vs reference");
  }
}

TEST(TreeReduce, SmallCountsDegenerateToPlainSerialFold) {
  Rng rng(0x51ab5u);
  for (std::size_t n :
       {std::size_t{1}, std::size_t{33}, kernels::kTreeReduceBlock}) {
    std::vector<double> xs = random_terms(rng, n);
    double serial = 0.0;
    for (double x : xs) serial += x;
    expect_same_bits(kernels::tree_sum(nullptr, xs.data(), n), serial,
                     "single-block tree_sum vs plain fold");
  }
}

TEST(TreeReduce, ParallelMatchesSerialBitwise) {
  Rng rng(0xb17e5u);
  std::vector<double> xs =
      random_terms(rng, 5 * kernels::kTreeReduceBlock + 123);
  double serial = kernels::tree_sum(nullptr, xs.data(), xs.size());
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    expect_same_bits(kernels::tree_sum(&pool, xs.data(), xs.size()),
                     serial, "tree_sum across pool sizes");
  }
}

TEST(TreeReduce, GenericCombineAndZeroElements) {
  // Non-double payload: max + count reduction through the same shape.
  struct MaxCount {
    double hi = kNegInf;
    std::size_t n = 0;
  };
  Rng rng(0xc0de5u);
  std::vector<double> xs = random_terms(rng, 2 * kernels::kTreeReduceBlock);
  MaxCount out = kernels::tree_reduce(
      nullptr, xs.size(), MaxCount{},
      [&](std::size_t begin, std::size_t end) {
        MaxCount acc;
        for (std::size_t i = begin; i < end; ++i) {
          acc.hi = std::max(acc.hi, xs[i]);
          ++acc.n;
        }
        return acc;
      },
      [](MaxCount a, const MaxCount& b) {
        a.hi = std::max(a.hi, b.hi);
        a.n += b.n;
        return a;
      });
  EXPECT_EQ(out.n, xs.size());
  EXPECT_EQ(out.hi, *std::max_element(xs.begin(), xs.end()));
  // Zero elements return the zero value untouched.
  EXPECT_EQ(kernels::tree_sum(nullptr, nullptr, 0), 0.0);
}

}  // namespace
