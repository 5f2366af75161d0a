// Correctness of the parallel inference engine: bit-identical results
// for any worker count, agreement of the D_ij claim split with the
// dependency indicators, and multi-chain Gibbs pooling. These tests carry
// the `parallel` ctest label so a TSan build can target them
// (`ctest -L parallel`, see SS_SANITIZE in the top-level CMakeLists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "apollo/live.h"
#include "backend_guard.h"
#include "bounds/column_model.h"
#include "bounds/dataset_bound.h"
#include "bounds/exact_bound.h"
#include "bounds/gibbs_bound.h"
#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "data/dependency.h"
#include "kernel_golden.h"
#include "math/kernels.h"
#include "simgen/parametric_gen.h"
#include "twitter/scenario.h"
#include "twitter/simulator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ss;

// EXPECT_EQ on doubles is exact (bitwise up to -0.0 vs 0.0, which never
// arises here); these helpers make the intent explicit.
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a[i], 8);
    std::memcpy(&bb, &b[i], 8);
    EXPECT_EQ(ba, bb) << what << "[" << i << "]";
  }
}

SimInstance make_instance(std::uint64_t seed, std::size_t n,
                          std::size_t m) {
  Rng rng(seed);
  return generate_parametric(SimKnobs::paper_defaults(n, m), rng);
}

Dataset make_dataset(std::uint64_t seed, std::size_t n, std::size_t m) {
  return make_instance(seed, n, m).dataset;
}

// split_claims (data/dependency.h) against the binary-search D_ij
// oracle, in both orientations. The suite keeps the name of the cache
// class it once checked.
TEST(ClaimPartition, MatchesDependencyIndicatorsOnRandomDatasets) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    Dataset d = make_dataset(seed, 60, 120);

    std::size_t dep_claims = 0;
    for (std::size_t j = 0; j < d.assertion_count(); ++j) {
      auto claimants = d.claims.claimants_of(j);
      std::vector<char> flags;
      std::vector<std::uint32_t> dep_split, indep_split;
      split_claims(claimants, d.dependency.exposed_sources(j),
                   [&](std::uint32_t i, bool dependent) {
                     flags.push_back(dependent ? 1 : 0);
                     (dependent ? dep_split : indep_split).push_back(i);
                   });
      ASSERT_EQ(flags.size(), claimants.size());
      std::vector<std::uint32_t> dep_ids, indep_ids;
      for (std::size_t k = 0; k < claimants.size(); ++k) {
        bool expect_dep = d.dependency.dependent(claimants[k], j);
        EXPECT_EQ(flags[k] != 0, expect_dep)
            << "assertion " << j << " claimant " << claimants[k];
        (expect_dep ? dep_ids : indep_ids).push_back(claimants[k]);
        dep_claims += expect_dep ? 1 : 0;
      }
      EXPECT_EQ(dep_split, dep_ids);
      EXPECT_EQ(indep_split, indep_ids);
    }
    EXPECT_EQ(d.claims.claim_count() -
                  count_original_claims(d.claims, d.dependency),
              dep_claims);

    for (std::size_t i = 0; i < d.source_count(); ++i) {
      std::vector<std::uint32_t> dep_ids, indep_ids;
      for (std::uint32_t j : d.claims.claims_of(i)) {
        (d.dependency.dependent(i, j) ? dep_ids : indep_ids).push_back(j);
      }
      std::vector<std::uint32_t> dep_split, indep_split;
      split_claims(d.claims.claims_of(i), d.dependency.exposed_assertions(i),
                   [&](std::uint32_t j, bool dependent) {
                     (dependent ? dep_split : indep_split).push_back(j);
                   });
      EXPECT_EQ(dep_split, dep_ids);
      EXPECT_EQ(indep_split, indep_ids);
    }
  }
}

TEST(ParallelEngine, EmExtBitwiseEqualAcrossThreadCounts) {
  Dataset d = make_dataset(11, 150, 400);
  ThreadPool pool1(1), pool2(2), pool8(8);

  EmExtConfig config;
  config.pool = &pool1;
  EmExtResult ref = EmExtEstimator(config).run_detailed(d, 5);

  for (ThreadPool* pool : {&pool2, &pool8}) {
    EmExtConfig c;
    c.pool = pool;
    EmExtResult got = EmExtEstimator(c).run_detailed(d, 5);
    expect_bitwise_equal(ref.estimate.belief, got.estimate.belief,
                         "belief");
    expect_bitwise_equal(ref.estimate.log_odds, got.estimate.log_odds,
                         "log_odds");
    expect_bitwise_equal(ref.likelihood_trace, got.likelihood_trace,
                         "trace");
    EXPECT_EQ(ref.log_likelihood, got.log_likelihood);
    EXPECT_EQ(ref.params.z, got.params.z);
    ASSERT_EQ(ref.params.source.size(), got.params.source.size());
    for (std::size_t i = 0; i < ref.params.source.size(); ++i) {
      EXPECT_EQ(ref.params.source[i].a, got.params.source[i].a);
      EXPECT_EQ(ref.params.source[i].b, got.params.source[i].b);
      EXPECT_EQ(ref.params.source[i].f, got.params.source[i].f);
      EXPECT_EQ(ref.params.source[i].g, got.params.source[i].g);
    }
  }
}

TEST(ParallelEngine, RandomRestartsBitwiseEqualAcrossThreadCounts) {
  Dataset d = make_dataset(13, 80, 150);
  ThreadPool pool1(1), pool8(8);

  EmExtConfig base;
  base.init_kind = EmInit::kRandom;
  base.restarts = 4;

  EmExtConfig c1 = base;
  c1.pool = &pool1;
  EmExtResult ref = EmExtEstimator(c1).run_detailed(d, 9);

  EmExtConfig c8 = base;
  c8.pool = &pool8;
  EmExtResult got = EmExtEstimator(c8).run_detailed(d, 9);

  expect_bitwise_equal(ref.estimate.belief, got.estimate.belief,
                       "belief");
  expect_bitwise_equal(ref.likelihood_trace, got.likelihood_trace,
                       "trace");
  EXPECT_EQ(ref.log_likelihood, got.log_likelihood);
}

TEST(ParallelEngine, FusedEStepMatchesSeparatePasses) {
  // Fused-vs-separate bit identity is a scalar-backend contract: the
  // fused path batches gathers/epilogues that the per-column path runs
  // singly, which only coincides bitwise when both resolve to the
  // scalar kernels. (Thread-count invariance, the property this suite
  // exists for, is asserted under the default backend by the tests
  // around this one.) AVX2 fused-vs-separate agreement is covered at
  // ULP tolerance in test_simd.cpp.
  test_support::ScopedBackend pin(simd::Backend::kScalar);
  Dataset d = make_dataset(17, 100, 700);
  ModelParams params;
  params.source.assign(d.source_count(), SourceParams{});
  params.z = 0.4;
  LikelihoodTable table(d, params);
  ThreadPool pool(4);

  EStepResult fused = fused_e_step(table, &pool);
  expect_bitwise_equal(all_posteriors(table), fused.posterior,
                       "posterior");
  expect_bitwise_equal(all_log_odds(table), fused.log_odds, "log_odds");
  EXPECT_EQ(table.data_log_likelihood(), fused.log_likelihood);
}

TEST(ParallelEngine, GibbsMultiChainBitwiseEqualAcrossThreadCounts) {
  Dataset d = make_dataset(19, 40, 60);
  ModelParams params;
  params.source.assign(d.source_count(), SourceParams{});
  params.z = 0.5;
  ColumnModel model = make_column_model(params, d.dependency, 2);

  GibbsBoundConfig config;
  config.max_sweeps = 1500;
  config.chains = 4;
  ThreadPool pool1(1), pool2(2), pool8(8);

  config.pool = &pool1;
  GibbsBoundResult ref = gibbs_bound(model, 3, config);
  for (ThreadPool* pool : {&pool2, &pool8}) {
    config.pool = pool;
    GibbsBoundResult got = gibbs_bound(model, 3, config);
    EXPECT_EQ(ref.bound.false_positive, got.bound.false_positive);
    EXPECT_EQ(ref.bound.false_negative, got.bound.false_negative);
    EXPECT_EQ(ref.bound.error, got.bound.error);
    EXPECT_EQ(ref.effective_sample_size, got.effective_sample_size);
    EXPECT_EQ(ref.autocorr_lag1, got.autocorr_lag1);
    EXPECT_EQ(ref.r_hat, got.r_hat);
    EXPECT_EQ(ref.sweeps, got.sweeps);
    EXPECT_EQ(ref.converged, got.converged);
  }
}

TEST(ParallelEngine, GibbsMultiChainPoolsSamplesAndReportsRHat) {
  Dataset d = make_dataset(23, 30, 40);
  ModelParams params;
  params.source.assign(d.source_count(), SourceParams{});
  params.z = 0.5;
  ColumnModel model = make_column_model(params, d.dependency, 1);

  GibbsBoundConfig single;
  single.max_sweeps = 1200;
  GibbsBoundResult one = gibbs_bound(model, 5, single);
  EXPECT_EQ(one.chains, 1u);
  EXPECT_EQ(one.r_hat, 1.0);  // not computable from one chain

  GibbsBoundConfig multi = single;
  multi.chains = 4;
  GibbsBoundResult four = gibbs_bound(model, 5, multi);
  EXPECT_EQ(four.chains, 4u);
  EXPECT_GT(four.sweeps, one.sweeps);
  // Identically-distributed well-mixed chains: R-hat should sit near 1.
  EXPECT_GT(four.r_hat, 0.8);
  EXPECT_LT(four.r_hat, 1.2);
  // The pooled estimate stays a valid probability pair.
  EXPECT_GE(four.bound.false_positive, 0.0);
  EXPECT_GE(four.bound.false_negative, 0.0);
  EXPECT_LE(four.bound.error, 1.0);
  // And agrees with the single chain to Monte-Carlo noise.
  EXPECT_NEAR(four.bound.error, one.bound.error, 0.05);
}

TEST(ParallelEngine, GibbsSingleChainUnaffectedByPoolChoice) {
  Dataset d = make_dataset(29, 25, 30);
  ModelParams params;
  params.source.assign(d.source_count(), SourceParams{});
  params.z = 0.3;
  ColumnModel model = make_column_model(params, d.dependency, 0);

  GibbsBoundConfig config;
  config.max_sweeps = 800;
  GibbsBoundResult ref = gibbs_bound(model, 7, config);
  ThreadPool pool8(8);
  config.pool = &pool8;
  GibbsBoundResult got = gibbs_bound(model, 7, config);
  EXPECT_EQ(ref.bound.error, got.bound.error);
  EXPECT_EQ(ref.sweeps, got.sweeps);
}

void expect_same_dataset_bound(const DatasetBoundResult& a,
                               const DatasetBoundResult& b,
                               const char* what) {
  expect_bitwise_equal(
      {a.bound.error, a.bound.false_positive, a.bound.false_negative},
      {b.bound.error, b.bound.false_positive, b.bound.false_negative},
      what);
  EXPECT_EQ(a.distinct_patterns, b.distinct_patterns) << what;
  EXPECT_EQ(a.columns, b.columns) << what;
}

TEST(ParallelEngine, DatasetBoundsBitwiseEqualAcrossPoolSizes) {
  ThreadPool pool1(1), pool4(4);
  for (std::size_t n : {std::size_t{8}, std::size_t{20}}) {
    SimInstance inst = make_instance(41 + n, n, 30);
    DatasetBoundResult one =
        exact_dataset_bound(inst.dataset, inst.true_params, &pool1);
    DatasetBoundResult four =
        exact_dataset_bound(inst.dataset, inst.true_params, &pool4);
    expect_same_dataset_bound(one, four, "exact");
  }
  SimInstance inst = make_instance(53, 50, 30);
  GibbsBoundConfig config;
  config.min_sweeps = 200;
  config.max_sweeps = 600;
  DatasetBoundResult one =
      gibbs_dataset_bound(inst.dataset, inst.true_params, 9, config, &pool1);
  DatasetBoundResult four =
      gibbs_dataset_bound(inst.dataset, inst.true_params, 9, config, &pool4);
  EXPECT_GT(one.distinct_patterns, 1u);
  expect_same_dataset_bound(one, four, "gibbs");
}

TEST(ParallelEngine, ExactDatasetBoundEqualsUnmemoizedColumnAverage) {
  // Equal exposure patterns build equal column models, so computing each
  // pattern once must not change a bit of the column average (summed in
  // column order, then scaled by 1/m).
  ThreadPool pool4(4);
  for (std::size_t n : {std::size_t{8}, std::size_t{20}}) {
    SimInstance inst = make_instance(61 + n, n, 30);
    const Dataset& d = inst.dataset;
    DatasetBoundResult got = exact_dataset_bound(d, inst.true_params, &pool4);
    BoundResult sum;
    for (std::size_t j = 0; j < d.assertion_count(); ++j) {
      BoundResult b =
          exact_bound(make_column_model(inst.true_params, d.dependency, j));
      sum.error += b.error;
      sum.false_positive += b.false_positive;
      sum.false_negative += b.false_negative;
    }
    double inv = 1.0 / static_cast<double>(d.assertion_count());
    EXPECT_LT(got.distinct_patterns, d.assertion_count()) << "n = " << n;
    expect_bitwise_equal(
        {sum.error * inv, sum.false_positive * inv,
         sum.false_negative * inv},
        {got.bound.error, got.bound.false_positive,
         got.bound.false_negative},
        "exact vs unmemoized");
  }
}

TEST(ParallelEngine, StressRepeatedParallelRunsAreStable) {
  // Exercises the pool scheduling paths repeatedly (the TSan target).
  Dataset d = make_dataset(31, 120, 500);
  ThreadPool pool(8);
  EmExtConfig config;
  config.pool = &pool;
  config.max_iters = 5;
  config.warmup_iters = 2;
  EmExtResult ref = EmExtEstimator(config).run_detailed(d, 1);
  for (int rep = 0; rep < 3; ++rep) {
    EmExtResult got = EmExtEstimator(config).run_detailed(d, 1);
    expect_bitwise_equal(ref.estimate.belief, got.estimate.belief,
                         "belief");
  }
}

// ---------------------------------------------------------------------
// Per-source passes above the chunk size: the log-table rows and the
// streaming M-step run in fixed kernels::kSourceChunk chunks on the
// pool, and must not move a bit.

bool same_bits(double a, double b) {
  std::uint64_t x, y;
  std::memcpy(&x, &a, 8);
  std::memcpy(&y, &b, 8);
  return x == y;
}

void expect_tables_bitwise_equal(const kernels::ExtLogTable& a,
                                 const kernels::ExtLogTable& b) {
  ASSERT_EQ(a.source_count(), b.source_count());
  EXPECT_TRUE(same_bits(a.base().t, b.base().t)) << "base.t";
  EXPECT_TRUE(same_bits(a.base().f, b.base().f)) << "base.f";
  EXPECT_TRUE(same_bits(a.log_z(), b.log_z())) << "log_z";
  EXPECT_TRUE(same_bits(a.log_1mz(), b.log_1mz())) << "log_1mz";
  const std::pair<const kernels::LogPair*, const kernels::LogPair*>
      arrays[] = {{a.exposed_silent(), b.exposed_silent()},
                  {a.claim_indep(), b.claim_indep()},
                  {a.claim_dep(), b.claim_dep()}};
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < a.source_count(); ++i) {
      ASSERT_TRUE(same_bits(arrays[k].first[i].t, arrays[k].second[i].t) &&
                  same_bits(arrays[k].first[i].f, arrays[k].second[i].f))
          << "correction array " << k << " source " << i;
    }
  }
}

TEST(ParallelEngine, ExtLogTableBuildBitwiseEqualAcrossPoolSizes) {
  // Three full chunks plus a ragged tail, over raw (unclamped) rows
  // salted with NaN, out-of-range, infinite and exactly-degenerate
  // rates — including rows on both sides of every chunk boundary.
  const std::size_t chunk = kernels::kSourceChunk;
  const std::size_t n = 3 * chunk + 17;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double odd[] = {nan,  -0.25, 1.5,          0.0,  1.0,
                        1e-9, 1e-12, 1.0 - 1e-9,   -inf, inf};
  Rng rng(41);
  std::vector<double> rows(4 * n);
  for (double& r : rows) r = rng.uniform(0.01, 0.99);
  for (std::size_t k = 0; k < rows.size(); k += 97) {
    rows[k] = odd[(k / 97) % std::size(odd)];
  }
  for (std::size_t i : {chunk - 1, chunk, 2 * chunk, 3 * chunk, n - 1}) {
    rows[4 * i + i % 4] = odd[i % std::size(odd)];
  }

  ThreadPool pool1(1), pool2(2), pool4(4);
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    kernels::ExtLogTable ref;
    ref.build_from_rows(n, 0.37, rows.data());
    for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
      kernels::ExtLogTable got;
      got.build_from_rows(n, 0.37, rows.data(), pool);
      expect_tables_bitwise_equal(ref, got);
    }
    if (backend == simd::Backend::kScalar) {
      // The stored-pair base is the running sum the unchunked build
      // accumulated: log(1-a) and log(1-b) added in source order.
      double base_t = 0.0;
      double base_f = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        base_t += std::log1p(-clamp_prob(rows[4 * i]));
        base_f += std::log1p(-clamp_prob(rows[4 * i + 1]));
      }
      EXPECT_TRUE(same_bits(ref.base().t, base_t));
      EXPECT_TRUE(same_bits(ref.base().f, base_f));
    }
  }
}

TEST(ParallelEngine, LikelihoodSetParamsBitwiseEqualWithAndWithoutPool) {
  // Above the chunk size the log-table rows are filled on the pool;
  // prior_columns reads them on every backend.
  Dataset d = make_dataset(43, 3 * kernels::kSourceChunk + 17, 60);
  ModelParams params;
  Rng rng(47);
  params.z = 0.41;
  params.source.resize(d.source_count());
  for (SourceParams& s : params.source) {
    s.a = rng.uniform(0.05, 0.9);
    s.b = rng.uniform(0.05, 0.9);
    s.f = rng.uniform(0.05, 0.9);
    s.g = rng.uniform(0.05, 0.9);
  }
  const std::size_t m = d.assertion_count();
  ThreadPool pool1(1), pool2(2), pool4(4);
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    LikelihoodTable serial(d);
    serial.set_params(params);
    std::vector<double> la(m), lb(m);
    serial.prior_columns(0, m, la.data(), lb.data());
    for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
      LikelihoodTable pooled(d);
      pooled.set_params(params, pool);
      std::vector<double> pa(m), pb(m);
      pooled.prior_columns(0, m, pa.data(), pb.data());
      expect_bitwise_equal(la, pa, "prior_columns.la");
      expect_bitwise_equal(lb, pb, "prior_columns.lb");
    }
  }
}

// golden::golden_streaming_sparse: the bit hash on the scalar backend
// (re-pinned once) and the decision hash, which predates that re-pin
// and holds on every backend (see kernel_golden.h).
constexpr std::uint64_t kGoldenStreamingSparse = 0xa4d487d463c4b66dull;
constexpr std::uint64_t kGoldenStreamingSparseDecisions =
    0x2d1e13481a597e22ull;

TEST(ParallelEngine, StreamingAboveChunkSizeMatchesGolden) {
  ThreadPool pool1(1), pool4(4);
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    golden::StreamingHashes one = golden::golden_streaming_sparse(&pool1);
    golden::StreamingHashes four = golden::golden_streaming_sparse(&pool4);
    if (backend == simd::Backend::kScalar) {
      EXPECT_EQ(one.bits, kGoldenStreamingSparse);
    }
    // On every backend the stream is identical for any pool.
    EXPECT_EQ(one.bits, four.bits);
    EXPECT_EQ(one.decisions, kGoldenStreamingSparseDecisions);
    EXPECT_EQ(four.decisions, kGoldenStreamingSparseDecisions);
  }
}

TEST(ParallelEngine, LiveApolloRefreshesBitwiseEqualAcrossPoolSizes) {
  TwitterScenario scenario = scenario_by_name("Ukraine").scaled(0.5);
  TwitterSimulation sim = simulate_twitter(scenario, 23);
  ASSERT_GT(sim.follows.node_count(), kernels::kSourceChunk);
  auto run = [&](ThreadPool& pool) {
    LiveApolloConfig config;
    config.em.pool = &pool;
    LiveApollo live(sim.follows, config);
    std::vector<double> out;
    auto refresh = [&] {
      LiveRefreshResult r = live.refresh();
      out.insert(out.end(), r.belief.begin(), r.belief.end());
      out.insert(out.end(), r.log_odds.begin(), r.log_odds.end());
    };
    double next = 48.0;
    for (const Tweet& tweet : sim.tweets) {
      if (tweet.time >= next) {
        refresh();
        next += 48.0;
      }
      live.ingest(tweet);
    }
    refresh();
    EXPECT_GT(live.refreshes(), 3u);
    for (const SourceParams& s : live.params().source) {
      out.insert(out.end(), {s.a, s.b, s.f, s.g});
    }
    out.push_back(live.params().z);
    return out;
  };
  ThreadPool pool1(1), pool4(4);
  expect_bitwise_equal(run(pool1), run(pool4), "live refreshes");
}

}  // namespace
