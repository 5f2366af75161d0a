// Backend agreement on Twitter-scale inputs and the simulation
// transport's clean path (ctest label `perf-smoke`; CI's sanitizer legs
// select it).
//
// The backend cases hold the AVX2 backend to its ULP contract
// (docs/MODEL.md §12) kernel by kernel and through a whole EM-Ext fit,
// on the Kirkuk scenario rather than the small synthetic inputs of
// test_simd.cpp. They skip on hosts without AVX2+FMA. The storm case
// checks that routing LiveApollo's batches through the simulation
// transport (SimScheduler + SimProcess, zero faults) changes no bit of
// its ranking (docs/MODEL.md §13); SS_STORM_SEED overrides its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "apollo/live.h"
#include "backend_guard.h"
#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "math/simd/dispatch.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/stream.h"
#include "simgen/parametric_gen.h"
#include "twitter/builder.h"
#include "twitter/simulator.h"
#include "util/env.h"
#include "util/rng.h"

#define SKIP_WITHOUT_AVX2()                                  \
  if (!ss::simd::avx2_runtime_supported())                   \
  GTEST_SKIP() << "AVX2+FMA not usable on this build/host; " \
                  "there is no second backend to compare"

namespace {

using namespace ss;
using simd::Backend;
using test_support::ScopedBackend;

// Runs `work` with the kernel backend pinned to `backend`.
template <typename Work>
auto on_backend(Backend backend, Work&& work) {
  ScopedBackend pin(backend);
  return work();
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double out = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    out = std::max(out, std::abs(a[i] - b[i]));
  }
  return out;
}

// Size of the intersection of the two top-k index sets, ranking by
// score descending.
std::size_t topk_overlap(const std::vector<double>& a,
                         const std::vector<double>& b, std::size_t k) {
  auto top = [k](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::size_t kk = std::min(k, idx.size());
    std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                      [&](std::size_t x, std::size_t y) {
                        return v[x] > v[y];
                      });
    idx.resize(kk);
    std::sort(idx.begin(), idx.end());
    return idx;
  };
  std::vector<std::size_t> ta = top(a), tb = top(b);
  std::vector<std::size_t> both;
  std::set_intersection(ta.begin(), ta.end(), tb.begin(), tb.end(),
                        std::back_inserter(both));
  return both.size();
}

// Kirkuk at x1 (build seed 42) with random parameters from Rng(23).
struct KirkukInput {
  Dataset dataset;
  ModelParams params;
};

KirkukInput kirkuk_input() {
  BuiltDataset built = make_twitter_dataset(scenario_by_name("Kirkuk"), 42);
  Rng rng(23);
  ModelParams params = random_init_params(built.dataset.source_count(), rng);
  return {std::move(built.dataset), std::move(params)};
}

// One fused E-step per backend, the table built under the same
// backend: posteriors within 1e-9, and the top-50 log-odds sets differ
// in at most two assertions.
void expect_e_step_agrees(const Dataset& d, const ModelParams& params) {
  auto e_step = [&] { return fused_e_step(LikelihoodTable(d, params)); };
  EStepResult scalar_e = on_backend(Backend::kScalar, e_step);
  EStepResult avx2_e = on_backend(Backend::kAvx2, e_step);
  EXPECT_LT(max_abs_diff(scalar_e.posterior, avx2_e.posterior), 1e-9);
  std::size_t k = std::min<std::size_t>(50, scalar_e.posterior.size());
  EXPECT_GE(topk_overlap(scalar_e.log_odds, avx2_e.log_odds, k) + 2, k);
}

TEST(PerfSmoke, FusedEStepAgreesAcrossBackendsOnKirkuk) {
  SKIP_WITHOUT_AVX2();
  KirkukInput kirkuk = kirkuk_input();
  expect_e_step_agrees(kirkuk.dataset, kirkuk.params);
}

TEST(PerfSmoke, FusedEStepAgreesAcrossBackendsOnDenseInstance) {
  SKIP_WITHOUT_AVX2();
  Rng rng(8);
  SimInstance dense =
      generate_parametric(SimKnobs::paper_defaults(200, 2000), rng);
  expect_e_step_agrees(dense.dataset, dense.true_params);
}

// The Gibbs hot pair: one weight build and 64 full-state refreshes of
// 200 sources, one bit flipped per sweep. The accumulated statistic is
// 64 reassociated sums of 200 log weights each, so it is compared
// relatively.
TEST(PerfSmoke, GibbsStateRefreshAgreesAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  constexpr std::size_t kSources = 200;
  constexpr std::size_t kSweeps = 64;
  Rng rng(21);
  std::vector<double> p1(kSources), p0(kSources);
  std::vector<char> bits(kSources);
  for (std::size_t i = 0; i < kSources; ++i) {
    p1[i] = std::clamp(rng.uniform(0.0, 1.0), 1e-12, 1.0 - 1e-12);
    p0[i] = std::clamp(rng.uniform(0.0, 1.0), 1e-12, 1.0 - 1e-12);
    bits[i] = rng.bernoulli(0.5) ? 1 : 0;
  }
  auto refresh = [&] {
    kernels::SweepWeightsTable w;
    w.build(p1, p0);
    std::vector<char> state = bits;
    double acc = 0.0;
    for (std::size_t s = 0; s < kSweeps; ++s) {
      state[s % kSources] ^= 1;
      kernels::LogPair lp = w.sum_state_logs(state);
      acc += lp.t - lp.f;
    }
    return acc;
  };
  double scalar_acc = on_backend(Backend::kScalar, refresh);
  double avx2_acc = on_backend(Backend::kAvx2, refresh);
  EXPECT_LE(std::abs(scalar_acc - avx2_acc) /
                std::max(1.0, std::abs(scalar_acc)),
            1e-9)
      << "scalar " << scalar_acc << " vs avx2 " << avx2_acc;
}

// The batched ExtLogTable build, every row and the all-silent base.
TEST(PerfSmoke, ExtLogTableBuildAgreesAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  const ModelParams params = kirkuk_input().params;
  const std::size_t n = params.source.size();
  auto build = [&] {
    kernels::ExtLogTable t;
    t.build(n, 0.5, [&](std::size_t i) {
      const SourceParams& s = params.source[i];
      return std::array<double, 4>{clamp_prob(s.a), clamp_prob(s.b),
                                   clamp_prob(s.f), clamp_prob(s.g)};
    });
    std::vector<double> out;
    out.reserve(6 * n + 2);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(t.exposed_silent()[i].t);
      out.push_back(t.exposed_silent()[i].f);
      out.push_back(t.claim_indep()[i].t);
      out.push_back(t.claim_indep()[i].f);
      out.push_back(t.claim_dep()[i].t);
      out.push_back(t.claim_dep()[i].f);
    }
    out.push_back(t.base().t);
    out.push_back(t.base().f);
    return out;
  };
  EXPECT_LE(max_abs_diff(on_backend(Backend::kScalar, build),
                         on_backend(Backend::kAvx2, build)),
            1e-9);
}

// A whole EM-Ext fit on Kirkuk at x0.25 (build seed 42, run seed 1).
// The backends take different optimization paths, so the check is at
// decision level: beliefs, the top-30 ranking and the learned source
// reliabilities agree far below any threshold the evaluation uses.
TEST(PerfSmoke, EmExtEndToEndAgreesAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  BuiltDataset built =
      make_twitter_dataset(scenario_by_name("Kirkuk").scaled(0.25), 42);
  auto fit = [&] { return EmExtEstimator().run_detailed(built.dataset, 1); };
  EmExtResult scalar_em = on_backend(Backend::kScalar, fit);
  EmExtResult avx2_em = on_backend(Backend::kAvx2, fit);

  EXPECT_LE(max_abs_diff(scalar_em.estimate.belief, avx2_em.estimate.belief),
            1e-6);
  std::size_t k = std::min<std::size_t>(30, scalar_em.estimate.belief.size());
  EXPECT_GE(topk_overlap(scalar_em.estimate.log_odds,
                         avx2_em.estimate.log_odds, k) +
                1,
            k);
  ASSERT_EQ(scalar_em.params.source.size(), avx2_em.params.source.size());
  double reliability_diff = 0.0;
  for (std::size_t i = 0; i < scalar_em.params.source.size(); ++i) {
    const SourceParams& s = scalar_em.params.source[i];
    const SourceParams& v = avx2_em.params.source[i];
    reliability_diff = std::max(
        {reliability_diff, std::abs(s.a - v.a), std::abs(s.b - v.b)});
  }
  EXPECT_LE(reliability_diff, 1e-6);
}

using Ranking = std::vector<std::pair<std::uint32_t, double>>;

constexpr std::size_t kStormTopK = 30;

// Production path: batches folded straight into LiveApollo.
Ranking run_direct(const TwitterSimulation& world,
                   const sim::SimStream& stream) {
  LiveApollo live(world.follows, LiveApolloConfig{});
  for (std::uint64_t s = 0; s < stream.batch_count(); ++s) {
    for (const Tweet& t : stream.clean_batch(s)) live.ingest(t);
    live.refresh();
  }
  return live.top(kStormTopK);
}

// The same batches routed through the sim transport: scheduled arrival
// events, sequence tracking and the reorder buffer, minus the faults.
Ranking run_transport(const TwitterSimulation& world,
                      const sim::SimStream& stream, std::uint64_t seed) {
  sim::ProcessConfig config;
  config.fingerprint = splitmix64(seed ^ 0xBE4C4ULL);
  sim::SimProcess process(&world.follows, config);
  sim::SimScheduler scheduler(seed);
  for (const sim::PlannedDelivery& d : stream.deliveries()) {
    scheduler.schedule(d.tick, sim::EventKind::kBatchArrival, d.seq);
  }
  while (!scheduler.empty()) {
    sim::Event e = scheduler.pop();
    sim::SimStream::Delivered d = stream.delivered(e.payload);
    process.deliver(e.payload, std::move(d.tweets));
  }
  return process.live().top(kStormTopK);
}

// Kirkuk at x0.03 in batches of 120 with zero faults: the transport
// must be invisible, down to the log-odds bits of the top 30.
TEST(PerfSmoke, StormCleanPathMatchesDirectRun) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(env_int("SS_STORM_SEED", 606));
  TwitterSimulation world =
      simulate_twitter(scenario_by_name("Kirkuk").scaled(0.03), seed);
  sim::StreamConfig clean;
  clean.batch_size = 120;
  clean.faults = fault::BatchFaultConfig{};  // every rate zero
  sim::SimStream stream(world.tweets, clean, seed);

  Ranking direct = run_direct(world, stream);
  Ranking transport = run_transport(world, stream, seed);
  ASSERT_FALSE(direct.empty());
  ASSERT_EQ(direct.size(), transport.size()) << "SS_STORM_SEED=" << seed;
  for (std::size_t r = 0; r < direct.size(); ++r) {
    EXPECT_EQ(direct[r].first, transport[r].first)
        << "rank " << r << ", SS_STORM_SEED=" << seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(direct[r].second),
              std::bit_cast<std::uint64_t>(transport[r].second))
        << "rank " << r << ", SS_STORM_SEED=" << seed;
  }
}

}  // namespace
