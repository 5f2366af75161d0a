// ULP contract of the AVX2 kernel backend (docs/MODEL.md §12, ctest
// label `simd`).
//
// The scalar backend is the bit-exact reference (locked by
// tests/test_kernels.cpp). The AVX2 backend keeps four kernels:
// finalize_params is exact, finalize_columns and the ExtLogTable row
// build evaluate exp/log/log1p by polynomial, and SweepWeightsTable's
// packed refresh splits its sums into partial chains. These tests bound
// the divergence of the last three instead of demanding identity:
//
//  * every vector kernel is called DIRECTLY (simd::*_avx2) or through
//    its table across tail lengths 0–7 and longer spans, against the
//    scalar loop it replaces;
//  * degenerate inputs (-inf columns, NaN, rates outside (0,1)) must
//    take the documented scalar-fallback path and match bitwise;
//  * the kernels:: wrappers are checked to actually dispatch on the
//    pinned backend, and the elementwise-aliasing contract of the
//    batch epilogues is exercised exactly as posterior.cpp uses it;
//  * the gathers have no vector arm, so the E-step gather pass is
//    bitwise equal across backends;
//  * forcing the scalar backend on an AVX2 host must reproduce the
//    pre-SIMD golden hashes (the dispatch override is load-bearing);
//  * end-to-end checks: every EM path (EM-Ext, EM-Social,
//    EM (IPSN'12), StreamingEmExt) under scalar vs AVX2 agrees on
//    beliefs to estimator-level tolerance, with identical decisions,
//    and every Fig. 11 estimator picks the same top 100 in the same
//    order on the five Twitter scenarios at x1.
//
// Tolerances: the packed refresh sees only reassociation error, bounded
// in ULPs unless cancellation shrinks the result (then an absolute
// floor applies — the inputs are O(10) log terms, so surviving error
// is O(n * eps * 10)). Transcendental kernels add the polynomial's
// ~1-2 ULP per evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apollo/pipeline.h"
#include "backend_guard.h"
#include "core/likelihood.h"
#include "estimators/registry.h"
#include "kernel_golden.h"
#include "math/kernels.h"
#include "math/simd/dispatch.h"
#include "twitter/builder.h"
#include "util/rng.h"

#define SKIP_WITHOUT_AVX2()                                        \
  if (!ss::simd::avx2_runtime_supported())                         \
  GTEST_SKIP() << "AVX2+FMA not usable on this build/host; "       \
                  "scalar-only coverage lives in test_kernels"

namespace {

using namespace ss;
using kernels::LogPair;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Reassociated sums of the same terms: partial-chain splitting.
constexpr std::uint64_t kSumUlp = 256;
// One polynomial exp + one polynomial log1p per column.
constexpr std::uint64_t kEpilogueUlp = 128;
// Polynomial log/log1p plus the table's correction subtraction.
constexpr std::uint64_t kTableUlp = 512;
// When cancellation leaves a tiny result, ULP distance is meaningless;
// below this absolute difference the values are equal for every
// consumer (inputs are O(10) log terms).
constexpr double kCancelTol = 1e-11;

void expect_close(double reference, double got, std::uint64_t max_ulp,
                  const std::string& what) {
  double diff = std::abs(reference - got);
  if (diff <= kCancelTol) return;  // covers equal ±inf via ULP below
  EXPECT_LE(kernels::ulp_distance(reference, got), max_ulp)
      << what << ": reference=" << reference << " got=" << got
      << " ulp=" << kernels::ulp_distance(reference, got);
}

void expect_same_bits(double reference, double got,
                      const std::string& what) {
  std::uint64_t br, bg;
  std::memcpy(&br, &reference, sizeof(br));
  std::memcpy(&bg, &got, sizeof(bg));
  EXPECT_EQ(br, bg) << what << ": reference=" << reference
                    << " got=" << got;
}

const std::vector<std::size_t> kLengths = {0, 1,  2,  3,  4,  5, 6,
                                           7, 8,  9,  13, 31, 64, 100};

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

TEST(Dispatch, ScalarPinAlwaysSucceeds) {
  test_support::ScopedBackend pin(simd::Backend::kScalar);
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  EXPECT_FALSE(simd::avx2_active());
  EXPECT_STREQ(simd::active_backend_name(), "scalar");
}

TEST(Dispatch, ForceAvx2ReportsHostCapability) {
  test_support::ScopedBackend pin(simd::Backend::kScalar);
  bool ok = simd::force_backend(simd::Backend::kAvx2);
  EXPECT_EQ(ok, simd::avx2_runtime_supported());
  if (ok) {
    EXPECT_EQ(simd::active_backend(), simd::Backend::kAvx2);
    EXPECT_STREQ(simd::active_backend_name(), "avx2");
  } else {
    // A refused request must leave the selection untouched.
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  }
}

TEST(Dispatch, EnvVariableControlsResolution) {
  const char* old = std::getenv("SS_KERNEL_BACKEND");
  const bool had_old = old != nullptr;
  const std::string saved = had_old ? old : "";
  auto set_and_resolve = [](const char* value) {
    ASSERT_EQ(::setenv("SS_KERNEL_BACKEND", value, 1), 0);
    simd::reset_backend();
  };

  set_and_resolve("scalar");
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);

  set_and_resolve("SCALAR");  // values are case-insensitive
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);

  set_and_resolve("avx2");  // honored iff the host can run it
  EXPECT_EQ(simd::avx2_active(), simd::avx2_runtime_supported());

  set_and_resolve("bogus-backend");  // unknown values behave like auto
  EXPECT_EQ(simd::avx2_active(), simd::avx2_runtime_supported());

  if (had_old) {
    ::setenv("SS_KERNEL_BACKEND", saved.c_str(), 1);
  } else {
    ::unsetenv("SS_KERNEL_BACKEND");
  }
  simd::reset_backend();
}

TEST(Dispatch, WrappersRouteOnPinnedBackend) {
  SKIP_WITHOUT_AVX2();
  Rng rng(11);
  const std::size_t n = 64;
  std::vector<double> la(n), lb(n);
  for (std::size_t j = 0; j < n; ++j) {
    la[j] = rng.uniform(-30.0, 5.0);
    lb[j] = rng.uniform(-30.0, 5.0);
  }
  auto via_wrapper = [&] {
    std::vector<double> out(3 * n);
    kernels::finalize_columns(la.data(), lb.data(), n, out.data(),
                              out.data() + n, out.data() + 2 * n);
    return out;
  };

  test_support::ScopedBackend pin(simd::Backend::kAvx2);
  std::vector<double> avx2 = via_wrapper();
  std::vector<double> direct(3 * n);
  simd::finalize_columns_avx2(la.data(), lb.data(), n, direct.data(),
                              direct.data() + n, direct.data() + 2 * n);
  EXPECT_EQ(avx2, direct);

  simd::force_backend(simd::Backend::kScalar);
  std::vector<double> scalar = via_wrapper();
  for (std::size_t j = 0; j < n; ++j) {
    kernels::ColumnStats s = kernels::finalize_column(la[j], lb[j]);
    EXPECT_EQ(scalar[j], s.posterior) << "j=" << j;
    EXPECT_EQ(scalar[n + j], s.log_odds) << "j=" << j;
    EXPECT_EQ(scalar[2 * n + j], s.log_likelihood) << "j=" << j;
  }
  // The polynomial exp/log1p must differ from libm somewhere in these
  // inputs, or the two checks above could not tell the arms apart.
  EXPECT_NE(avx2, scalar);
}

// ---------------------------------------------------------------------
// Batch epilogues.
// ---------------------------------------------------------------------

TEST(SimdKernels, FinalizeColumnsMatchesScalarIncludingDegenerates) {
  SKIP_WITHOUT_AVX2();
  Rng rng(408);
  const std::size_t n = 103;
  std::vector<double> la(n), lb(n);
  for (std::size_t j = 0; j < n; ++j) {
    la[j] = rng.uniform(-40.0, 10.0);
    lb[j] = rng.uniform(-40.0, 10.0);
  }
  // Degenerate lanes: the vector path must detect them and delegate the
  // whole 4-lane block to the scalar finalize_column (exact semantics).
  la[5] = -kInf;                     // impossible-under-true column
  lb[9] = -kInf;                     // impossible-under-false column
  la[12] = lb[12] = -kInf;           // contradiction column
  la[17] = kInf;                     // saturated (not produced in
  lb[21] = std::nan("");             //  practice, still exact)
  la[40] = 700.0;                    // large-|d| saturation lanes stay
  lb[41] = 700.0;                    //  on the vector path

  std::vector<double> ref_post(n), ref_odds(n), ref_ll(n);
  for (std::size_t j = 0; j < n; ++j) {
    kernels::ColumnStats s = kernels::finalize_column(la[j], lb[j]);
    ref_post[j] = s.posterior;
    ref_odds[j] = s.log_odds;
    ref_ll[j] = s.log_likelihood;
  }
  std::vector<double> post(n), odds(n), ll(n);
  simd::finalize_columns_avx2(la.data(), lb.data(), n, post.data(),
                              odds.data(), ll.data());
  for (std::size_t j = 0; j < n; ++j) {
    std::string tag = "finalize_columns j=" + std::to_string(j);
    expect_close(ref_post[j], post[j], kEpilogueUlp, tag + " posterior");
    expect_close(ref_odds[j], odds[j], kEpilogueUlp, tag + " log_odds");
    expect_close(ref_ll[j], ll[j], kEpilogueUlp, tag + " ll");
  }

  // Short tails (n = 0..7) run the scalar epilogue inside the vector
  // entry point: bitwise.
  for (std::size_t tail = 0; tail <= 7; ++tail) {
    std::vector<double> tp(tail), to(tail), tl(tail);
    simd::finalize_columns_avx2(la.data(), lb.data(), tail, tp.data(),
                                to.data(), tl.data());
    for (std::size_t j = 0; j + 4 <= tail; ++j) {
      // vector lanes: ULP
      expect_close(ref_post[j], tp[j], kEpilogueUlp, "tail posterior");
    }
    for (std::size_t j = tail - (tail % 4); j < tail; ++j) {
      EXPECT_EQ(ref_post[j], tp[j]) << "tail j=" << j;
      EXPECT_EQ(ref_odds[j], to[j]) << "tail j=" << j;
      EXPECT_EQ(ref_ll[j], tl[j]) << "tail j=" << j;
    }
  }
}

TEST(SimdKernels, FinalizeColumnsHonorsElementwiseAliasing) {
  SKIP_WITHOUT_AVX2();
  // Exactly the fused E-step's calling convention: log_odds aliases la
  // and column_ll aliases lb. Same backend, same inputs — the aliased
  // run must be bitwise identical to the non-aliased one.
  test_support::ScopedBackend pin(simd::Backend::kAvx2);
  Rng rng(410);
  const std::size_t n = 37;
  std::vector<double> la(n), lb(n);
  for (std::size_t j = 0; j < n; ++j) {
    la[j] = rng.uniform(-30.0, 5.0);
    lb[j] = rng.uniform(-30.0, 5.0);
  }
  std::vector<double> post(n), odds(n), ll(n);
  kernels::finalize_columns(la.data(), lb.data(), n, post.data(),
                            odds.data(), ll.data());
  std::vector<double> a_post(n), a_la = la, a_lb = lb;
  kernels::finalize_columns(a_la.data(), a_lb.data(), n, a_post.data(),
                            a_la.data(), a_lb.data());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(post[j], a_post[j]) << "posterior j=" << j;
    EXPECT_EQ(odds[j], a_la[j]) << "log_odds j=" << j;
    EXPECT_EQ(ll[j], a_lb[j]) << "column_ll j=" << j;
  }
}

// ---------------------------------------------------------------------
// Table builds (polynomial transcendentals).
// ---------------------------------------------------------------------

TEST(SimdKernels, ExtLogTableBuildMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  Rng rng(411);
  const std::size_t n = 37;
  std::vector<double> a(n), b(n), f(n), g(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(0.02, 0.98);
    b[i] = rng.uniform(0.02, 0.98);
    f[i] = rng.uniform(0.02, 0.98);
    g[i] = rng.uniform(0.02, 0.98);
  }
  // Cancellation row: f == a makes exposed_silent.t collapse to ~0.
  f[4] = a[4];
  // Degenerate row: rates outside (0,1) must take the scalar-fallback
  // row inside the vector build (bitwise agreement with scalar).
  a[10] = 0.0;
  b[10] = 1.0;
  auto rates = [&](std::size_t i) {
    return std::array<double, 4>{a[i], b[i], f[i], g[i]};
  };

  kernels::ExtLogTable scalar_table;
  {
    test_support::ScopedBackend pin(simd::Backend::kScalar);
    scalar_table.build(n, 0.37, rates);
  }
  kernels::ExtLogTable avx2_table;
  {
    test_support::ScopedBackend pin(simd::Backend::kAvx2);
    avx2_table.build(n, 0.37, rates);
  }

  expect_close(scalar_table.base().t, avx2_table.base().t, kTableUlp,
               "ext base.t");
  expect_close(scalar_table.base().f, avx2_table.base().f, kTableUlp,
               "ext base.f");
  EXPECT_EQ(scalar_table.log_z(), avx2_table.log_z());
  EXPECT_EQ(scalar_table.log_1mz(), avx2_table.log_1mz());
  for (std::size_t i = 0; i < n; ++i) {
    std::string tag = "ext i=" + std::to_string(i);
    expect_close(scalar_table.exposed_silent()[i].t,
                 avx2_table.exposed_silent()[i].t, kTableUlp, tag + " es.t");
    expect_close(scalar_table.exposed_silent()[i].f,
                 avx2_table.exposed_silent()[i].f, kTableUlp, tag + " es.f");
    expect_close(scalar_table.claim_indep()[i].t,
                 avx2_table.claim_indep()[i].t, kTableUlp, tag + " ci.t");
    expect_close(scalar_table.claim_indep()[i].f,
                 avx2_table.claim_indep()[i].f, kTableUlp, tag + " ci.f");
    expect_close(scalar_table.claim_dep()[i].t,
                 avx2_table.claim_dep()[i].t, kTableUlp, tag + " cd.t");
    expect_close(scalar_table.claim_dep()[i].f,
                 avx2_table.claim_dep()[i].f, kTableUlp, tag + " cd.f");
  }
  // The degenerate row went through libm in both builds: bitwise.
  EXPECT_EQ(scalar_table.claim_indep()[10].t,
            avx2_table.claim_indep()[10].t);
  EXPECT_EQ(scalar_table.claim_indep()[10].f,
            avx2_table.claim_indep()[10].f);
}

// ---------------------------------------------------------------------
// The dispatch override is load-bearing: forcing scalar on an AVX2
// host must reproduce the pre-SIMD golden bits (the same constants
// tests/test_kernels.cpp locks; re-record both together if a model
// change ever invalidates them).
// ---------------------------------------------------------------------

TEST(ScalarPin, ForcedScalarReproducesPreSimdGoldens) {
  test_support::ScopedBackend pin(simd::Backend::kScalar);
  EXPECT_EQ(golden::golden_em_ext_vote(2), 0xbb95d36ec28d1561ull);
  EXPECT_EQ(golden::golden_gibbs(1), 0xa309c27c21274f87ull);
  EXPECT_EQ(golden::golden_truth_finder(), 0xf4bd952366a0c2b7ull);
  EXPECT_EQ(golden::golden_average_log(), 0x4b590fc19df3a427ull);
}

// ---------------------------------------------------------------------
// End-to-end: the backends must agree at estimator level, not just per
// kernel. (test_perf_smoke.cpp bounds the Kirkuk-scale E-step, table
// and EM-Ext divergence; these are the decision-level forms.)
// ---------------------------------------------------------------------

// Beliefs of every EM path under one pinned backend: EM-Ext, its two
// baseline views (EM-Social, EM (IPSN'12)), and StreamingEmExt over the
// golden_streaming batches, concatenated.
std::vector<std::vector<double>> em_path_beliefs(simd::Backend backend) {
  test_support::ScopedBackend pin(backend);
  Dataset d = golden::golden_dataset(101, 120, 300);
  std::vector<std::vector<double>> out;
  out.push_back(EmExtEstimator().run(d, 5).belief);
  out.push_back(EmSocialEstimator().run(d, 1).belief);
  out.push_back(EmIpsn12Estimator().run(d, 1).belief);
  StreamingEmExt stream(100);
  std::vector<double> streamed;
  for (std::uint64_t seed : {201u, 202u, 203u}) {
    StreamingBatchResult r =
        stream.observe(golden::golden_dataset(seed, 100, 150));
    streamed.insert(streamed.end(), r.belief.begin(), r.belief.end());
  }
  out.push_back(std::move(streamed));
  return out;
}

TEST(BackendAgreement, EmExtBeliefsAgreeAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  const char* const paths[] = {"EM-Ext", "EM-Social", "EM",
                               "StreamingEmExt"};
  std::vector<std::vector<double>> scalar_b =
      em_path_beliefs(simd::Backend::kScalar);
  std::vector<std::vector<double>> avx2_b =
      em_path_beliefs(simd::Backend::kAvx2);
  for (std::size_t p = 0; p < scalar_b.size(); ++p) {
    ASSERT_EQ(scalar_b[p].size(), avx2_b[p].size()) << paths[p];
    double max_diff = 0.0;
    for (std::size_t j = 0; j < scalar_b[p].size(); ++j) {
      max_diff = std::max(max_diff, std::abs(scalar_b[p][j] - avx2_b[p][j]));
      EXPECT_EQ(scalar_b[p][j] > 0.5, avx2_b[p][j] > 0.5)
          << paths[p] << " assertion " << j;
    }
    // ULP-level kernel divergence may compound over EM iterations but
    // stays far below any decision threshold the estimators use.
    EXPECT_LT(max_diff, 1e-6) << paths[p];
  }
}

// Fig. 11's nominations: at x1 with the figure's dataset seeds
// (1100 + i) and pipeline seed 42, every registered estimator's top 100
// lists the same assertions in the same order under both backends.
TEST(BackendAgreement, Fig11TopHundredAgreesAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  auto top_ids = [](simd::Backend backend, const std::string& name,
                    const Dataset& d) {
    test_support::ScopedBackend pin(backend);
    std::vector<std::uint32_t> ids;
    for (const RankedAssertion& ra :
         ApolloPipeline(name).analyze(d, 42).top(100)) {
      ids.push_back(ra.assertion);
    }
    return ids;
  };
  std::vector<TwitterScenario> scenarios = paper_scenarios();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    BuiltDataset built = make_twitter_dataset(scenarios[i], 1100 + i);
    for (const std::string& name : estimator_names()) {
      std::vector<std::uint32_t> scalar_top =
          top_ids(simd::Backend::kScalar, name, built.dataset);
      EXPECT_EQ(scalar_top.size(),
                std::min<std::size_t>(100, built.dataset.assertion_count()));
      EXPECT_EQ(scalar_top,
                top_ids(simd::Backend::kAvx2, name, built.dataset))
          << scenarios[i].name << " / " << name;
    }
  }
}

// The Gibbs full-state refresh: SweepWeightsTable's packed SoA sum
// (silent_base + masked deltas) against the AoS record walk it is
// derived from, across tail lengths and both all-false/all-true edge
// states.
TEST(SimdKernels, SweepWeightsTablePackedRefreshMatchesRecords) {
  SKIP_WITHOUT_AVX2();
  test_support::ScopedBackend pin(simd::Backend::kAvx2);
  Rng rng(511);
  for (std::size_t n : kLengths) {
    std::vector<double> pt(n);
    std::vector<double> pf(n);
    for (std::size_t i = 0; i < n; ++i) {
      pt[i] = rng.uniform(0.02, 0.98);
      pf[i] = rng.uniform(0.02, 0.98);
    }
    kernels::SweepWeightsTable table;
    table.build(pt, pf);
    ASSERT_EQ(table.size(), n);
    std::vector<std::vector<char>> states;
    states.emplace_back(n, char{0});
    states.emplace_back(n, char{1});
    std::vector<char> mixed(n);
    for (char& b : mixed) b = rng.uniform_u32(2) != 0 ? 1 : 0;
    states.push_back(std::move(mixed));
    for (const std::vector<char>& bits : states) {
      LogPair ref = kernels::sum_state_logs(bits, table.data());
      LogPair got = table.sum_state_logs(bits);
      std::string tag = "sweep_table n=" + std::to_string(n);
      expect_close(ref.t, got.t, kSumUlp, tag + " .t");
      expect_close(ref.f, got.f, kSumUlp, tag + " .f");
    }
  }
}

// The E-step gather pass: prior_columns over one table under AVX2
// against the scalar source-order walk, including ranges that start at
// an odd column. The gathers are scalar on every backend, so the walk
// is bitwise the same.
TEST(BackendAgreement, PriorColumnsMatchesScalarWalk) {
  SKIP_WITHOUT_AVX2();
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
  std::vector<double> sla(m), slb(m), vla(m), vlb(m);
  const std::size_t ranges[][2] = {{0, m}, {1, m}, {5, 6}, {2, 9}, {3, 10}};
  for (auto [begin, end] : ranges) {
    {
      test_support::ScopedBackend pin(simd::Backend::kScalar);
      table.prior_columns(begin, end, sla.data(), slb.data());
    }
    {
      test_support::ScopedBackend pin(simd::Backend::kAvx2);
      table.prior_columns(begin, end, vla.data(), vlb.data());
    }
    for (std::size_t j = begin; j < end; ++j) {
      std::string tag = "prior_columns [" + std::to_string(begin) + "," +
                        std::to_string(end) + ") j=" + std::to_string(j);
      expect_same_bits(sla[j], vla[j], tag + " la");
      expect_same_bits(slb[j], vlb[j], tag + " lb");
    }
  }
}

// ---------------------------------------------------------------------
// finalize_params: EXACT contract (bitwise, not ULP). The AVX2 M-step
// epilogue must reproduce the scalar loop for every input, including
// NaN/inf statistics and zero denominators — it is the one vector
// kernel allowed inside the golden-hash paths.

struct FinalizeCase {
  std::vector<double> stats6;   // n rows of 6 (SourceMStatsPacked layout)
  std::vector<double> params4;  // n rows of 4 (prev values, updated)
  double total_z;
  double total_y;
  double cells[4];
  double cmu[4];
};

FinalizeCase random_finalize_case(Rng& rng, std::size_t n,
                                  bool degenerate) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  FinalizeCase c;
  c.stats6.resize(6 * n);
  c.params4.resize(4 * n);
  for (double& x : c.stats6) x = rng.uniform(0.0, 40.0);
  for (double& x : c.params4) x = rng.uniform(0.01, 0.99);
  // The derived denominators total_z - ez / total_y - t1 go negative
  // for many random rows (ez, cnt ~ U(0, 40)), exercising the d > 0
  // keep-prev branch alongside the ordinary update path.
  c.total_z = rng.uniform(10.0, 30.0);
  c.total_y = rng.uniform(10.0, 30.0);
  for (int k = 0; k < 4; ++k) {
    double mu = rng.uniform(1e-4, 0.9);
    c.cells[k] = 8.0 / std::max(mu, 1e-9);
    c.cmu[k] = c.cells[k] * mu;
  }
  if (degenerate) {
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0:  // denom_a = total_z - ez == 0 + zero cells -> keep prev
          c.stats6[6 * i + 4] = c.total_z;
          break;
        case 1:  // NaN numerator -> sanitize to prev
          c.stats6[6 * i + 2] = kNan;
          break;
        case 2:  // inf exposed_count -> denom_g = inf (clamps to lo),
                 // denom_b = -inf (keeps prev)
          c.stats6[6 * i + 5] = kInf;
          break;
        case 3:  // inf numerator -> raw = inf, clamps to hi (no sanitize)
          c.stats6[6 * i + 1] = kInf;
          break;
        default:  // huge numerator vs tiny denom_a -> clamps to hi
          c.stats6[6 * i + 0] = 1e300;
          c.stats6[6 * i + 4] = c.total_z - 1e-6;
          break;
      }
    }
    // Degenerate cases exercise the cells == 0 (shrinkage off) corner.
    for (int k = 0; k < 4; ++k) {
      c.cells[k] = 0.0;
      c.cmu[k] = 0.0;
    }
  }
  return c;
}

TEST(BackendAgreement, FinalizeParamsBitwiseExact) {
  SKIP_WITHOUT_AVX2();
  Rng rng(0xf17a1u);
  const double lo = 1e-6;
  const double hi = 1.0 - 1e-6;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{7}, std::size_t{64},
                        std::size_t{129}}) {
    for (bool degenerate : {false, true}) {
      for (bool tie_fg : {false, true}) {
        FinalizeCase base = random_finalize_case(rng, n, degenerate);
        FinalizeCase scalar = base;
        FinalizeCase vec = base;
        double scalar_delta = 0.0;
        double vec_delta = 0.0;
        std::size_t scalar_sanitized;
        {
          test_support::ScopedBackend pin(simd::Backend::kScalar);
          scalar_sanitized = kernels::finalize_params(
              n, scalar.stats6.data(), scalar.total_z, scalar.total_y,
              scalar.cells, scalar.cmu, lo, hi, tie_fg,
              scalar.params4.data(), &scalar_delta);
        }
        std::size_t vec_sanitized = simd::finalize_params_avx2(
            n, vec.stats6.data(), vec.total_z, vec.total_y, vec.cells,
            vec.cmu, lo, hi, tie_fg, vec.params4.data(), &vec_delta);
        std::string tag = "n=" + std::to_string(n) +
                          (degenerate ? " degenerate" : "") +
                          (tie_fg ? " tie" : "");
        EXPECT_EQ(scalar_sanitized, vec_sanitized) << tag;
        expect_same_bits(scalar_delta, vec_delta, tag + " delta_max");
        for (std::size_t k = 0; k < 4 * n; ++k) {
          expect_same_bits(scalar.params4[k], vec.params4[k],
                           tag + " lane " + std::to_string(k));
        }
      }
    }
  }
}

TEST(BackendAgreement, FinalizeParamsDispatchIsExact) {
  // Through the kernels:: wrapper (which dispatches on the pinned
  // backend): scalar and AVX2 runs of the same case must agree
  // bitwise, so golden hashes cannot depend on the backend.
  SKIP_WITHOUT_AVX2();
  Rng rng(0xd15abu);
  FinalizeCase base = random_finalize_case(rng, 37, false);
  double lo = 1e-6, hi = 1.0 - 1e-6;
  FinalizeCase a = base, b = base;
  double da = 0.0, db = 0.0;
  std::size_t sa, sb;
  {
    test_support::ScopedBackend pin(simd::Backend::kScalar);
    sa = kernels::finalize_params(37, a.stats6.data(), a.total_z,
                                  a.total_y, a.cells, a.cmu, lo, hi, true,
                                  a.params4.data(), &da);
  }
  {
    test_support::ScopedBackend pin(simd::Backend::kAvx2);
    sb = kernels::finalize_params(37, b.stats6.data(), b.total_z,
                                  b.total_y, b.cells, b.cmu, lo, hi, true,
                                  b.params4.data(), &db);
  }
  EXPECT_EQ(sa, sb);
  expect_same_bits(da, db, "dispatch delta_max");
  for (std::size_t k = 0; k < a.params4.size(); ++k) {
    expect_same_bits(a.params4[k], b.params4[k],
                      "dispatch lane " + std::to_string(k));
  }
}

}  // namespace
