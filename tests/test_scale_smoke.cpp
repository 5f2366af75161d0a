// Gates of the million-source path (docs/MODEL.md §14, §16; ctest
// `scale_smoke`, label `scale-smoke`).
//
// One generated .ssd image (m = max(200, n/10), communities of 64-256
// members, seed 2016) backs the gates, which run in order in one
// process:
//  * open: the JSONL round trip keeps every claim, and the best of 5
//    .ssd opens beats one JSONL parse by >= 50x;
//  * EM identity: with max_iters = 10, under every backend the host
//    supports, EM-Ext through the materialized Dataset hashes equal to
//    ShardedEmEstimator on shards built straight off the view, and the
//    sharded run hashes equal on 1- and 8-worker pools;
//  * RSS: the process's peak RSS stays under SS_RSS_BUDGET_MB, when
//    that is set.
//
// n is 10^4 with SS_FAST=1 and 10^5 without. ctest runs the binary as
// one test with SS_FAST=1 and SS_RSS_BUDGET_MB=600; CI's scale-smoke
// job runs it directly at 10^5. The RSS gate reads the high-water mark
// of this process, so it comes last, after the image work.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>

#include "backend_guard.h"
#include "core/em_ext.h"
#include "core/sharded_em.h"
#include "data/io.h"
#include "data/shard.h"
#include "data/ssd.h"
#include "kernel_golden.h"
#include "simgen/scale_gen.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace ss;
namespace fs = std::filesystem;

// Best wall time of `work` over `reps` runs, in milliseconds.
double min_wall_ms(int reps, const std::function<void()>& work) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    work();
    best = std::min(best, timer.millis());
  }
  return best;
}

// Peak resident set size of this process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  double bytes = static_cast<double>(usage.ru_maxrss);
#else
  double bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;  // kB
#endif
  return bytes / (1024.0 * 1024.0);
}

std::uint64_t em_hash(const EmExtResult& r) {
  golden::Hash h;
  golden::hash_em_result(h, r);
  return h.value();
}

class ScaleSmoke : public ::testing::Test {
 protected:
  // Generates the image into a directory of this process's own, which
  // TearDownTestSuite removes whether the gates passed or failed.
  static void SetUpTestSuite() {
    const std::size_t sources = env_flag("SS_FAST", false) ? 10'000 : 100'000;
    dir_ = fs::temp_directory_path() /
           ("ss_scale_smoke." + std::to_string(::getpid()));
    fs::create_directories(dir_);
    ScaleKnobs knobs;
    knobs.sources = sources;
    knobs.assertions = std::max<std::size_t>(200, sources / 10);
    knobs.community_lo = 64;
    knobs.community_hi = 256;
    knobs.name = "scale-" + std::to_string(sources);
    ssd_path_ = (dir_ / (knobs.name + ".ssd")).string();
    generate_scale_ssd(knobs, 2016, ssd_path_);
    view_ = SsdView::open_or_throw(ssd_path_);
    dataset_ = view_.materialize();
    std::printf("image: %zu sources, %zu assertions, %zu claims\n",
                view_.source_count(), view_.assertion_count(),
                view_.claim_count());
  }

  static void TearDownTestSuite() {
    view_ = SsdView();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void SetUp() override {
    ASSERT_TRUE(view_.valid()) << "the scale image was not generated";
  }

  static inline fs::path dir_;
  static inline std::string ssd_path_;
  static inline SsdView view_;
  static inline Dataset dataset_;
  // Kept to the end of the suite, so the RSS gate sees the parsed copy
  // alive beside the image, the materialized dataset and the EM runs.
  static inline Dataset parsed_;
};

TEST_F(ScaleSmoke, SsdOpenBeatsJsonlParseFiftyfold) {
  const std::string jsonl_path = (dir_ / "image.jsonl").string();
  save_dataset_jsonl(dataset_, jsonl_path);
  double open_ms = min_wall_ms(5, [&] {
    SsdView again = SsdView::open_or_throw(ssd_path_);
    EXPECT_EQ(again.claim_count(), view_.claim_count());
  });
  WallTimer timer;
  parsed_ = load_dataset_jsonl(jsonl_path);
  double jsonl_ms = timer.millis();
  ASSERT_EQ(parsed_.claims.claim_count(), view_.claim_count())
      << "the JSONL round trip lost claims";
  double speedup = jsonl_ms / open_ms;
  std::printf("open %.3f ms vs JSONL parse %.1f ms (%.0fx)\n", open_ms,
              jsonl_ms, speedup);
  EXPECT_GE(speedup, 50.0);
}

// The Dataset entry shards the materialized dataset itself; the view
// entry takes shards built straight off the mapped image. Both, and the
// view entry at 1 and 8 workers, must return the same bytes (the
// tree-reduction and unit-dispatch determinism contract, §16).
TEST_F(ScaleSmoke, EmBitIdenticalAcrossEntryPointsAndPools) {
  ShardConfig shard_config;
  shard_config.pool = &global_pool();
  ShardedDataset sharded = ShardedDataset::build(view_, shard_config);
  sharded.check();
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (simd::Backend backend : test_support::available_backends()) {
    test_support::ScopedBackend pin(backend);
    const char* name = simd::backend_name(backend);
    EmExtConfig config;
    config.max_iters = 10;
    std::uint64_t dataset_hash =
        em_hash(EmExtEstimator(config).run_detailed(dataset_, 1));
    std::uint64_t view_hash =
        em_hash(ShardedEmEstimator(config).run_detailed(sharded, 1));
    config.pool = &pool1;
    std::uint64_t hash_t1 =
        em_hash(ShardedEmEstimator(config).run_detailed(sharded, 1));
    config.pool = &pool8;
    std::uint64_t hash_t8 =
        em_hash(ShardedEmEstimator(config).run_detailed(sharded, 1));
    EXPECT_EQ(dataset_hash, view_hash) << name << ": Dataset entry";
    EXPECT_EQ(hash_t1, view_hash) << name << ": 1-worker pool";
    EXPECT_EQ(hash_t8, view_hash) << name << ": 8-worker pool";
    std::printf("[%s] %zu shards, EM hash %016llx\n", name,
                sharded.shard_count(),
                static_cast<unsigned long long>(view_hash));
  }
}

TEST_F(ScaleSmoke, PeakRssWithinBudget) {
  const double rss_mb = peak_rss_mb();
  const double budget_mb =
      static_cast<double>(env_int("SS_RSS_BUDGET_MB", 0));
  if (budget_mb <= 0.0) {
    GTEST_SKIP() << "SS_RSS_BUDGET_MB is unset; peak RSS " << rss_mb
                 << " MB";
  }
  std::printf("peak RSS %.1f MB, budget %.0f MB\n", rss_mb, budget_mb);
  EXPECT_LE(rss_mb, budget_mb);
}

}  // namespace
