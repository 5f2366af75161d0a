// Connected-component sharding (src/data/shard.h) and the sharded
// inference engine (src/core/sharded_em.h).
//
// Two layers:
//   * partition properties — every assertion and source lands in
//     exactly one shard, component edges never cross shards, lists are
//     the flat views re-sliced (ShardedDataset::check plus direct
//     comparisons here);
//   * bit-identity — EmExtEstimator (which shards internally, auto cap)
//     and ShardedEmEstimator on any prebuilt layout return the same
//     bytes under every kernel backend the host supports, at one thread
//     and at several, for natural and forced-small shard caps, across a
//     checkpoint resumed through the other entry point, and when built
//     from an .ssd view instead of a Dataset; the sharded Gibbs bound
//     reproduces the Dataset bound bit for bit on the scalar backend.
//     Sharding is an execution strategy, never an approximation.
#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

#include "backend_guard.h"
#include "bounds/dataset_bound.h"
#include "core/em_ext.h"
#include "core/sharded_em.h"
#include "data/shard.h"
#include "data/ssd.h"
#include "kernel_golden.h"
#include "simgen/scale_gen.h"
#include "temp_dir.h"
#include "util/fault_inject.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

using golden::golden_dataset;
using golden::Hash;
using golden::hash_em_result;
using test_support::available_backends;
using test_support::ScopedBackend;

std::uint64_t hash_em_ext(const Dataset& d, const EmExtConfig& config,
                          std::uint64_t seed) {
  Hash h;
  hash_em_result(h, EmExtEstimator(config).run_detailed(d, seed));
  return h.value();
}

std::uint64_t hash_sharded_em(const ShardedDataset& sharded,
                              const EmExtConfig& config,
                              std::uint64_t seed) {
  Hash h;
  hash_em_result(h, ShardedEmEstimator(config).run_detailed(sharded, seed));
  return h.value();
}

TEST(Shard, PartitionPropertiesHoldAcrossConfigs) {
  Dataset d = golden_dataset(7, 90, 240);
  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                          std::size_t{32}, std::size_t{10000}}) {
    ShardedDataset sharded = ShardedDataset::build(d, {cap});
    sharded.check();  // throws std::logic_error naming any violation
    ASSERT_EQ(sharded.assertion_count(), d.assertion_count());
    ASSERT_EQ(sharded.source_count(), d.source_count());
    EXPECT_EQ(sharded.claim_count(), d.claims.to_claims().size());
    EXPECT_EQ(sharded.exposed_cell_count(),
              d.dependency.exposed_cell_count());
    EXPECT_EQ(sharded.truth(), d.truth);

    // Every assertion in exactly one shard, and its column lists are
    // exactly the flat views.
    std::size_t seen = 0;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      const DatasetShard& shard = sharded.shard(s);
      seen += shard.assertion_ids().size();
      for (std::size_t c = 0; c < shard.assertion_ids().size(); ++c) {
        std::uint32_t j = shard.assertion_ids()[c];
        EXPECT_EQ(sharded.shard_of_assertion(j), s);
        EXPECT_EQ(sharded.position_of_assertion(j), c);
        auto flat = d.claims.claimants_of(j);
        auto got = shard.claimants(c);
        ASSERT_EQ(got.size(), flat.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), flat.begin()));
        auto flat_exp = d.dependency.exposed_sources(j);
        auto got_exp = shard.exposed_sources(c);
        ASSERT_EQ(got_exp.size(), flat_exp.size());
        EXPECT_TRUE(
            std::equal(got_exp.begin(), got_exp.end(), flat_exp.begin()));
      }
    }
    EXPECT_EQ(seen, d.assertion_count());

    // No cross-shard dependency edge: every exposed source of a column
    // belongs to the column's shard.
    for (std::size_t j = 0; j < d.assertion_count(); ++j) {
      std::uint32_t s = sharded.shard_of_assertion(j);
      for (std::uint32_t i : sharded.exposed_sources(j)) {
        EXPECT_EQ(sharded.shard_of_source(i), s)
            << "exposure edge (" << i << "," << j << ") crosses shards";
      }
    }
  }
}

TEST(Shard, CapOneIsolatesComponentsCapHugeMergesAll) {
  Dataset d = golden_dataset(7, 90, 240);
  ShardedDataset fine = ShardedDataset::build(d, {1});
  ShardedDataset coarse = ShardedDataset::build(d, {d.assertion_count()});
  // cap=1: every component its own (possibly oversized) shard.
  EXPECT_EQ(fine.shard_count(), fine.component_count());
  // cap=m: everything packs into one shard.
  EXPECT_EQ(coarse.shard_count(), 1u);
  EXPECT_EQ(coarse.component_count(), fine.component_count());
}

TEST(Shard, SingleGiantComponent) {
  // One source claims every assertion: m columns, one component.
  std::vector<Claim> claims;
  std::size_t m = 50;
  for (std::size_t j = 0; j < m; ++j) {
    claims.push_back({0, static_cast<std::uint32_t>(j), 0.0});
    claims.push_back({static_cast<std::uint32_t>(1 + j % 9),
                      static_cast<std::uint32_t>(j), 1.0});
  }
  Dataset d;
  d.name = "giant";
  d.claims = SourceClaimMatrix(10, m, claims);
  d.dependency = DependencyIndicators::from_cells(10, m, {});
  d.validate();
  ShardedDataset sharded = ShardedDataset::build(d, {4});
  sharded.check();
  EXPECT_EQ(sharded.component_count(), 1u);
  EXPECT_EQ(sharded.shard_count(), 1u);  // cap never splits a component
  EXPECT_EQ(sharded.shard(0).assertion_ids().size(), m);
}

TEST(Shard, AllSingletonComponents) {
  // Source j claims assertion j and nothing else: m isolated columns.
  std::vector<Claim> claims;
  std::size_t m = 40;
  for (std::size_t j = 0; j < m; ++j) {
    claims.push_back({static_cast<std::uint32_t>(j),
                      static_cast<std::uint32_t>(j), 0.0});
  }
  Dataset d;
  d.name = "singletons";
  d.claims = SourceClaimMatrix(m, m, claims);
  d.dependency = DependencyIndicators::from_cells(m, m, {});
  d.validate();
  ShardedDataset fine = ShardedDataset::build(d, {1});
  fine.check();
  EXPECT_EQ(fine.component_count(), m);
  EXPECT_EQ(fine.shard_count(), m);
  ShardedDataset packed = ShardedDataset::build(d, {8});
  packed.check();
  EXPECT_EQ(packed.shard_count(), (m + 7) / 8);
}

TEST(Shard, BuildFromSsdViewMatchesBuildFromDataset) {
  Dataset d = golden_dataset(31, 80, 200);
  test::TempDir tmp("shard_equiv");
  std::string path = tmp.file("shard_equiv.ssd");
  write_ssd(d, path);
  SsdView view = SsdView::open_or_throw(path);
  ShardedDataset from_view = ShardedDataset::build(view, {16});
  ShardedDataset from_dataset = ShardedDataset::build(d, {16});
  from_view.check();
  ASSERT_EQ(from_view.shard_count(), from_dataset.shard_count());
  for (std::size_t s = 0; s < from_view.shard_count(); ++s) {
    const DatasetShard& a = from_view.shard(s);
    const DatasetShard& b = from_dataset.shard(s);
    ASSERT_EQ(a.assertion_ids().size(), b.assertion_ids().size());
    EXPECT_TRUE(std::equal(a.assertion_ids().begin(),
                           a.assertion_ids().end(),
                           b.assertion_ids().begin()));
    EXPECT_TRUE(std::equal(a.source_ids().begin(), a.source_ids().end(),
                           b.source_ids().begin()));
  }
  // Same inference, bit for bit.
  ScopedBackend guard(simd::Backend::kScalar);
  EmExtConfig config;
  EXPECT_EQ(hash_sharded_em(from_view, config, 5),
            hash_sharded_em(from_dataset, config, 5));
}

// The one-engine guarantee: EmExtEstimator == ShardedEmEstimator,
// bitwise, for every shard layout and pool size, under each backend
// (the AVX2 contract is per backend, not against scalar).
TEST(Shard, EmBitIdenticalAcrossEntryPoints) {
  Dataset d = golden_dataset(101, 120, 300);
  for (simd::Backend backend : available_backends()) {
    ScopedBackend guard(backend);
    std::uint64_t want = 0;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      ThreadPool pool(threads);
      EmExtConfig config;
      config.pool = &pool;
      std::uint64_t got = hash_em_ext(d, config, 5);
      if (threads == 1) want = got;
      EXPECT_EQ(got, want)
          << simd::backend_name(backend) << " threads=" << threads;
      for (std::size_t cap : {std::size_t{0}, std::size_t{1},
                              std::size_t{8}, std::size_t{64}}) {
        ShardedDataset sharded = ShardedDataset::build(d, {cap});
        EXPECT_EQ(hash_sharded_em(sharded, config, 5), want)
            << simd::backend_name(backend) << " threads=" << threads
            << " cap=" << cap;
      }
    }
  }
}

TEST(Shard, EmBitIdenticalUnderRandomRestarts) {
  Dataset d = golden_dataset(101, 120, 300);
  for (simd::Backend backend : available_backends()) {
    ScopedBackend guard(backend);
    std::uint64_t want = 0;
    {
      ThreadPool pool(1);
      EmExtConfig config;
      config.pool = &pool;
      config.init_kind = EmInit::kRandom;
      config.restarts = 3;
      want = hash_em_ext(d, config, 9);
    }
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(threads);
      EmExtConfig config;
      config.pool = &pool;
      config.init_kind = EmInit::kRandom;
      config.restarts = 3;
      for (std::size_t cap : {std::size_t{4}, std::size_t{8},
                              std::size_t{64}}) {
        ShardedDataset sharded = ShardedDataset::build(d, {cap});
        EXPECT_EQ(hash_sharded_em(sharded, config, 9), want)
            << simd::backend_name(backend) << " threads=" << threads
            << " cap=" << cap;
      }
    }
  }
}

// A checkpoint written through one entry point resumes through the
// other on a different shard layout: the fingerprint binds the dataset
// shape and config, never the layout.
TEST(Shard, CheckpointResumesAcrossEntryPoints) {
  Dataset d = golden_dataset(101, 120, 300);
  ShardedDataset cap8 = ShardedDataset::build(d, {8});
  test::TempDir tmp("shard_ckpt_interchange");
  std::string dir = tmp.path();
  for (simd::Backend backend : available_backends()) {
    ScopedBackend guard(backend);
    EmExtConfig config;
    config.init_kind = EmInit::kRandom;
    config.restarts = 4;
    config.max_iters = 40;
    std::uint64_t want = hash_em_ext(d, config, 7);
    EXPECT_EQ(hash_sharded_em(cap8, config, 7), want)
        << simd::backend_name(backend);

    EmExtConfig ckpt = config;
    ckpt.checkpoint_path = dir + "/em.ckpt";
    std::filesystem::remove(ckpt.checkpoint_path);
    {
      fault::FaultConfig fc;
      fc.seed = 41;
      fc.kill_after_units = 2;  // die after two attempts committed
      fault::ScopedFaultInjection inj(fc);
      EXPECT_THROW(EmExtEstimator(ckpt).run_detailed(d, 7),
                   fault::FaultInjectedError);
    }
    ASSERT_TRUE(std::filesystem::exists(ckpt.checkpoint_path));

    EmExtResult resumed = ShardedEmEstimator(ckpt).run_detailed(cap8, 7);
    EXPECT_GE(resumed.health.resumed_attempts, 2u)
        << simd::backend_name(backend);
    Hash h;
    hash_em_result(h, resumed);
    EXPECT_EQ(h.value(), want) << simd::backend_name(backend);
    EXPECT_FALSE(std::filesystem::exists(ckpt.checkpoint_path));
  }
}

TEST(Shard, PoolBuiltShardsMatchSerialBuild) {
  // First-touch parallel CSR fill (ShardConfig::pool) is a placement
  // strategy only: the shards must equal the serial build's, byte for
  // byte, for any pool size — and the inference run over them must
  // hash identically.
  ScopedBackend guard(simd::Backend::kScalar);
  Dataset d = golden_dataset(101, 120, 300);
  ShardConfig serial_cfg;
  serial_cfg.max_shard_assertions = 8;
  ShardedDataset serial = ShardedDataset::build(d, serial_cfg);
  EmExtConfig em;
  std::uint64_t want = hash_sharded_em(serial, em, 5);
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    ShardConfig cfg;
    cfg.max_shard_assertions = 8;
    cfg.pool = &pool;
    ShardedDataset built = ShardedDataset::build(d, cfg);
    built.check();
    ASSERT_EQ(built.shard_count(), serial.shard_count());
    for (std::size_t s = 0; s < built.shard_count(); ++s) {
      const DatasetShard& a = built.shard(s);
      const DatasetShard& b = serial.shard(s);
      ASSERT_EQ(a.claim_count(), b.claim_count()) << "shard " << s;
      ASSERT_EQ(a.exposed_count(), b.exposed_count()) << "shard " << s;
      for (std::size_t c = 0; c < a.assertion_ids().size(); ++c) {
        auto ca = a.claimants(c), cb = b.claimants(c);
        ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(),
                               cb.end()));
        auto fa = a.claimant_dependent(c), fb = b.claimant_dependent(c);
        ASSERT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin(),
                               fb.end()));
      }
      for (std::size_t p = 0; p < a.source_ids().size(); ++p) {
        auto da = a.dependent_claims(p), db = b.dependent_claims(p);
        ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(),
                               db.end()));
        auto ia = a.independent_claims(p), ib = b.independent_claims(p);
        ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(),
                               ib.end()));
      }
    }
    EXPECT_EQ(hash_sharded_em(built, em, 5), want)
        << "threads=" << threads;
  }
}

TEST(Shard, EmBitIdenticalOnGeneratedScaleData) {
  ScaleKnobs knobs;
  knobs.sources = 2000;
  knobs.assertions = 400;
  knobs.community_lo = 50;
  knobs.community_hi = 150;
  test::TempDir tmp("shard_scale");
  std::string path = tmp.file("shard_scale.ssd");
  generate_scale_ssd(knobs, 77, path);
  SsdView view = SsdView::open_or_throw(path);
  Dataset d = view.materialize();
  // The auto cap floors at 1024 columns, which would pack this small
  // instance into one shard; pin a small cap so the test exercises a
  // genuinely multi-shard layout.
  ShardedDataset sharded = ShardedDataset::build(view, {32});
  sharded.check();
  EXPECT_GT(sharded.shard_count(), 1u);
  for (simd::Backend backend : available_backends()) {
    ScopedBackend guard(backend);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(threads);
      EmExtConfig config;
      config.pool = &pool;
      EXPECT_EQ(hash_sharded_em(sharded, config, 5),
                hash_em_ext(d, config, 5))
          << simd::backend_name(backend) << " threads=" << threads;
    }
  }
}

TEST(Shard, GibbsBoundBitIdenticalToFlat) {
  ScopedBackend guard(simd::Backend::kScalar);
  Rng rng(7);
  SimInstance inst =
      generate_parametric(SimKnobs::paper_defaults(40, 120), rng);
  const Dataset& d = inst.dataset;
  const ModelParams& params = inst.true_params;
  GibbsBoundConfig config;
  config.chains = 2;
  config.max_sweeps = 400;
  DatasetBoundResult flat = gibbs_dataset_bound(d, params, 11, config);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    ShardedDataset sharded = ShardedDataset::build(d, {8});
    DatasetBoundResult got =
        gibbs_dataset_bound(sharded, params, 11, config, &pool);
    EXPECT_EQ(got.columns, flat.columns);
    EXPECT_EQ(got.distinct_patterns, flat.distinct_patterns);
    EXPECT_EQ(got.bound.error, flat.bound.error);
    EXPECT_EQ(got.bound.false_positive, flat.bound.false_positive);
    EXPECT_EQ(got.bound.false_negative, flat.bound.false_negative);
  }
}

TEST(Shard, DatasetBoundsRejectMismatchedParams) {
  Rng rng(7);
  SimInstance inst =
      generate_parametric(SimKnobs::paper_defaults(10, 30), rng);
  ModelParams wider = inst.true_params;
  wider.source.resize(30);
  ShardedDataset sharded = ShardedDataset::build(inst.dataset, {8});
  EXPECT_THROW(gibbs_dataset_bound(sharded, wider, 11),
               std::invalid_argument);
  EXPECT_THROW(gibbs_dataset_bound(inst.dataset, wider, 11),
               std::invalid_argument);
  EXPECT_THROW(exact_dataset_bound(inst.dataset, wider),
               std::invalid_argument);
}

}  // namespace
}  // namespace ss
