// Fault-injection suite (ctest label `faults`): every fault class the
// harness can produce — corrupt bytes, NaNs escaping an E-step, dropped
// thread-pool tasks, processes killed between checkpoint commits — must
// be repaired, skipped-and-reported, or resumed. Never an abort, never
// a NaN belief, and resumed runs must reproduce uninterrupted runs
// bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bounds/column_model.h"
#include "bounds/dataset_bound.h"
#include "bounds/gibbs_bound.h"
#include "core/em_ext.h"
#include "core/sharded_em.h"
#include "core/streaming_em.h"
#include "csr_check.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/shard.h"
#include "graph/digraph.h"
#include "kernel_golden.h"
#include "math/kernels.h"
#include "temp_dir.h"
#include "twitter/tweet_io.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// 5 sources x 4 assertions; source 4 neither claims nor is exposed to
// anything (degenerate), sources 1 and 2 each have one dependent claim.
Dataset tiny_dataset() {
  Dataset d;
  d.name = "faults-tiny";
  std::vector<Claim> claims = {
      {0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {1, 2, 1.0},
      {2, 1, 2.0}, {2, 3, 1.0}, {3, 2, 2.0}, {3, 3, 3.0},
  };
  d.claims = SourceClaimMatrix(5, 4, claims);
  d.dependency = DependencyIndicators::from_cells(5, 4, {{1, 0}, {2, 1}});
  d.truth = {Label::kTrue, Label::kFalse, Label::kTrue, Label::kFalse};
  return d;
}

// --- corrupt bytes ---------------------------------------------------

TEST(CorruptBytes, DeterministicAndLineLocal) {
  std::string text = "alpha,1,2.5\nbeta,2,3.5\ngamma,3,4.5\n";
  std::string a = fault::corrupt_bytes(text, 0.2, 99);
  std::string b = fault::corrupt_bytes(text, 0.2, 99);
  EXPECT_EQ(a, b);  // same seed, same damage
  EXPECT_NE(a, fault::corrupt_bytes(text, 0.2, 100));
  // Newlines survive, so corruption never merges records.
  auto lines = [](const std::string& s) {
    std::size_t n = 0;
    for (char c : s) n += c == '\n';
    return n;
  };
  EXPECT_EQ(lines(a), lines(text));
  EXPECT_EQ(fault::corrupt_bytes(text, 0.0, 99), text);  // rate 0 = identity
}

TEST(CorruptBytes, PermissiveIngestSurvivesCorruptedDataset) {
  test::TempDir tmp("faults_corrupt_dataset");
  const std::string dir = tmp.path();
  save_dataset(tiny_dataset(), dir);
  // Mangle every data file (meta.csv stays intact: its dimensions gate
  // all validation and are fatal in every mode by design).
  for (const char* file : {"claims.csv", "exposure.csv", "truth.csv"}) {
    std::string path = dir + "/" + file;
    std::string original = slurp(path);
    std::string damaged = fault::corrupt_bytes(original, 0.05, 4242);
    EXPECT_NE(damaged, original);
    spit(path, damaged);
  }
  IngestOptions opt;
  opt.mode = IngestMode::kPermissive;
  IngestReport report;
  Expected<Dataset> r = try_load_dataset(dir, opt, &report);
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  EXPECT_NO_THROW(r.value().validate());
  EXPECT_GT(report.rows_total, 0u);
  EXPECT_EQ(report.rows_ok + report.rows_repaired + report.rows_skipped,
            report.rows_total);
}

TEST(CorruptBytes, PermissiveIngestSurvivesCorruptedTweetStream) {
  test::TempDir tmp("faults_corrupt_tweets");
  const std::string dir = tmp.path();
  std::string path = dir + "/stream.jsonl";
  std::vector<Tweet> tweets;
  for (std::uint32_t i = 0; i < 50; ++i) {
    Tweet t;
    t.id = i;
    t.user = i % 7;
    t.time = 0.1 * i;
    t.text = "tweet number " + std::to_string(i);
    if (i % 5 == 4) t.parent = i - 1;
    tweets.push_back(t);
  }
  save_tweets(tweets, path);
  spit(path, fault::corrupt_bytes(slurp(path), 0.02, 777));
  IngestOptions opt;
  opt.mode = IngestMode::kRepair;
  IngestReport report;
  Expected<std::vector<Tweet>> r = try_load_tweets(path, opt, &report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(report.rows_ok + report.rows_repaired + report.rows_skipped,
            report.rows_total);
  for (const Tweet& t : r.value()) {
    EXPECT_TRUE(std::isfinite(t.time));
  }
}

// --- NaN injection into E-steps --------------------------------------

TEST(NanInjection, EmExtReseedsDivergedAttemptAndRecovers) {
  Dataset d = tiny_dataset();
  EmExtResult clean = EmExtEstimator(EmExtConfig{}).run_detailed(d, 5);
  ASSERT_TRUE(all_finite(clean.estimate.belief));
  EXPECT_EQ(clean.health.nonfinite_events, 0u);
  EXPECT_EQ(clean.health.degenerate_sources, 1u);  // source 4

  fault::FaultConfig fc;
  fc.seed = 21;
  fc.posterior_nan_rate = 1.0;
  fc.max_injections = 1;  // exactly one NaN, then clean
  fault::ScopedFaultInjection inj(fc);
  EmExtResult r = EmExtEstimator(EmExtConfig{}).run_detailed(d, 5);
  EXPECT_EQ(fault::injected_count(), 1u);
  EXPECT_EQ(r.health.nonfinite_events, 1u);
  EXPECT_EQ(r.health.reseeded_attempts, 1u);
  EXPECT_EQ(r.health.failed_attempts, 0u);
  ASSERT_TRUE(all_finite(r.estimate.belief));
  ASSERT_TRUE(all_finite(r.estimate.log_odds));
  EXPECT_TRUE(std::isfinite(r.log_likelihood));
}

TEST(NanInjection, EmExtExhaustedRetriesFallBackToFinitePrior) {
  Dataset d = tiny_dataset();
  fault::FaultConfig fc;
  fc.seed = 22;
  fc.posterior_nan_rate = 1.0;  // every E-step poisoned, forever
  fault::ScopedFaultInjection inj(fc);
  EmExtResult r = EmExtEstimator(EmExtConfig{}).run_detailed(d, 5);
  EXPECT_GE(r.health.failed_attempts, 1u);
  EXPECT_FALSE(r.estimate.converged);
  EXPECT_EQ(r.log_likelihood,
            -std::numeric_limits<double>::infinity());
  // The vote-prior fallback still ranks assertions by support — and
  // above all, nothing is NaN.
  ASSERT_TRUE(all_finite(r.estimate.belief));
  ASSERT_TRUE(all_finite(r.estimate.log_odds));
  for (double b : r.estimate.belief) {
    EXPECT_GE(b, 0.05);
    EXPECT_LE(b, 0.95);
  }
}

TEST(NanInjection, StreamingEmWithholdsPoisonedBatchStatistics) {
  Dataset batch = tiny_dataset();
  StreamingEmExt em(batch.source_count());
  StreamingBatchResult first = em.observe(batch);
  EXPECT_TRUE(first.stats_committed);
  EXPECT_EQ(first.sanitized_beliefs, 0u);
  double z_before = em.params().z;

  {
    fault::FaultConfig fc;
    fc.seed = 23;
    fc.posterior_nan_rate = 1.0;
    fault::ScopedFaultInjection inj(fc);
    StreamingBatchResult poisoned = em.observe(batch);
    EXPECT_FALSE(poisoned.stats_committed);
    EXPECT_GE(poisoned.sanitized_beliefs, 1u);
    ASSERT_TRUE(all_finite(poisoned.belief));
    ASSERT_TRUE(all_finite(poisoned.log_odds));
    EXPECT_TRUE(std::isfinite(poisoned.log_likelihood));
    // The first inner E-step was poisoned, so theta never moved.
    EXPECT_EQ(em.params().z, z_before);
    EXPECT_EQ(em.skipped_batches(), 1u);
  }

  StreamingBatchResult healthy = em.observe(batch);
  EXPECT_TRUE(healthy.stats_committed);
  EXPECT_EQ(healthy.sanitized_beliefs, 0u);
  EXPECT_EQ(em.skipped_batches(), 1u);
  EXPECT_EQ(em.batches_seen(), 3u);
}

// --- degenerate Gibbs models -----------------------------------------

TEST(GibbsGuards, DegenerateProbabilitiesClampedNotNaN) {
  ColumnModel model;
  model.p_claim_true = {1.0, 0.6, 0.0};  // would make rest = -inf - -inf
  model.p_claim_false = {0.0, 0.3, 0.5};
  model.z = 0.4;
  GibbsBoundConfig config;
  config.burn_in_sweeps = 10;
  config.min_sweeps = 50;
  config.max_sweeps = 500;
  GibbsBoundResult r = gibbs_bound(model, 3, config);
  EXPECT_EQ(r.clamped_probabilities, 3u);
  EXPECT_TRUE(std::isfinite(r.bound.error));
  EXPECT_GE(r.bound.error, 0.0);
  EXPECT_LE(r.bound.error, 1.0);
  EXPECT_EQ(r.nonfinite_sweeps, 0u);  // the entry clamp was enough
}

TEST(GibbsGuards, CleanModelIsNotPerturbed) {
  ColumnModel model;
  model.p_claim_true = {0.8, 0.6, 0.7};
  model.p_claim_false = {0.2, 0.3, 0.25};
  model.z = 0.5;
  GibbsBoundConfig config;
  config.burn_in_sweeps = 10;
  config.min_sweeps = 50;
  config.max_sweeps = 500;
  GibbsBoundResult r = gibbs_bound(model, 3, config);
  EXPECT_EQ(r.clamped_probabilities, 0u);
  EXPECT_EQ(r.nonfinite_sweeps, 0u);
}

// --- dropped thread-pool tasks ---------------------------------------

TEST(TaskDrop, SurfacesAsFaultInjectedErrorAndPoolSurvives) {
  ThreadPool pool(4);
  std::vector<double> out(1000, 0.0);
  auto body = [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<double>(i);
    }
  };
  {
    fault::FaultConfig fc;
    fc.seed = 31;
    fc.task_drop_rate = 1.0;
    fc.max_injections = 1;
    fault::ScopedFaultInjection inj(fc);
    EXPECT_THROW(pool.parallel_for_chunks(out.size(), 64, body),
                 fault::FaultInjectedError);
  }
  // Disarmed, the same pool still works and no chunk is lost.
  std::fill(out.begin(), out.end(), 0.0);
  pool.parallel_for_chunks(out.size(), 64, body);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i));
  }
}

// Every id and CSR list of every shard, length-prefixed, in shard order.
std::vector<std::uint32_t> shard_words(const ShardedDataset& sharded) {
  std::vector<std::uint32_t> out;
  auto put = [&out](auto list) {
    out.push_back(static_cast<std::uint32_t>(list.size()));
    for (auto v : list) out.push_back(static_cast<std::uint32_t>(v));
  };
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const DatasetShard& sh = sharded.shard(s);
    put(sh.assertion_ids());
    put(sh.source_ids());
    for (std::size_t c = 0; c < sh.assertion_ids().size(); ++c) {
      put(sh.claimants(c));
      put(sh.claimant_dependent(c));
      put(sh.exposed_sources(c));
    }
    for (std::size_t p = 0; p < sh.source_ids().size(); ++p) {
      put(sh.dependent_claims(p));
      put(sh.independent_claims(p));
      put(sh.exposed_assertions(p));
    }
  }
  return out;
}

// Six independent 20 x 30 parametric blocks side by side: six
// components, so a shard cap of 8 columns gives six shards.
Dataset block_dataset() {
  constexpr std::uint32_t kBlocks = 6, kN = 20, kM = 30;
  std::vector<Claim> claims;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  Dataset d;
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    Dataset part = golden::golden_dataset(200 + b, kN, kM);
    for (const Claim& c : part.claims.to_claims()) {
      claims.push_back({c.source + b * kN, c.assertion + b * kM, c.time});
    }
    for (std::uint32_t i = 0; i < kN; ++i) {
      for (std::uint32_t j : part.dependency.exposed_assertions(i)) {
        cells.emplace_back(i + b * kN, j + b * kM);
      }
    }
    d.truth.insert(d.truth.end(), part.truth.begin(), part.truth.end());
  }
  d.claims = SourceClaimMatrix(kBlocks * kN, kBlocks * kM, claims);
  d.dependency =
      DependencyIndicators::from_cells(kBlocks * kN, kBlocks * kM, cells);
  return d;
}

fault::FaultConfig drop_one_task() {
  fault::FaultConfig fc;
  fc.seed = 31;
  fc.task_drop_rate = 1.0;
  fc.max_injections = 1;
  return fc;
}

// The shard engine hands its work units to the pool; a dropped unit
// fails the fit, and the same pool then reproduces the reference fit.
TEST(TaskDrop, ShardEngineUnitDropThrowsAndRerunMatches) {
  Dataset d = block_dataset();
  ShardedDataset sharded = ShardedDataset::build(d, {8});
  ASSERT_GT(sharded.shard_count(), 1u);
  ThreadPool pool(4);
  EmExtConfig config;
  config.pool = &pool;
  ShardedEmEstimator em(config);
  golden::Hash want;
  golden::hash_em_result(want, em.run_detailed(sharded, 5));
  {
    fault::ScopedFaultInjection inj(drop_one_task());
    EXPECT_THROW(em.run_detailed(sharded, 5), fault::FaultInjectedError);
  }
  golden::Hash got;
  golden::hash_em_result(got, em.run_detailed(sharded, 5));
  EXPECT_EQ(got.value(), want.value());
}

// The pooled CSR fill runs one shard per task; a dropped shard fails
// the build, and a rebuild on the same pool equals the serial build.
TEST(TaskDrop, PooledShardFillDropThrowsAndRebuildMatches) {
  Dataset d = block_dataset();
  ShardedDataset serial = ShardedDataset::build(d, {8});
  ASSERT_GT(serial.shard_count(), 1u);
  ThreadPool pool(4);
  {
    fault::ScopedFaultInjection inj(drop_one_task());
    EXPECT_THROW(ShardedDataset::build(d, {8, &pool}),
                 fault::FaultInjectedError);
  }
  ShardedDataset rebuilt = ShardedDataset::build(d, {8, &pool});
  rebuilt.check();
  EXPECT_TRUE(shard_words(rebuilt) == shard_words(serial));
}

// A streaming batch whose pool task is dropped throws, and must leave
// the stream exactly as it was: the save_state bytes are unchanged, and
// once the injection is disarmed, retrying the batch and observing one
// more reproduces an uninterrupted stream bit for bit. The universe is
// larger than one kernels::kSourceChunk and the pool has 4 workers, so
// every per-source pass goes through parallel_for_chunks and the one
// drop lands in a different pass from seed to seed.
TEST(TaskDrop, StreamingBatchThatThrowsLeavesStreamUntouched) {
  constexpr std::size_t kSources = 6000;
  constexpr std::size_t kAssertions = 40;
  static_assert(kSources > kernels::kSourceChunk);
  Rng rng(41);
  Digraph follows(kSources);
  for (std::size_t u = 0; u < kSources; ++u) {
    for (int e = 0; e < 3; ++e) follows.add_edge(u, rng.uniform_u32(kSources));
  }
  std::vector<Dataset> batches(3);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::vector<Claim> claims;
    for (int k = 0; k < 300; ++k) {
      std::size_t source = (b * 900 + rng.uniform_u32(2400)) % kSources;
      claims.push_back({static_cast<std::uint32_t>(source),
                        rng.uniform_u32(kAssertions),
                        rng.uniform(0.0, 10.0)});
    }
    batches[b].claims = SourceClaimMatrix(kSources, kAssertions, claims);
    batches[b].dependency =
        DependencyIndicators::from_graph(batches[b].claims, follows);
  }
  ThreadPool pool(4);
  StreamingEmConfig config;
  config.pool = &pool;
  auto state = [](const StreamingEmExt& em) {
    BinWriter writer;
    em.save_state(writer);
    return writer.take();
  };

  StreamingEmExt reference(kSources, config);
  std::vector<std::vector<double>> want;
  for (const Dataset& batch : batches) {
    want.push_back(reference.observe(batch).belief);
  }
  const std::string want_state = state(reference);

  std::size_t thrown = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    StreamingEmExt em(kSources, config);
    ASSERT_EQ(em.observe(batches[0]).belief, want[0]);
    const std::string before = state(em);
    std::vector<double> belief;
    bool threw = false;
    {
      fault::FaultConfig fc;
      fc.seed = seed;
      fc.task_drop_rate = 0.05;
      fc.max_injections = 1;
      fault::ScopedFaultInjection inj(fc);
      try {
        belief = em.observe(batches[1]).belief;
      } catch (const fault::FaultInjectedError&) {
        threw = true;
      }
    }
    if (threw) {
      ++thrown;
      // Compared as a bool: a failing diff of the raw bytes is unreadable.
      EXPECT_TRUE(state(em) == before) << "seed " << seed;
      EXPECT_EQ(em.batches_seen(), 1u) << "seed " << seed;
      belief = em.observe(batches[1]).belief;
    }
    EXPECT_EQ(belief, want[1]) << "seed " << seed;
    EXPECT_EQ(em.observe(batches[2]).belief, want[2]) << "seed " << seed;
    EXPECT_TRUE(state(em) == want_state) << "seed " << seed;
  }
  EXPECT_GE(thrown, 10u);
}

// --- checkpoint/resume ------------------------------------------------

TEST(Checkpoint, BinRoundtripIsBitExact) {
  BinWriter w;
  w.u8(7);
  w.u64(0xdeadbeefcafe1234ull);
  w.f64(-0.0);
  w.vec_f64({1.5, -2.25, 1e-300});
  w.str("payload");
  std::string bytes = w.take();
  BinReader rd(bytes);
  EXPECT_EQ(rd.u8(), 7u);
  EXPECT_EQ(rd.u64(), 0xdeadbeefcafe1234ull);
  double neg_zero = rd.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(rd.vec_f64(), (std::vector<double>{1.5, -2.25, 1e-300}));
  EXPECT_EQ(rd.str(), "payload");
  EXPECT_TRUE(rd.done());
}

TEST(Checkpoint, StoreIgnoresMismatchedOrCorruptFiles) {
  test::TempDir tmp("faults_store");
  const std::string dir = tmp.path();
  std::string path = dir + "/store.ckpt";
  {
    CheckpointStore store(path, 7, 42, 3);
    EXPECT_FALSE(store.recovered_corrupt());
    store.commit(0, "alpha");
    store.commit(2, "gamma");
    EXPECT_EQ(store.completed(), 2u);
  }
  {
    CheckpointStore again(path, 7, 42, 3);
    EXPECT_FALSE(again.recovered_corrupt());
    EXPECT_EQ(again.completed(), 2u);
    ASSERT_TRUE(again.has(2));
    EXPECT_EQ(again.payload(2), "gamma");
    EXPECT_FALSE(again.has(1));
  }
  {
    // Fingerprint mismatch: stale checkpoint from a different run.
    CheckpointStore stale(path, 7, 43, 3);
    EXPECT_TRUE(stale.recovered_corrupt());
    EXPECT_EQ(stale.completed(), 0u);
  }
  {
    // Truncated file: torn write or disk damage.
    std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() / 2));
    CheckpointStore hurt(path, 7, 42, 3);
    EXPECT_TRUE(hurt.recovered_corrupt());
    EXPECT_EQ(hurt.completed(), 0u);
  }
}

// --- sealed snapshots (src/sim crash/resume substrate) ----------------

constexpr std::uint64_t kGoldenKind = 7001;
constexpr std::uint64_t kGoldenFingerprint = 424242;

std::string checkpoint_fixture(const std::string& name) {
  return std::string(SS_FIXTURE_DIR) + "/corrupt/checkpoint/" + name;
}

TEST(Snapshot, WriteReadRoundTripsPayloadExactly) {
  test::TempDir tmp("faults_snapshot_roundtrip");
  const std::string dir = tmp.path();
  std::string path = dir + "/state.snap";
  std::string payload("blob with NUL \0 inside", 22);
  write_snapshot(path, 9, 77, payload);
  Expected<std::string> r = read_snapshot(path, 9, 77);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value(), payload);
  // Wrong identity is a located classified error, not a fatal one.
  Expected<std::string> foreign = read_snapshot(path, 10, 77);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.error().code, ErrorCode::kCheckpointCorrupt);
  EXPECT_THROW(read_snapshot_or_throw(path, 9, 78), TaxonomyError);
}

TEST(Snapshot, GoldenFixturesClassifyEveryDefect) {
  Expected<std::string> ok = read_snapshot(
      checkpoint_fixture("valid.snap"), kGoldenKind, kGoldenFingerprint);
  ASSERT_TRUE(ok.ok()) << ok.error().message;
  EXPECT_EQ(ok.value(), "golden checkpoint payload v1");

  struct GoldenCase {
    const char* file;
    const char* why;   // classification substring
    const char* site;  // located byte offset
  };
  const GoldenCase cases[] = {
      {"truncated.snap", "truncated header", "at byte 20"},
      {"bad_magic.snap", "bad magic", "at byte 0"},
      {"wrong_kind.snap", "kind mismatch", "at byte 8"},
      {"stale_fingerprint.snap", "fingerprint mismatch", "at byte 16"},
      {"bad_length.snap", "payload declares 33", "at byte 32"},
      {"bad_checksum.snap", "checksum mismatch", "at byte 60"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.file);
    Expected<std::string> r = read_snapshot(
        checkpoint_fixture(c.file), kGoldenKind, kGoldenFingerprint);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kCheckpointCorrupt);
    EXPECT_NE(r.error().message.find(c.why), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find(c.site), std::string::npos)
        << r.error().message;
  }

  Expected<std::string> missing = read_snapshot(
      checkpoint_fixture("does_not_exist.snap"), kGoldenKind,
      kGoldenFingerprint);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kIoError);
}

TEST(Snapshot, TruncationAtEveryByteIsAClassifiedError) {
  std::string golden = slurp(checkpoint_fixture("valid.snap"));
  ASSERT_EQ(golden.size(), 68u);
  test::TempDir tmp("faults_snapshot_truncate");
  const std::string dir = tmp.path();
  std::string path = dir + "/cut.snap";
  for (std::size_t cut = 0; cut < golden.size(); ++cut) {
    spit(path, golden.substr(0, cut));
    Expected<std::string> r =
        read_snapshot(path, kGoldenKind, kGoldenFingerprint);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.error().code, ErrorCode::kCheckpointCorrupt);
    EXPECT_NE(r.error().message.find("at byte"), std::string::npos)
        << r.error().message;
  }
}

TEST(Snapshot, ByteFlipAtEveryPositionIsAClassifiedError) {
  std::string golden = slurp(checkpoint_fixture("valid.snap"));
  test::TempDir tmp("faults_snapshot_flip");
  const std::string dir = tmp.path();
  std::string path = dir + "/flipped.snap";
  for (std::size_t at = 0; at < golden.size(); ++at) {
    std::string damaged = golden;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    spit(path, damaged);
    Expected<std::string> r =
        read_snapshot(path, kGoldenKind, kGoldenFingerprint);
    ASSERT_FALSE(r.ok()) << "flip at " << at;
    EXPECT_EQ(r.error().code, ErrorCode::kCheckpointCorrupt)
        << "flip at " << at;
  }
}

// The dataset loaders get the same torture: each byte of a small saved
// dataset, meta.csv included, XOR 0x40. Every variant must load as a
// classified error or as a Dataset that validates and has well-formed
// CSR lists — in strict and in permissive mode.
TEST(CorruptBytes, DatasetByteFlipAtEveryPositionIsClassifiedOrWellFormed) {
  test::TempDir tmp("faults_dataset_flip");
  const std::string dir = tmp.path();
  save_dataset(tiny_dataset(), dir);
  std::size_t loaded = 0;
  for (const char* file :
       {"meta.csv", "claims.csv", "exposure.csv", "truth.csv"}) {
    const std::string path = dir + "/" + file;
    const std::string golden = slurp(path);
    for (std::size_t at = 0; at < golden.size(); ++at) {
      std::string damaged = golden;
      damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
      spit(path, damaged);
      for (IngestMode mode : {IngestMode::kStrict, IngestMode::kPermissive}) {
        const bool strict = mode == IngestMode::kStrict;
        SCOPED_TRACE(std::string(file) + " flip at " + std::to_string(at) +
                     (strict ? " strict" : " permissive"));
        IngestOptions opt;
        opt.mode = mode;
        Expected<Dataset> r = try_load_dataset(dir, opt);
        if (!r.ok()) {
          EXPECT_NE(r.error().code, ErrorCode::kOk);
          EXPECT_FALSE(r.error().message.empty());
          continue;
        }
        ++loaded;
        EXPECT_NO_THROW(r.value().validate());
        EXPECT_EQ(csr_defect(r.value().claims), "");
        EXPECT_EQ(csr_defect(r.value().dependency), "");
      }
    }
    spit(path, golden);
  }
  EXPECT_GT(loaded, 0u);
}

TEST(CorruptBytes, JsonlByteFlipAtEveryPositionThrowsOnlyTaxonomyError) {
  test::TempDir tmp("faults_jsonl_flip");
  const std::string dir = tmp.path();
  const std::string path = dir + "/dataset.jsonl";
  save_dataset_jsonl(tiny_dataset(), path);
  const std::string golden = slurp(path);
  std::size_t loaded = 0;
  for (std::size_t at = 0; at < golden.size(); ++at) {
    SCOPED_TRACE("flip at " + std::to_string(at));
    std::string damaged = golden;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    spit(path, damaged);
    try {
      Dataset d = load_dataset_jsonl(path);
      ++loaded;
      EXPECT_NO_THROW(d.validate());
      EXPECT_EQ(csr_defect(d.claims), "");
      EXPECT_EQ(csr_defect(d.dependency), "");
    } catch (const TaxonomyError& e) {
      EXPECT_NE(e.code(), ErrorCode::kOk);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unclassified exception: " << e.what();
    }
  }
  EXPECT_GT(loaded, 0u);
}

TEST(Checkpoint, StoreSurfacesLocatedRecoveredError) {
  test::TempDir tmp("faults_store_recovered_error");
  const std::string dir = tmp.path();
  std::string path = dir + "/store.ckpt";
  {
    CheckpointStore store(path, 7, 42, 3);
    store.commit(1, "beta");
    EXPECT_EQ(store.recovered_error().code, ErrorCode::kOk);
  }
  const std::string bytes = slurp(path);
  // A torn tail, and one flipped bit inside the stored payload, which
  // no bounds check can see: only the seal catches it.
  std::string flipped = bytes;
  const std::size_t at = bytes.find("beta");
  ASSERT_NE(at, std::string::npos);
  flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
  for (const std::string& damaged :
       {bytes.substr(0, bytes.size() - 3), flipped}) {
    spit(path, damaged);
    CheckpointStore hurt(path, 7, 42, 3);
    ASSERT_TRUE(hurt.recovered_corrupt());
    EXPECT_EQ(hurt.completed(), 0u);
    EXPECT_EQ(hurt.recovered_error().code, ErrorCode::kCheckpointCorrupt);
    EXPECT_NE(hurt.recovered_error().message.find(path), std::string::npos)
        << hurt.recovered_error().message;
    EXPECT_NE(hurt.recovered_error().message.find("at byte"),
              std::string::npos)
        << hurt.recovered_error().message;
  }
}

TEST(Checkpoint, EmExtKilledRunResumesBitIdentical) {
  Dataset d = tiny_dataset();
  test::TempDir tmp("faults_em_resume");
  const std::string dir = tmp.path();
  EmExtConfig config;
  config.init_kind = EmInit::kRandom;
  config.restarts = 4;
  config.max_iters = 40;
  EmExtResult baseline = EmExtEstimator(config).run_detailed(d, 7);

  EmExtConfig ckpt = config;
  ckpt.checkpoint_path = dir + "/em.ckpt";
  {
    fault::FaultConfig fc;
    fc.seed = 41;
    fc.kill_after_units = 2;  // die after two attempts committed
    fault::ScopedFaultInjection inj(fc);
    EXPECT_THROW(EmExtEstimator(ckpt).run_detailed(d, 7),
                 fault::FaultInjectedError);
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt.checkpoint_path));

  EmExtResult resumed = EmExtEstimator(ckpt).run_detailed(d, 7);
  EXPECT_GE(resumed.health.resumed_attempts, 1u);
  EXPECT_EQ(resumed.estimate.belief, baseline.estimate.belief);
  EXPECT_EQ(resumed.estimate.log_odds, baseline.estimate.log_odds);
  EXPECT_EQ(resumed.likelihood_trace, baseline.likelihood_trace);
  EXPECT_EQ(resumed.log_likelihood, baseline.log_likelihood);
  EXPECT_EQ(resumed.params.z, baseline.params.z);
  // Successful run cleans up after itself.
  EXPECT_FALSE(std::filesystem::exists(ckpt.checkpoint_path));
}

TEST(Checkpoint, GibbsKilledRunResumesBitIdentical) {
  ColumnModel model;
  model.p_claim_true = {0.8, 0.6, 0.7, 0.55, 0.65, 0.75};
  model.p_claim_false = {0.2, 0.3, 0.25, 0.35, 0.3, 0.2};
  model.z = 0.5;
  GibbsBoundConfig config;
  config.burn_in_sweeps = 20;
  config.min_sweeps = 50;
  config.max_sweeps = 400;
  config.chains = 3;
  GibbsBoundResult baseline = gibbs_bound(model, 11, config);

  test::TempDir tmp("faults_gibbs_resume");
  const std::string dir = tmp.path();
  GibbsBoundConfig ckpt = config;
  ckpt.checkpoint_path = dir + "/gibbs.ckpt";
  {
    fault::FaultConfig fc;
    fc.seed = 42;
    fc.kill_after_units = 1;  // die after one chain committed
    fault::ScopedFaultInjection inj(fc);
    EXPECT_THROW(gibbs_bound(model, 11, ckpt),
                 fault::FaultInjectedError);
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt.checkpoint_path));

  GibbsBoundResult resumed = gibbs_bound(model, 11, ckpt);
  EXPECT_GE(resumed.resumed_chains, 1u);
  EXPECT_EQ(resumed.bound.error, baseline.bound.error);
  EXPECT_EQ(resumed.bound.false_positive, baseline.bound.false_positive);
  EXPECT_EQ(resumed.bound.false_negative, baseline.bound.false_negative);
  EXPECT_EQ(resumed.sweeps, baseline.sweeps);
  EXPECT_EQ(resumed.effective_sample_size,
            baseline.effective_sample_size);
  EXPECT_EQ(resumed.r_hat, baseline.r_hat);
  EXPECT_FALSE(std::filesystem::exists(ckpt.checkpoint_path));
}

TEST(Checkpoint, GibbsDatasetBoundKilledRunResumesBitIdentical) {
  // The dataset bound runs its patterns concurrently, so each pattern
  // checkpoints to its own file, <path>.<first-occurrence column>.
  Dataset d = tiny_dataset();  // patterns first seen at columns 0, 1, 2
  ModelParams params;
  params.source.assign(d.source_count(), SourceParams{0.7, 0.3, 0.8, 0.5});
  params.z = 0.4;
  GibbsBoundConfig config;
  config.burn_in_sweeps = 20;
  config.min_sweeps = 50;
  config.max_sweeps = 400;
  ThreadPool pool(4);
  DatasetBoundResult baseline =
      gibbs_dataset_bound(d, params, 11, config, &pool);
  ASSERT_EQ(baseline.distinct_patterns, 3u);

  test::TempDir tmp("faults_gibbs_dataset_resume");
  const std::string dir = tmp.path();
  GibbsBoundConfig ckpt = config;
  ckpt.checkpoint_path = dir + "/gibbs.ckpt";
  std::vector<std::string> files;
  for (const char* column : {"0", "1", "2"}) {
    files.push_back(ckpt.checkpoint_path + "." + column);
  }
  fault::FaultConfig fc;
  fc.seed = 43;
  fc.kill_after_units = 1;  // die after one chain committed
  {
    fault::ScopedFaultInjection inj(fc);
    EXPECT_THROW(gibbs_dataset_bound(d, params, 11, ckpt, &pool),
                 fault::FaultInjectedError);
  }
  for (const std::string& file : files) {
    EXPECT_TRUE(std::filesystem::exists(file)) << file;
  }
  EXPECT_FALSE(std::filesystem::exists(ckpt.checkpoint_path));

  // Rerun under the same kill: it survives only if every pattern
  // replays its chain from its own file instead of committing anew.
  DatasetBoundResult resumed;
  {
    fault::ScopedFaultInjection inj(fc);
    resumed = gibbs_dataset_bound(d, params, 11, ckpt, &pool);
    EXPECT_EQ(fault::committed_units(), 0u);
  }
  EXPECT_EQ(resumed.distinct_patterns, baseline.distinct_patterns);
  EXPECT_EQ(resumed.bound.error, baseline.bound.error);
  EXPECT_EQ(resumed.bound.false_positive, baseline.bound.false_positive);
  EXPECT_EQ(resumed.bound.false_negative, baseline.bound.false_negative);
  for (const std::string& file : files) {
    EXPECT_FALSE(std::filesystem::exists(file)) << file;
  }
}

TEST(Checkpoint, CorruptCheckpointRecomputesInsteadOfPoisoning) {
  Dataset d = tiny_dataset();
  test::TempDir tmp("faults_em_corrupt_ckpt");
  const std::string dir = tmp.path();
  EmExtConfig config;
  config.init_kind = EmInit::kRandom;
  config.restarts = 2;
  config.max_iters = 40;
  EmExtResult baseline = EmExtEstimator(config).run_detailed(d, 9);

  EmExtConfig ckpt = config;
  ckpt.checkpoint_path = dir + "/em.ckpt";
  ckpt.keep_checkpoint = true;
  EmExtResult first = EmExtEstimator(ckpt).run_detailed(d, 9);
  EXPECT_EQ(first.estimate.belief, baseline.estimate.belief);
  ASSERT_TRUE(std::filesystem::exists(ckpt.checkpoint_path));

  // Damage the kept checkpoint; the next run must ignore it and still
  // reproduce the baseline bit-for-bit.
  std::string bytes = slurp(ckpt.checkpoint_path);
  spit(ckpt.checkpoint_path,
       fault::corrupt_bytes(bytes, 0.2, 1234));
  EmExtResult again = EmExtEstimator(ckpt).run_detailed(d, 9);
  EXPECT_EQ(again.estimate.belief, baseline.estimate.belief);
  EXPECT_EQ(again.log_likelihood, baseline.log_likelihood);
}

// Every byte of a kept checkpoint, flipped one at a time: the seal
// rejects each damaged file, so the rerun replays nothing, recomputes
// every unit and reproduces the uninterrupted run.
TEST(Checkpoint, ByteFlipAtEveryPositionRecomputesBitIdentical) {
  test::TempDir tmp("faults_ckpt_flip");
  const std::string dir = tmp.path();
  Dataset d = tiny_dataset();
  EmExtConfig em;
  em.init_kind = EmInit::kRandom;
  em.restarts = 2;
  em.max_iters = 40;
  EmExtResult em_baseline = EmExtEstimator(em).run_detailed(d, 9);
  em.checkpoint_path = dir + "/em.ckpt";
  em.keep_checkpoint = true;
  EmExtEstimator(em).run_detailed(d, 9);
  const std::string em_bytes = slurp(em.checkpoint_path);
  ASSERT_FALSE(em_bytes.empty());
  for (std::size_t at = 0; at < em_bytes.size(); ++at) {
    SCOPED_TRACE("EM-Ext checkpoint, flip at byte " + std::to_string(at));
    std::string damaged = em_bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    spit(em.checkpoint_path, damaged);
    EmExtResult again = EmExtEstimator(em).run_detailed(d, 9);
    ASSERT_EQ(again.health.resumed_attempts, 0u);
    ASSERT_EQ(again.estimate.belief, em_baseline.estimate.belief);
    ASSERT_EQ(again.log_likelihood, em_baseline.log_likelihood);
  }

  ColumnModel model;
  model.p_claim_true = {0.8, 0.6, 0.7, 0.55, 0.65, 0.75};
  model.p_claim_false = {0.2, 0.3, 0.25, 0.35, 0.3, 0.2};
  model.z = 0.5;
  GibbsBoundConfig gibbs;
  gibbs.burn_in_sweeps = 20;
  gibbs.min_sweeps = 30;
  gibbs.max_sweeps = 60;
  gibbs.chains = 2;
  GibbsBoundResult gibbs_baseline = gibbs_bound(model, 11, gibbs);
  gibbs.checkpoint_path = dir + "/gibbs.ckpt";
  gibbs.keep_checkpoint = true;
  gibbs_bound(model, 11, gibbs);
  const std::string gibbs_bytes = slurp(gibbs.checkpoint_path);
  ASSERT_FALSE(gibbs_bytes.empty());
  for (std::size_t at = 0; at < gibbs_bytes.size(); ++at) {
    SCOPED_TRACE("Gibbs checkpoint, flip at byte " + std::to_string(at));
    std::string damaged = gibbs_bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    spit(gibbs.checkpoint_path, damaged);
    GibbsBoundResult again = gibbs_bound(model, 11, gibbs);
    ASSERT_EQ(again.resumed_chains, 0u);
    ASSERT_EQ(again.bound.error, gibbs_baseline.bound.error);
    ASSERT_EQ(again.bound.false_positive,
              gibbs_baseline.bound.false_positive);
    ASSERT_EQ(again.bound.false_negative,
              gibbs_baseline.bound.false_negative);
  }
}

}  // namespace
}  // namespace ss
