// Deterministic simulation harness (src/sim/): virtual clock,
// seeded scheduler, faulty stream, crashable process, storm runs.
//
// The storm tests are the repo's chaos gate (ctest label `storm`): a
// failure here prints the offending SS_STORM_SEED and the capture-and-
// replay test proves that rerunning the printed seed reproduces the
// run byte-for-byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/storm.h"
#include "sim/stream.h"
#include "sim/virtual_clock.h"
#include "temp_dir.h"
#include "twitter/clustering.h"
#include "twitter/scenario.h"
#include "twitter/simulator.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/fault_inject.h"
#include "util/thread_pool.h"

namespace ss {
namespace sim {
namespace {

// Every storm of this process writes its snapshots into one directory,
// removed when the process exits.
std::string storm_workdir() {
  static const test::TempDir dir("sim_storm");
  return dir.path();
}

TEST(VirtualClock, AdvancesForwardOnly) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance_to(7);
  clock.advance_to(7);  // staying put is fine
  EXPECT_EQ(clock.now(), 7u);
  EXPECT_THROW(clock.advance_to(6), std::logic_error);
}

TEST(SimScheduler, PopsInTickOrderAndAdvancesClock) {
  SimScheduler scheduler(1);
  scheduler.schedule(30, EventKind::kQuery);
  scheduler.schedule(10, EventKind::kBatchArrival, 0);
  scheduler.schedule(20, EventKind::kCrash, 0);
  EXPECT_EQ(scheduler.pop().tick, 10u);
  EXPECT_EQ(scheduler.pop().tick, 20u);
  EXPECT_EQ(scheduler.pop().tick, 30u);
  EXPECT_EQ(scheduler.now(), 30u);
  EXPECT_TRUE(scheduler.empty());
}

TEST(SimScheduler, PastTickClampsToNow) {
  SimScheduler scheduler(1);
  scheduler.schedule(50, EventKind::kQuery);
  scheduler.pop();
  scheduler.schedule(10, EventKind::kBatchArrival, 3);
  Event e = scheduler.pop();
  EXPECT_EQ(e.tick, 50u);
  EXPECT_EQ(e.payload, 3u);
}

TEST(SimScheduler, SameTickOrderIsSeededAndReplayable) {
  auto order = [](std::uint64_t seed) {
    SimScheduler scheduler(seed);
    for (std::uint64_t p = 0; p < 16; ++p) {
      scheduler.schedule(5, EventKind::kBatchArrival, p);
    }
    std::vector<std::uint64_t> got;
    while (!scheduler.empty()) got.push_back(scheduler.pop().payload);
    return got;
  };
  EXPECT_EQ(order(11), order(11));
  // Different seeds explore different same-tick interleavings. (16
  // events have 16! orderings; two seeds agreeing would be a broken
  // tie-break, not a coincidence.)
  EXPECT_NE(order(11), order(12));
}

TEST(FaultPlans, BatchPlanIsPureAndSeedSensitive) {
  fault::BatchFaultConfig config;
  config.delay_rate = 0.5;
  config.max_delay_ticks = 100;
  config.duplicate_rate = 0.3;
  config.drop_rate = 0.3;
  config.corrupt_rate = 0.3;
  bool differs = false;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    fault::BatchFaultPlan a = fault::plan_batch_faults(config, 7, seq);
    fault::BatchFaultPlan b = fault::plan_batch_faults(config, 7, seq);
    EXPECT_EQ(a.delay_ticks, b.delay_ticks);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.drop_first_attempt, b.drop_first_attempt);
    EXPECT_EQ(a.corrupt_seed, b.corrupt_seed);
    fault::BatchFaultPlan c = fault::plan_batch_faults(config, 8, seq);
    if (a.delay_ticks != c.delay_ticks || a.duplicate != c.duplicate ||
        a.drop_first_attempt != c.drop_first_attempt) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlans, KillPointsDistinctSortedInRange) {
  std::vector<std::uint64_t> kills = fault::plan_kill_points(42, 5, 1000);
  EXPECT_EQ(kills, fault::plan_kill_points(42, 5, 1000));
  EXPECT_LE(kills.size(), 5u);
  EXPECT_GE(kills.size(), 1u);
  for (std::size_t i = 0; i < kills.size(); ++i) {
    EXPECT_GE(kills[i], 1u);
    EXPECT_LT(kills[i], 1000u);
    if (i > 0) {
      EXPECT_LT(kills[i - 1], kills[i]);
    }
  }
  EXPECT_TRUE(fault::plan_kill_points(42, 0, 1000).empty());
  EXPECT_TRUE(fault::plan_kill_points(42, 3, 1).empty());
}

class SimStreamTest : public ::testing::Test {
 protected:
  static TwitterSimulation world() {
    return simulate_twitter(
        scenario_by_name("Kirkuk").scaled(0.02), 9);
  }
};

TEST_F(SimStreamTest, BatchesPartitionTheStream) {
  TwitterSimulation w = world();
  StreamConfig config;
  config.batch_size = 40;
  SimStream stream(w.tweets, config, 5);
  std::size_t total = 0;
  for (std::uint64_t s = 0; s < stream.batch_count(); ++s) {
    total += stream.clean_batch(s).size();
  }
  EXPECT_EQ(total, w.tweets.size());
  EXPECT_GE(stream.deliveries().size(), stream.batch_count());
}

TEST_F(SimStreamTest, CorruptedDeliveryIsDeterministicAndRepaired) {
  TwitterSimulation w = world();
  StreamConfig config;
  config.batch_size = 40;
  config.faults.corrupt_rate = 1.0;
  config.faults.corrupt_byte_rate = 0.02;
  SimStream stream(w.tweets, config, 5);
  ASSERT_GT(stream.batch_count(), 0u);
  SimStream::Delivered once = stream.delivered(0);
  SimStream::Delivered twice = stream.delivered(0);
  EXPECT_TRUE(once.corrupted);
  ASSERT_EQ(once.tweets.size(), twice.tweets.size());
  for (std::size_t i = 0; i < once.tweets.size(); ++i) {
    EXPECT_EQ(once.tweets[i].id, twice.tweets[i].id);
    EXPECT_EQ(once.tweets[i].text, twice.tweets[i].text);
  }
  // Some records survive repair on a 2% byte-mangling rate.
  EXPECT_GT(once.tweets.size(), 0u);
}

TEST(SimProcess, BuffersAheadRejectsStale) {
  TwitterSimulation w = simulate_twitter(
      scenario_by_name("Kirkuk").scaled(0.02), 3);
  StreamConfig stream_config;
  stream_config.batch_size = 30;
  SimStream stream(w.tweets, stream_config, 3);
  ASSERT_GE(stream.batch_count(), 3u);

  ProcessConfig config;
  test::TempDir dir("sim_buffer");
  config.checkpoint_path = dir.file("p.snap");
  SimProcess process(&w.follows, config);
  EXPECT_EQ(process.deliver(1, stream.clean_batch(1)),
            SimProcess::DeliveryOutcome::kBuffered);
  EXPECT_EQ(process.next_seq(), 0u);
  // Applying seq 0 drains the buffered seq 1 too.
  EXPECT_EQ(process.deliver(0, stream.clean_batch(0)),
            SimProcess::DeliveryOutcome::kApplied);
  EXPECT_EQ(process.next_seq(), 2u);
  EXPECT_EQ(process.deliver(1, stream.clean_batch(1)),
            SimProcess::DeliveryOutcome::kStale);
  EXPECT_EQ(process.stale_deliveries(), 1u);
}

TEST(SimProcess, CrashResumeRestoresCommittedStateBitIdentically) {
  TwitterSimulation w = simulate_twitter(
      scenario_by_name("Kirkuk").scaled(0.02), 4);
  StreamConfig stream_config;
  stream_config.batch_size = 30;
  SimStream stream(w.tweets, stream_config, 4);
  ASSERT_GE(stream.batch_count(), 3u);

  test::TempDir dir("sim_crash");
  ProcessConfig config;
  config.checkpoint_path = dir.file("p.snap");
  config.fingerprint = 77;

  // Twin A runs uninterrupted; twin B crashes after the checkpoint and
  // is redelivered the tail. Both must land on identical bytes.
  SimProcess a(&w.follows, config);
  ProcessConfig config_b = config;
  config_b.checkpoint_path = dir.file("pb.snap");
  SimProcess b(&w.follows, config_b);

  std::size_t total = stream.batch_count();
  std::size_t cut = total / 2;
  for (std::uint64_t s = 0; s < cut; ++s) {
    a.deliver(s, stream.clean_batch(s));
    b.deliver(s, stream.clean_batch(s));
  }
  b.checkpoint();
  // Progress past the checkpoint, then die.
  b.deliver(cut, stream.clean_batch(cut));
  b.crash();
  EXPECT_FALSE(b.running());
  EXPECT_EQ(b.deliver(cut, stream.clean_batch(cut)),
            SimProcess::DeliveryOutcome::kDown);
  b.resume();
  // Core invariant: resumed state == last committed payload, bit for
  // bit (the post-checkpoint batch is gone, as it should be).
  EXPECT_EQ(b.serialized_state(), b.last_committed_state());
  EXPECT_EQ(b.next_seq(), cut);
  // Redeliver the tail; the twins converge bit-identically.
  for (std::uint64_t s = cut; s < total; ++s) {
    a.deliver(s, stream.clean_batch(s));
    b.deliver(s, stream.clean_batch(s));
  }
  EXPECT_EQ(a.serialized_state(), b.serialized_state());
}

TEST(SimProcess, ResumeRefusesCorruptSnapshot) {
  TwitterSimulation w = simulate_twitter(
      scenario_by_name("Kirkuk").scaled(0.02), 5);
  test::TempDir dir("sim_refuse");
  ProcessConfig config;
  config.checkpoint_path = dir.file("p.snap");
  SimProcess process(&w.follows, config);
  StreamConfig stream_config;
  stream_config.batch_size = 30;
  SimStream stream(w.tweets, stream_config, 5);
  process.deliver(0, stream.clean_batch(0));
  process.checkpoint();
  process.crash();
  // Flip one payload byte under the seal.
  {
    std::string bytes = process.last_committed_state();
    std::ifstream in(config.checkpoint_path, std::ios::binary);
    std::string file((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    file[file.size() / 2] =
        static_cast<char>(file[file.size() / 2] ^ 0x40);
    std::ofstream out(config.checkpoint_path,
                      std::ios::binary | std::ios::trunc);
    out << file;
  }
  EXPECT_THROW(process.resume(), TaxonomyError);
  EXPECT_FALSE(process.running());
}

TEST(SimProcess, ResumeRefusesSnapshotOfPreviousLayout) {
  TwitterSimulation w = simulate_twitter(
      scenario_by_name("Kirkuk").scaled(0.02), 5);
  test::TempDir dir("sim_old_kind");
  ProcessConfig config;
  config.checkpoint_path = dir.file("p.snap");
  config.fingerprint = 9;
  SimProcess process(&w.follows, config);
  StreamConfig stream_config;
  stream_config.batch_size = 30;
  SimStream stream(w.tweets, stream_config, 5);
  process.deliver(0, stream.clean_batch(0));
  process.checkpoint();
  process.crash();
  // A well-sealed snapshot under the previous kind tag ("SIMPROC2"),
  // whose payload layout differs, must be refused rather than decoded.
  constexpr std::uint64_t kPreviousKind = 0x53494d50'524f4332ULL;
  static_assert(kPreviousKind != SimProcess::kSnapshotKind);
  write_snapshot(config.checkpoint_path, kPreviousKind, config.fingerprint,
                 process.last_committed_state());
  EXPECT_THROW(process.resume(), TaxonomyError);
}

// Commits two batches and crashes, then seals make_bad(committed
// payload) under the right kind and fingerprint. Resume must refuse
// that snapshot as a corrupt checkpoint and leave the process down;
// resealing the committed payload must then resume it exactly.
void expect_resume_refuses(
    const std::string& tag,
    const std::function<std::string(const std::string&)>& make_bad) {
  TwitterSimulation w = simulate_twitter(
      scenario_by_name("Kirkuk").scaled(0.02), 6);
  test::TempDir dir("sim_" + tag);
  ProcessConfig config;
  config.checkpoint_path = dir.file("p.snap");
  config.fingerprint = 11;
  SimProcess process(&w.follows, config);
  StreamConfig stream_config;
  stream_config.batch_size = 30;
  SimStream stream(w.tweets, stream_config, 6);
  process.deliver(0, stream.clean_batch(0));
  process.deliver(1, stream.clean_batch(1));
  process.checkpoint();
  const std::string good = process.last_committed_state();
  process.crash();

  write_snapshot(config.checkpoint_path, SimProcess::kSnapshotKind,
                 config.fingerprint, make_bad(good));
  try {
    process.resume();
    ADD_FAILURE() << "resume accepted an undecodable payload";
  } catch (const TaxonomyError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointCorrupt) << e.what();
  }
  EXPECT_FALSE(process.running());

  write_snapshot(config.checkpoint_path, SimProcess::kSnapshotKind,
                 config.fingerprint, good);
  process.resume();
  ASSERT_TRUE(process.running());
  EXPECT_EQ(process.next_seq(), 2u);
  EXPECT_TRUE(process.serialized_state() == good);
}

TEST(SimProcess, ResumeRefusesTruncatedPayload) {
  expect_resume_refuses("truncated", [](const std::string& good) {
    return good.substr(0, good.size() / 2);
  });
}

TEST(SimProcess, ResumeRefusesCountBeyondPayload) {
  // Bytes 16..23 hold the clusterer's cluster count (after next_seq and
  // the stale counter). 2^62 is above any vector's max_size(), so a
  // decoder that reserves from it fails before allocating anything.
  expect_resume_refuses("huge_count", [](const std::string& good) {
    std::string bad = good;
    const std::uint64_t count = std::uint64_t{1} << 62;
    for (int b = 0; b < 8; ++b) {
      bad[16 + static_cast<std::size_t>(b)] =
          static_cast<char>((count >> (8 * b)) & 0xff);
    }
    return bad;
  });
}

TEST(SimProcess, ResumeRefusesTrailingBytes) {
  expect_resume_refuses("trailing", [](const std::string& good) {
    return good + std::string(8, '\0');
  });
}

TEST(SimProcess, ResumeRefusesClustererMapsWithDifferentIds) {
  // The clusterer's state ends with its tweet-id -> position map. Give
  // that map's first id a value the tweet-id -> cluster map lacks: a
  // state save_state cannot write, which resume must call corrupt.
  expect_resume_refuses("mismatched_ids", [](const std::string& good) {
    BinReader reader(good);
    reader.u64();  // next_seq
    reader.u64();  // stale counter
    IncrementalClusterer clusterer;
    clusterer.load_state(reader);
    std::size_t first_id = reader.position() - 16 * clusterer.tweets_seen();
    BinWriter id;
    id.u64(0xfffffffeu);
    std::string bad = good;
    bad.replace(first_id, 8, id.bytes());
    return bad;
  });
}

// --- storm-level tests ----------------------------------------------

StormConfig storm_config(std::uint64_t seed) {
  StormConfig config;
  config.seed = seed;
  config.scenario = "Kirkuk";
  config.scale = 0.03;
  config.stream.batch_size = 60;
  config.stream.emit_interval_ticks = 50;
  config.stream.faults.delay_rate = 0.3;
  config.stream.faults.max_delay_ticks = 120;  // > spacing: reorders
  config.stream.faults.duplicate_rate = 0.15;
  config.stream.faults.drop_rate = 0.1;
  config.stream.faults.retry_delay_ticks = 40;
  config.crashes = 2;
  config.checkpoint_interval_ticks = 120;
  config.query_interval_ticks = 170;
  config.workdir = storm_workdir();
  return config;
}

TEST(Storm, FaultFreeDeliveryMatchesReferenceExactly) {
  StormConfig config = storm_config(101);
  StormReport report = run_storm(config);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.passed);
  ASSERT_FALSE(report.final_top.empty());
  // No corruption configured: exact (bitwise) agreement was asserted
  // inside run_storm; double-check here at the API level.
  EXPECT_EQ(report.final_top, report.reference_top);
  EXPECT_GT(report.crashes, 0u);
  EXPECT_GE(report.resumes, report.crashes);
}

TEST(Storm, SameSeedReplaysByteIdentically) {
  StormConfig config = storm_config(202);
  StormReport first = run_storm(config);
  StormReport second = run_storm(config);
  EXPECT_TRUE(first.passed) << first.event_log;
  EXPECT_EQ(first.event_log, second.event_log);
  EXPECT_EQ(first.final_top, second.final_top);
  EXPECT_EQ(first.events, second.events);
}

TEST(Storm, DifferentSeedsDiverge) {
  StormReport a = run_storm(storm_config(301));
  StormReport b = run_storm(storm_config(302));
  EXPECT_NE(a.event_log, b.event_log);
}

TEST(Storm, ParallelismDoesNotChangeTheRun) {
  ThreadPool one(1);
  ThreadPool four(4);
  StormConfig config = storm_config(404);
  config.pool = &one;
  StormReport serial = run_storm(config);
  config.pool = &four;
  StormReport parallel = run_storm(config);
  EXPECT_TRUE(serial.passed) << serial.event_log;
  EXPECT_EQ(serial.event_log, parallel.event_log);
  EXPECT_EQ(serial.final_top, parallel.final_top);
}

TEST(Storm, CorruptionStormStaysWithinOverlapTolerance) {
  StormConfig config = storm_config(505);
  config.stream.faults.corrupt_rate = 0.2;
  config.stream.faults.corrupt_byte_rate = 0.01;
  config.min_rank_overlap = 0.5;
  StormReport report = run_storm(config);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_GT(report.corrupted_batches, 0u);
}

TEST(Storm, FailingSeedIsPrintedAndReplaysIdentically) {
  // Force a violation: no ranking can overlap more than 100%.
  StormConfig config = storm_config(606);
  config.stream.faults.corrupt_rate = 0.5;
  config.min_rank_overlap = 1.1;
  StormReport failed = run_storm(config);
  ASSERT_FALSE(failed.passed);
  ASSERT_FALSE(failed.violations.empty());
  // Every violation carries the replay hint...
  EXPECT_NE(failed.violations.front().find("SS_STORM_SEED=606"),
            std::string::npos);
  // ...and replaying the printed seed reproduces the run exactly.
  std::string hint = failed.replay_hint;
  ASSERT_EQ(hint.rfind("SS_STORM_SEED=", 0), 0u);
  std::uint64_t seed = std::strtoull(
      hint.c_str() + std::string("SS_STORM_SEED=").size(), nullptr, 10);
  StormConfig replay_config = storm_config(seed);
  replay_config.stream.faults.corrupt_rate = 0.5;
  replay_config.min_rank_overlap = 1.1;
  StormReport replay = run_storm(replay_config);
  EXPECT_EQ(failed.event_log, replay.event_log);
  EXPECT_EQ(failed.violations, replay.violations);
}

TEST(Storm, SeedSweepHoldsInvariants) {
  // 32 seeds; base rotated by CI via SS_STORM_SEED. A failure prints
  // the exact seed to replay.
  std::uint64_t base =
      static_cast<std::uint64_t>(env_int("SS_STORM_SEED", 1000));
  for (std::uint64_t seed = base; seed < base + 32; ++seed) {
    StormConfig config = storm_config(seed);
    config.scale = 0.02;
    config.stream.faults.corrupt_rate = 0.1;
    config.min_rank_overlap = 0.5;
    StormReport report = run_storm(config);
    for (const std::string& v : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

// --- live pipeline state codec ----------------------------------------

TEST(StreamingSequence, SaveLoadRoundTripsBitExactly) {
  TwitterSimulation w = simulate_twitter(
      scenario_by_name("Kirkuk").scaled(0.02), 7);
  LiveApolloConfig live_config;
  LiveApollo live(w.follows, live_config);
  for (const Tweet& t : w.tweets) live.ingest(t);
  live.refresh();

  BinWriter writer;
  live.save_state(writer);
  std::string bytes = writer.bytes();

  LiveApollo restored(w.follows, live_config);
  BinReader reader(bytes);
  restored.load_state(reader);
  EXPECT_TRUE(reader.done());

  BinWriter again;
  restored.save_state(again);
  EXPECT_EQ(bytes, again.bytes());
  EXPECT_EQ(live.top(10), restored.top(10));

  // Wrong universe is rejected, never silently mis-mapped.
  Digraph other(w.follows.node_count() + 1);
  LiveApollo mismatched(other, live_config);
  BinReader reader2(bytes);
  EXPECT_THROW(mismatched.load_state(reader2), std::runtime_error);
}

}  // namespace
}  // namespace sim
}  // namespace ss
